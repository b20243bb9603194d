"""Exact and fuzzy matching of profession titles against article titles.

Fuzzy candidates use the Levenshtein edit distance over Unicode code
points and the derived ratio 1 - distance / max(len). A pair is emitted
when the distance is at most ``d_max`` or the ratio is at least ``r_min``;
exact matches are auto-confirmed, everything else waits for a reviewer
decision ingested from a CSV file.

:func:`match` never computes a distance it does not need:

- **Cutoff per length.** With ``L = max(len(p), len(a))`` the predicate
  ``d <= d_max or 1 - d/L >= r_min`` holds exactly for ``d = 0..k(L)``.
  ``k(L)`` is found by evaluating that float expression itself for each
  ``d``, once per ``L``, so rounding decides as it would per pair; a closed
  form such as ``floor(L * (1 - r_min))`` gives 2 at ``L = 15`` and the
  default ``r_min = 0.8``, where the predicate accepts 3.
- **Length buckets.** Article titles are normalised once and grouped by
  length. A whole bucket is skipped when the length gap, a lower bound on
  the distance, exceeds ``k(L)``.
- **Bit-parallel kernel.** The distance is Myers' bit-vector algorithm
  (JACM 46(3), 1999) in Hyyrö's form for Levenshtein distance: one column
  of the DP matrix is a pair of Python ints, so titles of any length fit,
  and the profession title's match masks are built once for all article
  titles. The column loop stops once the score minus the columns still to
  read exceeds ``k(L)`` (the band argument of Ukkonen, 1985), since each
  column lowers the final score by at most one.

:func:`lev_distance` is the plain DP, kept as the reference the kernel is
tested against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

from .text import nfc


class MatchStatus(str, Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    CONFIRMED = "confirmed"
    REJECTED = "rejected"


@dataclass
class MatchCandidate:
    profession_id: str
    profession_title: str
    article_title: str
    distance: int
    ratio: float
    status: MatchStatus
    title_role: str  # which slot the profession title came from: male/female/neutral
    gender_group: str | None = None


def lev_distance(a: str, b: str) -> int:
    """Minimum number of single-character edits turning ``a`` into ``b``.

    Operates on Unicode code points, so an umlaut substitution counts as
    one edit.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def lev_ratio(a: str, b: str) -> float:
    """Match proportion 1 - distance / max(len(a), len(b)), in [0, 1]."""
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("lev_ratio: undefined for two empty strings")
    return 1.0 - lev_distance(a, b) / longest


def _cutoff(longest: int, d_max: int, r_min: float) -> int:
    """Largest distance in 0..longest that the emission predicate accepts.

    The predicate is evaluated as written for each distance in turn. It
    is monotone in ``d`` (a correctly rounded ``d / longest`` never falls
    as ``d`` grows), so the accepted distances are exactly ``0..k``.
    Returns -1 when not even distance 0 is accepted.
    """
    k = -1
    for d in range(longest + 1):
        if not (d <= d_max or 1.0 - d / longest >= r_min):
            break
        k = d
    return k


def _match_masks(pattern: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``pattern[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(pattern):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def _bounded_distance(masks: dict[str, int], m: int, text: str,
                      k: int) -> int:
    """Levenshtein distance between ``text`` and the length-``m`` pattern
    behind ``masks`` when it is at most ``k``, otherwise -1.

    ``pv``/``mv`` hold the +1/-1 vertical deltas of the current DP column.
    ``slack`` is the column's last cell minus the columns still to read: a
    lower bound on the final distance, and equal to it after the last
    column.
    """
    n = len(text)
    if m == 0:
        return n if n <= k else -1
    slack = m - n
    if slack > k:
        return -1
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv = full, 0
    get = masks.get
    for c in text:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            slack += 2
            if slack > k:
                return -1
        elif not mh & top:
            slack += 1
            if slack > k:
                return -1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return slack


def match(professions, titles, d_max: int = 2, r_min: float = 0.8,
          case_fold: bool = False) -> list[MatchCandidate]:
    """All-pairs match of profession titles against article titles.

    ``professions`` yields (profession_id, role, title) triples where role
    is one of male/female/neutral. Each (profession title, article title)
    pair meeting distance <= d_max or ratio >= r_min appears exactly once.
    Candidates are sorted by (profession_id, ratio desc, article title).
    Comparison is case-sensitive by default (German nouns are capitalized);
    ``case_fold`` folds both sides first.
    """
    buckets: dict[int, list[tuple[str, str]]] = {}
    for atitle in sorted({nfc(t) for t in titles}):
        acmp = atitle.casefold() if case_fold else atitle
        buckets.setdefault(len(acmp), []).append((atitle, acmp))
    cutoffs: dict[int, int] = {}
    out: list[MatchCandidate] = []
    for prof_id, role, raw in professions:
        ptitle = nfc(raw)
        pcmp = ptitle.casefold() if case_fold else ptitle
        plen = len(pcmp)
        masks = _match_masks(pcmp)
        for alen, bucket in buckets.items():
            longest = max(plen, alen)
            if longest == 0:
                continue
            k = cutoffs.get(longest)
            if k is None:
                k = cutoffs[longest] = _cutoff(longest, d_max, r_min)
            # the length gap is a lower bound on the distance
            if abs(plen - alen) > k:
                continue
            for atitle, acmp in bucket:
                d = _bounded_distance(masks, plen, acmp, k)
                if d < 0:
                    continue
                if d == 0:
                    out.append(MatchCandidate(prof_id, ptitle, atitle, 0, 1.0,
                                              MatchStatus.EXACT, role,
                                              gender_group=role))
                else:
                    out.append(MatchCandidate(prof_id, ptitle, atitle, d,
                                              1.0 - d / longest,
                                              MatchStatus.FUZZY, role))
    out.sort(key=lambda c: (c.profession_id, -c.ratio, c.article_title,
                            c.profession_title))
    return out


def apply_decisions(candidates: list[MatchCandidate], path) -> list[MatchCandidate]:
    """Flip fuzzy candidates to confirmed/rejected from a reviewer CSV.

    Rows are (profession_id, article_title, verdict, gender_group) with
    verdict in {confirm, reject}. Only fuzzy candidates are reviewable;
    exact matches are confirmed by construction and stay untouched even
    when they share a key with a reviewed pair. A row referencing a pair
    that has no reviewable candidate is an error.
    """
    index: dict[tuple[str, str], list[MatchCandidate]] = {}
    for cand in candidates:
        if cand.status is MatchStatus.EXACT:
            continue
        index.setdefault((cand.profession_id, cand.article_title), []).append(cand)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if row[0] == "profession_id":
                continue
            if len(row) < 4:
                raise ValueError(f"decisions row {row_no}: expected 4 columns")
            prof_id, atitle, verdict, group = (c.strip() for c in row[:4])
            key = (prof_id, nfc(atitle))
            if key not in index:
                raise ValueError(
                    f"decisions row {row_no}: no candidate for "
                    f"({prof_id}, {atitle})")
            for cand in index[key]:
                if verdict == "confirm":
                    cand.status = MatchStatus.CONFIRMED
                    cand.gender_group = group or cand.title_role
                elif verdict == "reject":
                    cand.status = MatchStatus.REJECTED
                    cand.gender_group = None
                else:
                    raise ValueError(
                        f"decisions row {row_no}: unknown verdict {verdict!r}")
    return candidates


def accepted(candidates: list[MatchCandidate]) -> list[MatchCandidate]:
    """Candidates usable downstream: exact plus reviewer-confirmed."""
    return [c for c in candidates
            if c.status in (MatchStatus.EXACT, MatchStatus.CONFIRMED)]


def write_candidates(candidates: list[MatchCandidate], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["profession_id", "title_role", "profession_title",
                         "article_title", "distance", "ratio", "status",
                         "gender_group"])
        for c in candidates:
            writer.writerow([c.profession_id, c.title_role, c.profession_title,
                             c.article_title, c.distance, f"{c.ratio:.6f}",
                             c.status.value, c.gender_group or ""])
