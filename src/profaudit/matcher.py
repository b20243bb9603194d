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
  config's default ``r_min`` of 0.8, where the predicate accepts 3.
- **Length buckets.** Article titles are normalised once and grouped by
  length. A whole bucket is skipped when the length gap, a lower bound on
  the distance, exceeds ``k(L)``.
- **Segment filter.** If ``ed(p, a) <= k``, some one of the ``k + 1``
  disjoint segments of ``a`` occurs exactly in ``p`` (pigeonhole: ``k``
  edits touch at most ``k`` segments), and for a suitable such segment
  ``i`` at most ``i`` edits fall before it and ``k - i`` after it. So with
  ``Δ = len(p) - len(a)`` segment ``i``, starting at ``s_i``, starts in
  ``p`` within ``[max(s_i - i, s_i + Δ - (k - i)), min(s_i + i, s_i + Δ +
  (k - i))]``. Each length bucket is split into even segments and indexed
  once per cutoff it is probed with; only the titles that some window hits
  reach the kernel, in bucket order. A bucket of titles no longer than
  ``k`` would have an empty segment, which every title matches, so it is
  scanned whole. This is the partition filter of PASS-JOIN (Li, Deng, Wang
  and Feng, PVLDB 5(3), 2011) with its multi-match-aware windows.
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

import logging
from enum import Enum

from .artifacts import check_unique, read_rows
from .text import nfc

log = logging.getLogger(__name__)


class MatchStatus(str, Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    CONFIRMED = "confirmed"
    REJECTED = "rejected"


class MatchCandidate:
    __slots__ = ("profession_id", "profession_title", "article_title",
                 "distance", "ratio", "status", "title_role", "gender_group")

    def __init__(self, profession_id: str, profession_title: str,
                 article_title: str, distance: int, ratio: float,
                 status: MatchStatus, title_role: str,
                 gender_group: str | None = None):
        self.profession_id = profession_id
        self.profession_title = profession_title
        self.article_title = article_title
        self.distance = distance
        self.ratio = ratio
        self.status = status
        # which slot the profession title came from: male/female/neutral
        self.title_role = title_role
        self.gender_group = gender_group


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


def _segment_index(bucket: list[str], k: int):
    """The ``k + 1`` even segments of the bucket's length, as (start,
    length) pairs, and per segment a map from its substring to the ranks
    of the bucket's titles that have it there."""
    parts = k + 1
    short, extra = divmod(len(bucket[0]), parts)
    segments = []
    start = 0
    for i in range(parts):
        length = short + (i >= parts - extra)
        segments.append((start, length))
        start += length
    tables: list[dict[str, list[int]]] = [{} for _ in segments]
    for rank, atitle in enumerate(bucket):
        for (start, length), table in zip(segments, tables):
            table.setdefault(atitle[start:start + length], []).append(rank)
    return segments, tables


def _filtered(ptitle: str, bucket: list[str], k: int, indexes: dict):
    """The titles of ``bucket`` (all of length ``alen``) that may lie within
    distance ``k`` of ``ptitle``, in bucket order.

    ``indexes`` caches :func:`_segment_index` per (alen, k). A bucket with
    ``alen <= k`` would have an empty segment, so all of it is returned.
    """
    alen = len(bucket[0])
    if alen <= k:
        return bucket
    entry = indexes.get((alen, k))
    if entry is None:
        entry = indexes[(alen, k)] = _segment_index(bucket, k)
    plen = len(ptitle)
    delta = plen - alen
    hits: set[int] = set()
    for i, ((start, length), table) in enumerate(zip(*entry)):
        lo = max(start - i, start + delta - (k - i), 0)
        hi = min(start + i, start + delta + (k - i), plen - length)
        for pos in range(lo, hi + 1):
            ranks = table.get(ptitle[pos:pos + length])
            if ranks:
                hits.update(ranks)
    return [bucket[rank] for rank in sorted(hits)]


def match(professions, titles, d_max: int, r_min: float
          ) -> list[MatchCandidate]:
    """All-pairs match of profession titles against article titles.

    ``professions`` yields (profession_id, role, title) triples where role
    is one of male/female/neutral. Each (profession title, article title)
    pair meeting distance <= d_max or ratio >= r_min appears exactly once.
    Candidates are sorted by (profession_id, ratio desc, article title).
    Comparison is case-sensitive (German nouns are capitalized).
    """
    buckets: dict[int, list[str]] = {}
    for atitle in sorted({nfc(t) for t in titles}):
        buckets.setdefault(len(atitle), []).append(atitle)
    cutoffs: dict[int, int] = {}
    indexes: dict[tuple[int, int], tuple] = {}
    admitted = verified = 0
    out: list[MatchCandidate] = []
    for prof_id, role, raw in professions:
        ptitle = nfc(raw)
        plen = len(ptitle)
        masks = _match_masks(ptitle)
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
            admitted += len(bucket)
            near = _filtered(ptitle, bucket, k, indexes)
            verified += len(near)
            for atitle in near:
                d = _bounded_distance(masks, plen, atitle, k)
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
    log.info("match: %d pairs admitted by length, %d verified, "
             "%d candidates", admitted, verified, len(out))
    out.sort(key=lambda c: (c.profession_id, -c.ratio, c.article_title,
                            c.profession_title))
    return out


def apply_decisions(candidates: list[MatchCandidate], path) -> list[MatchCandidate]:
    """Flip fuzzy candidates to confirmed/rejected from a reviewer CSV.

    Rows are (profession_id, article_title, verdict, gender_group) with
    verdict in {confirm, reject} and gender_group blank or a title role.
    Only fuzzy candidates are reviewable; exact matches are confirmed by
    construction and stay untouched even when they share a key with a
    reviewed pair. A row referencing a pair that has no reviewable
    candidate is an error, and so is a pair that repeats (article titles
    compared after NFC).
    """
    index: dict[tuple[str, str], list[MatchCandidate]] = {}
    for cand in candidates:
        if cand.status is MatchStatus.EXACT:
            continue
        index.setdefault((cand.profession_id, cand.article_title), []).append(cand)
    rows: dict[tuple[str, str], int] = {}
    for row_no, row in read_rows(path, "decisions", "profession_id", 4):
        prof_id, atitle, verdict, group = (c.strip() for c in row[:4])
        key = (prof_id, nfc(atitle))
        check_unique(rows, key, row_no, "decisions",
                     "(profession_id, article_title)")
        if group not in ("", "male", "female", "neutral"):
            raise ValueError(
                f"decisions row {row_no}: unknown gender_group {group!r}")
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
