"""German labor-market statistics keyed by occupation classification
codes, joined to professions.

Statistics arrive as absolute employee counts per classification
subgroup; an accompanying classifier file maps profession names to codes
(a trailing "x" in a code stands for the whole subgroup). Joining tries
the profession's titles against the classifier, then resolves the code
exactly or by prefix against the statistics table.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .artifacts import check_unique, read_rows
from .labels import DominatedGroup, MajorityGroup
from .text import nfc


class MatchKind(str, Enum):
    EXACT = "exact"
    PREFIX = "prefix"


class LaborStat(namedtuple("LaborStat", "kldb_code label n_men n_women")):
    __slots__ = ()

    @property
    def pct_women(self) -> float:
        return self.n_women / (self.n_men + self.n_women)


CodeAssignment = namedtuple("CodeAssignment",
                            "profession_id kldb_code match_kind matched_title")


def load_stats(path) -> list[LaborStat]:
    """CSV columns: code, label, men, women. Duplicate codes and
    non-numeric counts are errors naming the row."""
    out: list[LaborStat] = []
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "labor stats", "code", 4):
        code = row[0].strip()
        check_unique(rows, code, row_no, "labor stats", "code")
        try:
            men = int(row[2])
            women = int(row[3])
        except ValueError as exc:
            raise ValueError(f"labor stats row {row_no}: non-numeric "
                             "count") from exc
        if men < 0 or women < 0 or men + women == 0:
            raise ValueError(f"labor stats row {row_no}: counts must be "
                             "nonnegative with a positive total")
        out.append(LaborStat(code, row[1].strip(), men, women))
    return out


def load_classifier(path) -> dict[str, str]:
    """Profession-name to code index, CSV columns (name, code), names in
    NFC. A name repeated with the same code is accepted; with another
    code it is an error naming both rows."""
    index: dict[str, str] = {}
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "classifier", "name", 2):
        name = nfc(row[0].strip())
        code = row[1].strip()
        first = rows.setdefault(name, row_no)
        if index.setdefault(name, code) != code:
            raise ValueError(f"classifier row {row_no}: conflicting code "
                             f"for {name!r} (first on row {first})")
    return index


def resolve_code(code: str, stats_codes: set[str]) -> tuple[str, MatchKind] | None:
    """Exact code first, then progressively shorter prefixes (the "8445x"
    subgroup encoding)."""
    bare = code.rstrip("xX")
    if code in stats_codes:
        return code, MatchKind.EXACT
    if bare != code and bare in stats_codes:
        return bare, MatchKind.PREFIX
    for length in range(len(bare) - 1, 2, -1):
        prefix = bare[:length]
        if prefix in stats_codes:
            return prefix, MatchKind.PREFIX
    return None


def assign(professions, classifier: dict[str, str],
           stats: list[LaborStat]) -> tuple[list[CodeAssignment], list[str]]:
    """Join professions to statistics codes.

    ``professions`` yields (profession_id, titles) pairs; the first title
    with a classifier entry wins, ambiguous or unlisted professions are
    reported as unmatched.
    """
    stats_codes = {s.kldb_code for s in stats}
    assignments: list[CodeAssignment] = []
    unmatched: list[str] = []
    for prof_id, titles in professions:
        hit = None
        for title in titles:
            code = classifier.get(title)
            if code is None:
                continue
            resolved = resolve_code(code, stats_codes)
            if resolved is not None:
                hit = CodeAssignment(prof_id, resolved[0], resolved[1], title)
                break
        if hit is None:
            unmatched.append(prof_id)
        else:
            assignments.append(hit)
    return assignments, unmatched


def gender_group(groups, n_men: int, n_women: int, threshold: float, *,
                 strict: bool):
    """``groups.FEMALE`` or ``groups.MALE`` for the gender whose own share
    of the counts reaches ``threshold`` (exceeds it if ``strict``) and
    exceeds the other gender's share, else ``groups.NONE``. A majority is
    strict, a dominated group inclusive. No share is bounded by 1.0 -
    threshold, which rounds (1.0 - 0.8 is 0.19999999999999996), and an
    even split is no group, so swapping the counts swaps the group."""
    total = n_men + n_women
    for group, own, other in ((groups.FEMALE, n_women, n_men),
                              (groups.MALE, n_men, n_women)):
        share = own / total
        if own > other and (share > threshold if strict
                            else share >= threshold):
            return group
    return groups.NONE


JoinedLabor = namedtuple("JoinedLabor", "profession_id kldb_code match_kind "
                         "n_men n_women pct_women majority dominated")


def join(assignments: list[CodeAssignment], stats: list[LaborStat],
         majority_threshold: float,
         dominated_threshold: float) -> list[JoinedLabor]:
    by_code = {s.kldb_code: s for s in stats}
    out = []
    for a in assignments:
        stat = by_code[a.kldb_code]
        men, women, pct = stat.n_men, stat.n_women, stat.pct_women
        out.append(JoinedLabor(
            a.profession_id, a.kldb_code, a.match_kind, men, women, pct,
            gender_group(MajorityGroup, men, women, majority_threshold,
                         strict=True),
            gender_group(DominatedGroup, men, women, dominated_threshold,
                         strict=False)))
    return out
