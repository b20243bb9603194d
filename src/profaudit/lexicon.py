"""Parse a raw German profession-title list into male/female pairs and
neutral names.

The source file carries one entry per line, most of the form
"Lehrer/in" or "Kinderarzt/-ärztin". Splitting applies, in order:
suffix rules, paired-substring rules (male/female), reversed rules
(female/male), and a neutral-suffix rule; whatever remains is queued for
manual assignment. All comparisons run on NFC-normalized text; umlauts
and ß are never folded.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

from .artifacts import check_unique, read_rows, write_csv, write_jsonl
from .text import nfc

# substrings marking field/study names rather than professions
EXCLUSION_MARKERS = ("(weiterf", "(grundst", "(Tätigkeitsfeld)", "(Staatse")

# default abbreviation expansions; extend via an external CSV
DEFAULT_ABBREVIATIONS = {"med.": "medizinische"}

# suffix patterns: (pattern, male replacement, female replacement);
# parenthesized variants first so the bare "er/in" cannot shadow them
SUFFIX_RULES = (
    ("(er/in)", "er", "erin"),
    ("(e/in)", "e", "in"),
    ("er/in", "er", "erin"),
)

# paired substrings, male form then female form
PAIR_RULES = (
    ("steuerer", "steuerin"),
    ("steward", "stewardess"),
    ("lotse", "lotsin"),
    ("amter", "amtin"),
    ("gehilfe", "gehilfin"),
    ("arzt", "ärztin"),
    ("pfleger", "schwester"),
    ("beauftragter", "beauftragte"),
    ("anwalt", "anwältin"),
    ("atrose", "atrosin"),
    ("purser", "purserette"),
    ("iker", "ikerin"),
    ("stuerer", "stuerin"),
    ("koch", "köchin"),
    ("aloge", "alogin"),
    ("ologe", "ologin"),
    # source rule list prints "pädagoger", but its own worked example
    # ("Sportpädagoge" -> "Sportpädagogin") only splits with "pädagoge"
    ("pädagoge", "pädagogin"),
    ("logopäde", "logopädin"),
    ("mann", "frau"),
    ("experte", "expertin"),
)

# reversed pairs, female form then male form
REVERSED_RULES = (
    ("stellte", "stellter"),
    ("beauftragte", "beauftragter"),
    ("schwester", "pfleger"),
    ("mutter", "vater"),
)

NEUTRAL_SUFFIXES = ("kraft", "person", "leute")


class Resolution(str, Enum):
    AUTO_SPLIT = "auto_split"
    AUTO_NEUTRAL = "auto_neutral"
    MANUAL = "manual"
    UNRESOLVED = "unresolved"


@dataclass
class RawLine:
    text: str
    line_no: int


@dataclass
class ProfessionEntry:
    id: str
    line_no: int
    text: str
    male_title: str | None
    female_title: str | None
    neutral_title: str | None
    resolution: Resolution

    @property
    def is_pair(self) -> bool:
        return self.male_title is not None or self.female_title is not None

    def titles(self):
        """(role, title) pairs for every present title."""
        out = []
        if self.male_title:
            out.append(("male", self.male_title))
        if self.female_title:
            out.append(("female", self.female_title))
        if self.neutral_title:
            out.append(("neutral", self.neutral_title))
        return out

    def to_dict(self) -> dict:
        """One entries.jsonl record, keyed by ``ENTRY_FIELDS``."""
        out = {name: getattr(self, name) for name in ENTRY_FIELDS}
        out["resolution"] = self.resolution.value
        return out


ENTRY_FIELDS = tuple(f.name for f in fields(ProfessionEntry))


def load_abbreviations(path=None) -> dict[str, str]:
    """Abbreviation table, default plus optional CSV (short, expansion)."""
    table = dict(DEFAULT_ABBREVIATIONS)
    if path is not None:
        for _, row in read_rows(path, "abbreviations", None, 2):
            table[nfc(row[0].strip())] = nfc(row[1].strip())
    return table


def preprocess(line: RawLine, abbreviations: dict[str, str] | None = None):
    """Exclusion filter plus punctuation/abbreviation cleanup.

    Returns None when the line names a study field or activity field
    rather than a profession; otherwise the cleaned line. Punctuation
    fixes cover whitespace normalization (NBSP, runs of blanks, blanks
    hugging a slash); the abbreviation table is applied afterwards.
    """
    text = nfc(line.text).strip()
    if not text:
        return None
    for marker in EXCLUSION_MARKERS:
        if marker in text:
            return None
    text = text.replace(" ", " ")
    text = " ".join(text.split())
    text = text.replace(" /", "/").replace("/ ", "/")
    for short, full in (abbreviations or DEFAULT_ABBREVIATIONS).items():
        if short in text:
            text = text.replace(short, full)
    return RawLine(text=text, line_no=line.line_no)


def _apply_pair(text: str, male_suffix: str, female_suffix: str):
    """Split "L/R" entries where L carries the male suffix and R ends with
    the female suffix (optionally abbreviated with a leading dash)."""
    if "/" not in text:
        return None
    left, _, right = text.partition("/")
    right = right.lstrip("-")
    if not left or not right:
        return None
    if not left.lower().endswith(male_suffix):
        return None
    if not right.lower().endswith(female_suffix):
        return None
    female = left[:-len(male_suffix)] + right[len(right) - len(female_suffix):]
    return left, female


def split(line: RawLine) -> ProfessionEntry:
    """Derive a ProfessionEntry from one preprocessed line.

    Rule precedence: suffix rules, paired substrings, reversed pairs,
    neutral suffixes, otherwise unresolved. The function is pure; the same
    line always yields the same entry.
    """
    text = line.text
    entry_id = f"L{line.line_no:04d}"

    for pattern, male_rep, female_rep in SUFFIX_RULES:
        if pattern in text:
            male = text.replace(pattern, male_rep, 1)
            female = text.replace(pattern, female_rep, 1)
            return ProfessionEntry(entry_id, line.line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    for male_suffix, female_suffix in PAIR_RULES:
        got = _apply_pair(text, male_suffix, female_suffix)
        if got:
            male, female = got
            return ProfessionEntry(entry_id, line.line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    for female_suffix, male_suffix in REVERSED_RULES:
        got = _apply_pair(text, female_suffix, male_suffix)
        if got:
            female, male = got
            return ProfessionEntry(entry_id, line.line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    if text.lower().endswith(NEUTRAL_SUFFIXES):
        return ProfessionEntry(entry_id, line.line_no, text, None, None, text,
                               Resolution.AUTO_NEUTRAL)

    return ProfessionEntry(entry_id, line.line_no, text, None, None, None,
                           Resolution.UNRESOLVED)


def parse_file(path, abbreviations: dict[str, str] | None = None) -> list[ProfessionEntry]:
    """Run preprocess + split over a profession list file."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw.strip():
                continue
            cleaned = preprocess(RawLine(raw, line_no), abbreviations)
            if cleaned is None:
                continue
            entries.append(split(cleaned))
    return entries


def load_manual_assignments(path, entries: list[ProfessionEntry]) -> list[ProfessionEntry]:
    """Override entries from a reviewer CSV.

    Rows are (line_no, group, male, female, neutral) with group in
    {pair, neutral}. Unknown line numbers are an error naming the row; a
    repeated one is an error naming both rows.
    """
    by_line = {e.line_no: e for e in entries}
    rows: dict[int, int] = {}
    for row_no, row in read_rows(path, "manual assignments", "line_no", 5):
        try:
            line_no = int(row[0])
        except ValueError as exc:
            raise ValueError(
                f"manual assignments row {row_no}: bad line_no {row[0]!r}") from exc
        if line_no not in by_line:
            raise ValueError(
                f"manual assignments row {row_no}: unknown line_no {line_no}")
        check_unique(rows, line_no, row_no, "manual assignments", "line_no")
        group = row[1].strip()
        male = nfc(row[2].strip()) or None
        female = nfc(row[3].strip()) or None
        neutral = nfc(row[4].strip()) or None
        entry = by_line[line_no]
        if group == "pair":
            if not (male or female):
                raise ValueError(
                    f"manual assignments row {row_no}: pair without titles")
            if male and female and male == female:
                raise ValueError(
                    f"manual assignments row {row_no}: male and female titles equal")
            entry.male_title = male
            entry.female_title = female
            entry.neutral_title = None
        elif group == "neutral":
            if not neutral:
                raise ValueError(
                    f"manual assignments row {row_no}: neutral without title")
            entry.male_title = None
            entry.female_title = None
            entry.neutral_title = neutral
        else:
            raise ValueError(
                f"manual assignments row {row_no}: unknown group {group!r}")
        entry.resolution = Resolution.MANUAL
    return entries


def write_entries(entries: list[ProfessionEntry], path) -> None:
    write_jsonl(path, (e.to_dict() for e in entries))


def write_review_file(entries: list[ProfessionEntry], path) -> None:
    """Unresolved lines, emitted for the manual assignment round-trip."""
    write_csv(path, ["line_no", "text"],
              [[e.line_no, e.text] for e in entries
               if e.resolution is Resolution.UNRESOLVED])


def summarize(entries: list[ProfessionEntry]) -> dict:
    pairs = sum(1 for e in entries if e.resolution is not Resolution.UNRESOLVED
                and e.is_pair)
    neutral = sum(1 for e in entries if e.resolution is not Resolution.UNRESOLVED
                  and e.neutral_title and not e.is_pair)
    unresolved = sum(1 for e in entries if e.resolution is Resolution.UNRESOLVED)
    return {"total": len(entries), "pairs": pairs, "neutral": neutral,
            "unresolved": unresolved}
