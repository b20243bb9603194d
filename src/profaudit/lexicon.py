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

from enum import Enum

from .artifacts import check_unique, open_input, read_rows
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


# the attributes of a ProfessionEntry, and the keys of its entries.jsonl record
ENTRY_FIELDS = ("id", "line_no", "text", "male_title", "female_title",
                "neutral_title", "resolution")


class ProfessionEntry:
    __slots__ = ENTRY_FIELDS

    def __init__(self, id: str, line_no: int, text: str,
                 male_title: str | None, female_title: str | None,
                 neutral_title: str | None, resolution: Resolution):
        self.id = id
        self.line_no = line_no
        self.text = text
        self.male_title = male_title
        self.female_title = female_title
        self.neutral_title = neutral_title
        self.resolution = resolution

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


def load_abbreviations(path=None) -> dict[str, str]:
    """Abbreviation table, default plus optional CSV (short, expansion)
    whose short forms are non-empty and unique in NFC."""
    table = dict(DEFAULT_ABBREVIATIONS)
    if path is not None:
        rows: dict[str, int] = {}
        for row_no, row in read_rows(path, "abbreviations", None, 2):
            short = nfc(row[0].strip())
            if not short:
                raise ValueError(f"abbreviations row {row_no}: empty short "
                                 "form")
            check_unique(rows, short, row_no, "abbreviations", "short form")
            table[short] = nfc(row[1].strip())
    return table


def preprocess(text: str, abbreviations: dict[str, str]) -> str | None:
    """Exclusion filter plus punctuation/abbreviation cleanup of one line.

    Returns None when the line is blank or names a study field or activity
    field rather than a profession; otherwise the cleaned text. Punctuation
    fixes cover whitespace normalization (NBSP, runs of blanks, blanks
    hugging a slash); the abbreviation table is applied afterwards.
    """
    text = nfc(text).strip()
    if not text:
        return None
    for marker in EXCLUSION_MARKERS:
        if marker in text:
            return None
    text = text.replace(" ", " ")
    text = " ".join(text.split())
    text = text.replace(" /", "/").replace("/ ", "/")
    for short, full in abbreviations.items():
        if short in text:
            text = text.replace(short, full)
    return text


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


def split(text: str, line_no: int) -> ProfessionEntry:
    """Derive a ProfessionEntry from one preprocessed line and its number
    in the source file.

    Rule precedence: suffix rules, paired substrings, reversed pairs,
    neutral suffixes, otherwise unresolved. The function is pure; the same
    line always yields the same entry.
    """
    entry_id = f"L{line_no:04d}"

    for pattern, male_rep, female_rep in SUFFIX_RULES:
        if pattern in text:
            male = text.replace(pattern, male_rep, 1)
            female = text.replace(pattern, female_rep, 1)
            return ProfessionEntry(entry_id, line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    for male_suffix, female_suffix in PAIR_RULES:
        got = _apply_pair(text, male_suffix, female_suffix)
        if got:
            male, female = got
            return ProfessionEntry(entry_id, line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    for female_suffix, male_suffix in REVERSED_RULES:
        got = _apply_pair(text, female_suffix, male_suffix)
        if got:
            female, male = got
            return ProfessionEntry(entry_id, line_no, text, male, female,
                                   None, Resolution.AUTO_SPLIT)

    if text.lower().endswith(NEUTRAL_SUFFIXES):
        return ProfessionEntry(entry_id, line_no, text, None, None, text,
                               Resolution.AUTO_NEUTRAL)

    return ProfessionEntry(entry_id, line_no, text, None, None, None,
                           Resolution.UNRESOLVED)


def parse_file(path, abbreviations: dict[str, str]) -> list[ProfessionEntry]:
    """Run preprocess + split over a profession list file."""
    entries = []
    with open_input(path, "professions") as fh:
        for line_no, raw in enumerate(fh, start=1):
            cleaned = preprocess(raw, abbreviations)
            if cleaned is not None:
                entries.append(split(cleaned, line_no))
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


def summarize(entries: list[ProfessionEntry]) -> dict:
    pairs = sum(1 for e in entries if e.resolution is not Resolution.UNRESOLVED
                and e.is_pair)
    neutral = sum(1 for e in entries if e.resolution is not Resolution.UNRESOLVED
                  and e.neutral_title and not e.is_pair)
    unresolved = sum(1 for e in entries if e.resolution is Resolution.UNRESOLVED)
    return {"total": len(entries), "pairs": pairs, "neutral": neutral,
            "unresolved": unresolved}
