"""Persons mentioned in profession articles: extraction, gender
inference, merging, birth-year filtering, and per-article male ratios.

Two extraction routes are combined. Link mentions come from outlinks
whose target page sits in the "Frau" or "Mann" category; that gender is
human-curated and therefore authoritative. Text mentions come from a
dictionary gazetteer over first names: runs of two or more capitalized
tokens whose first token (or two-token prefix) is a known first name.
The gazetteer is deliberately simple and auditable; an external NER's
output can be ingested instead by feeding its names through the same
PersonMention shape.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import Enum

from .corpus import ArticleRecord, CorpusSnapshot
from .text import nfc

FEMALE_CATEGORY = "Frau"
MALE_CATEGORY = "Mann"

BIRTH_CUTOFF = 1960
EQUALITY_BAND = 0.05
SMALL_SAMPLE_LIMIT = 10  # below this, only exact equality counts as equal


class Gender(str, Enum):
    M = "m"
    F = "f"
    UNKNOWN = "unknown"


class Source(str, Enum):
    LINK = "link"
    NAME_MATCH = "name_match"
    BOTH = "both"


class BiasClass(str, Enum):
    MALE_BIASED = "male_biased"
    FEMALE_BIASED = "female_biased"
    EQUAL = "equal"


@dataclass
class PersonMention:
    article_title: str
    surface_name: str
    first_name: str
    gender: Gender
    source: Source
    linked_page: str | None = None
    birth_year: int | None = None

    def to_dict(self) -> dict:
        return {
            "article_title": self.article_title,
            "surface_name": self.surface_name,
            "first_name": self.first_name,
            "gender": self.gender.value,
            "source": self.source.value,
            "linked_page": self.linked_page,
            "birth_year": self.birth_year,
        }


@dataclass
class MentionStats:
    article_title: str
    n_men: int
    n_women: int
    male_ratio: float
    bias_class: BiasClass


@dataclass
class OverlapReport:
    n_link: int
    n_text: int
    n_overlap: int
    n_merged: int
    overlap_of_link: float
    overlap_of_text: float
    gender_comparisons: int
    gender_disagreements: int

    @property
    def disagreement_rate(self) -> float:
        if self.gender_comparisons == 0:
            return 0.0
        return self.gender_disagreements / self.gender_comparisons


def load_gender_lexicon(path) -> dict[str, Gender]:
    """First-name lexicon CSV: name, gender (m/f/ambiguous), optional weight.

    Lookup is case-exact on the capitalized NFC form.
    """
    table: dict[str, Gender] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "name":
                continue
            if len(row) < 2:
                raise ValueError(f"gender lexicon row {row_no}: expected "
                                 "at least 2 columns")
            name = nfc(row[0].strip())
            tag = row[1].strip().lower()
            if tag in ("m", "male"):
                gender = Gender.M
            elif tag in ("f", "female"):
                gender = Gender.F
            elif tag in ("a", "ambiguous", "unknown"):
                gender = Gender.UNKNOWN
            else:
                raise ValueError(f"gender lexicon row {row_no}: bad gender "
                                 f"{row[1]!r}")
            table[name] = gender
    return table


def extract_link_mentions(record: ArticleRecord, snapshot: CorpusSnapshot
                          ) -> tuple[list[PersonMention], int]:
    """One mention per outlink whose target carries the Frau/Mann category.

    Returns the mentions plus the count of outlinks skipped because the
    target is absent from the snapshot or ambiguously categorized.
    """
    mentions: list[PersonMention] = []
    skipped = 0
    seen: set[str] = set()
    for outlink in record.outlinks:
        title = nfc(outlink)
        if title in seen:
            continue
        seen.add(title)
        target = snapshot.records.get(title)
        if target is None or not target.exists:
            skipped += 1
            continue
        is_f = FEMALE_CATEGORY in target.categories
        is_m = MALE_CATEGORY in target.categories
        if is_f == is_m:  # neither, or contradictory
            if is_f:
                skipped += 1
            continue
        mentions.append(PersonMention(
            article_title=record.title,
            surface_name=title,
            first_name=title.split()[0] if title.split() else title,
            gender=Gender.F if is_f else Gender.M,
            source=Source.LINK,
            linked_page=title,
        ))
    return mentions, skipped


_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*", re.UNICODE)


def _capitalized_runs(text: str) -> list[str]:
    """Maximal runs of >=2 capitalized tokens separated only by blanks."""
    tokens = [(m.group(0), m.start(), m.end()) for m in _WORD_RE.finditer(text)]
    runs: list[str] = []
    current: list[tuple[str, int, int]] = []

    def flush():
        if len(current) >= 2:
            runs.append(" ".join(t[0] for t in current))

    for tok in tokens:
        word, start, _ = tok
        if not word[0].isupper():
            flush()
            current = []
            continue
        if current:
            gap = text[current[-1][2]:start]
            if gap.strip() != "":
                flush()
                current = []
        current.append(tok)
    flush()
    return runs


def extract_text_mentions(article_title: str, plain_text: str,
                          lexicon: dict[str, Gender]) -> list[PersonMention]:
    """Gazetteer pass over plain text.

    Within each run of capitalized tokens, the mention starts at the first
    token that is a lexicon first name and must be followed by at least
    one more capitalized token (German capitalizes all nouns, so runs
    often begin with non-name words like "Die Reporterin"). A two-token
    lexicon entry wins over the single token (compound first names).
    Identical surface names are emitted once per article.
    """
    mentions: list[PersonMention] = []
    seen: set[str] = set()
    for run in _capitalized_runs(nfc(plain_text)):
        tokens = run.split()
        for i in range(len(tokens) - 1):
            first_name = None
            two = " ".join(tokens[i:i + 2])
            if two in lexicon:
                first_name = two
            elif tokens[i] in lexicon:
                first_name = tokens[i]
            if first_name is None:
                continue
            surface = " ".join(tokens[i:])
            if surface not in seen:
                seen.add(surface)
                mentions.append(PersonMention(
                    article_title=article_title,
                    surface_name=surface,
                    first_name=first_name,
                    gender=lexicon[first_name],
                    source=Source.NAME_MATCH,
                ))
            break  # one person per run suffix; avoid re-matching the rest
    return mentions


def merge(link_mentions: list[PersonMention],
          text_mentions: list[PersonMention]
          ) -> tuple[list[PersonMention], OverlapReport]:
    """Union the two routes per (article, surface name).

    Pairs present in both become source=both with the link gender
    authoritative; the report carries the overlap fractions and the rate
    at which the lexicon gender disagreed with the link gender.
    """
    merged: dict[tuple[str, str], PersonMention] = {}
    for m in link_mentions:
        merged[(m.article_title, nfc(m.surface_name))] = m

    comparisons = 0
    disagreements = 0
    overlap = 0
    for m in text_mentions:
        key = (m.article_title, nfc(m.surface_name))
        if key in merged:
            base = merged[key]
            if base.source is Source.LINK:
                overlap += 1
                if m.gender is not Gender.UNKNOWN:
                    comparisons += 1
                    if m.gender is not base.gender:
                        disagreements += 1
                base.source = Source.BOTH
        else:
            merged[key] = m

    out = sorted(merged.values(),
                 key=lambda m: (m.article_title, m.surface_name))
    report = OverlapReport(
        n_link=len(link_mentions),
        n_text=len(text_mentions),
        n_overlap=overlap,
        n_merged=len(out),
        overlap_of_link=overlap / len(link_mentions) if link_mentions else 0.0,
        overlap_of_text=overlap / len(text_mentions) if text_mentions else 0.0,
        gender_comparisons=comparisons,
        gender_disagreements=disagreements,
    )
    return out, report


def male_ratio_and_class(article_title: str, n_men: int, n_women: int,
                         band: float = EQUALITY_BAND,
                         small_n: int = SMALL_SAMPLE_LIMIT) -> MentionStats:
    """Equality band 0.5 +/- band for n >= small_n, strict equality below.

    Above the band is male-biased, below is female-biased; articles
    without any mentioned person are the caller's job to exclude.
    """
    total = n_men + n_women
    if total <= 0:
        raise ValueError(f"{article_title}: no mentioned persons")
    ratio = n_men / total
    if total >= small_n:
        equal = (0.5 - band) <= ratio <= (0.5 + band)
    else:
        equal = n_men == n_women
    if equal:
        cls = BiasClass.EQUAL
    elif ratio > 0.5:
        cls = BiasClass.MALE_BIASED
    else:
        cls = BiasClass.FEMALE_BIASED
    return MentionStats(article_title, n_men, n_women, ratio, cls)


_MONTHS = ("Januar|Februar|März|April|Mai|Juni|Juli|August|September"
           "|Oktober|November|Dezember")
_BIRTH_RE = re.compile(
    r"\(\*\s*(?:\[\[)?(?:\d{1,2}\.\s*)?(?:(?:%s)\s+)?(\d{3,4})" % _MONTHS)


def parse_birth_year(plain_text: str) -> int | None:
    """First-sentence fallback for the German "(* 12. Mai 1970 in Bonn)"
    birth pattern."""
    head = plain_text[:500]
    m = _BIRTH_RE.search(head)
    return int(m.group(1)) if m else None


def load_birth_years(path) -> dict[str, int]:
    """CSV: page_title, year."""
    table: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "page_title":
                continue
            if len(row) < 2:
                raise ValueError(f"birth years row {row_no}: expected 2 columns")
            try:
                year = int(row[1])
            except ValueError as exc:
                raise ValueError(f"birth years row {row_no}: bad year "
                                 f"{row[1]!r}") from exc
            table[nfc(row[0].strip())] = year
    return table


def annotate_birth_years(mentions: list[PersonMention],
                         birth_index: dict[str, int],
                         snapshot: CorpusSnapshot | None = None) -> None:
    """Fill birth_year from the index, falling back to parsing the linked
    person's article text."""
    for m in mentions:
        if m.birth_year is not None or m.linked_page is None:
            continue
        year = birth_index.get(m.linked_page)
        if year is None and snapshot is not None:
            rec = snapshot.records.get(m.linked_page)
            if rec is not None and rec.exists and not rec.is_redirect:
                year = parse_birth_year(rec.plain_text)
        m.birth_year = year


def filter_by_birth(mentions: list[PersonMention], cutoff: int = BIRTH_CUTOFF
                    ) -> tuple[list[PersonMention], int, int]:
    """Keep mentions born strictly after the cutoff.

    Returns (kept, dropped_unknown, dropped_at_or_before_cutoff).
    """
    kept: list[PersonMention] = []
    unknown = 0
    too_old = 0
    for m in mentions:
        if m.birth_year is None:
            unknown += 1
        elif m.birth_year > cutoff:
            kept.append(m)
        else:
            too_old += 1
    return kept, unknown, too_old


def article_stats(mentions: list[PersonMention], band: float = EQUALITY_BAND,
                  small_n: int = SMALL_SAMPLE_LIMIT) -> list[MentionStats]:
    """Per-article counts and bias class over gendered mentions.

    Unknown-gender mentions do not enter the counts; articles left with
    no gendered mention are excluded.
    """
    counts: dict[str, list[int]] = {}
    for m in mentions:
        men_women = counts.setdefault(m.article_title, [0, 0])
        if m.gender is Gender.M:
            men_women[0] += 1
        elif m.gender is Gender.F:
            men_women[1] += 1
    out = []
    for title in sorted(counts):
        men, women = counts[title]
        if men + women == 0:
            continue
        out.append(male_ratio_and_class(title, men, women, band, small_n))
    return out
