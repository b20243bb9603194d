"""Persons mentioned in profession articles: extraction, gender
inference, merging, birth-year filtering and male ratios.

Two extraction routes are combined. Link mentions come from outlinks
whose target page sits in the "Frau" or "Mann" category; that gender is
human-curated and therefore authoritative. Text mentions come from a
dictionary gazetteer over first names: in a run of two or more
capitalized tokens, a mention runs from the first token that is a known
first name (or starts a two-token one) to the end of the run.
A token is a ``_WORD_RE`` match, letters joined by single hyphens; it is
capitalized when ``str.isupper()`` holds for its first character; and the
tokens of a run are separated only by blanks, the characters
``str.split()`` splits on (the same set ``str.strip()`` removes). The
text is put in NFC once, so every name taken from it, like every outlink
title, is NFC already and is compared as it is.

The scan builds no run that cannot hold a mention. A mention starts only
at an anchor: a capitalized token that is the first word of a lexicon
key, ends its blank-separated chunk, and is followed by a chunk that
starts with a capitalized token. Anchors are found by set membership over
the chunks of ``text.split()``, and only from an anchor is a run walked
to its end. The gazetteer is deliberately simple and auditable; an
external NER's output can be ingested instead by feeding its names
through the same PersonMention shape.

The extractors, ``merge`` and ``filter_by_birth`` take one article's
mentions, as the pipeline's ``mentions`` stage handles one article at a
time: it writes each article's mentions before it reads the next, and
keeps only their counts, which ``male_ratio_and_class`` classes.

Each line of the ``mentions.jsonl`` artifact is one mention's
``PersonMention.json_line()``: byte for byte what ``json.dumps`` gives for
the mention's fields with ``ensure_ascii=False`` and ``sort_keys=True``,
written without building a dict or calling an encoder per mention.
``tests/oracles.py`` keeps the dict-and-``json.dumps`` form as the
reference.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress, count, filterfalse
from json.encoder import encode_basestring as _quote

from .artifacts import check_unique, read_rows
from .corpus import CorpusSnapshot, Page
from .labels import BiasClass
from .text import nfc

FEMALE_CATEGORY = "Frau"
MALE_CATEGORY = "Mann"

SMALL_SAMPLE_LIMIT = 10  # below this, only exact equality counts as equal


class Gender(str, Enum):
    M = "m"
    F = "f"
    UNKNOWN = "unknown"


class Source(str, Enum):
    LINK = "link"
    NAME_MATCH = "name_match"
    BOTH = "both"


# each enum member's JSON string, as json.dumps writes its value
_JSON = {member: _quote(member.value) for member in (*Gender, *Source)}


class PersonMention:
    """One person mentioned in one article.

    ``json_line()`` is the mention's line of ``mentions.jsonl``.
    """

    __slots__ = ("article_title", "surface_name", "first_name", "gender",
                 "source", "linked_page", "birth_year")

    def __init__(self, article_title: str, surface_name: str,
                 first_name: str, gender: Gender, source: Source,
                 linked_page: str | None = None,
                 birth_year: int | None = None):
        self.article_title = article_title
        self.surface_name = surface_name
        self.first_name = first_name
        self.gender = gender
        self.source = source
        self.linked_page = linked_page
        self.birth_year = birth_year

    def json_line(self) -> str:
        """The JSON object of every field, keys sorted, then a newline.

        Equal to ``json.dumps(d, ensure_ascii=False, sort_keys=True) +
        "\\n"`` for ``d`` the dict of the fields with the enums as their
        values: text goes through the encoder ``json.dumps`` uses when
        ``ensure_ascii`` is false, a year through ``int.__repr__``, and a
        missing page or year is ``null``.
        """
        page = self.linked_page
        year = self.birth_year
        return (
            f'{{"article_title": {_quote(self.article_title)}, '
            f'"birth_year": {"null" if year is None else int.__repr__(year)}, '
            f'"first_name": {_quote(self.first_name)}, '
            f'"gender": {_JSON[self.gender]}, '
            f'"linked_page": {"null" if page is None else _quote(page)}, '
            f'"source": {_JSON[self.source]}, '
            f'"surface_name": {_quote(self.surface_name)}}}\n')


def load_gender_lexicon(path) -> dict[str, Gender]:
    """First-name lexicon CSV: name, gender (m/f/ambiguous), optional weight.

    Lookup is case-exact on the capitalized NFC form. A name that repeats
    in NFC is an error naming both rows.
    """
    table: dict[str, Gender] = {}
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "gender lexicon", "name", 2):
        name = nfc(row[0].strip())
        check_unique(rows, name, row_no, "gender lexicon", "name")
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


def extract_link_mentions(record: Page, snapshot: CorpusSnapshot
                          ) -> tuple[list[PersonMention], int]:
    """One mention per outlink whose target carries the Frau/Mann category.

    Returns the mentions plus the count of outlinks skipped because the
    target is absent from the snapshot or ambiguously categorized.
    Outlinks are taken as they are: ``corpus.record_from_dict`` has
    already put them in NFC.
    """
    mentions: list[PersonMention] = []
    skipped = 0
    seen: set[str] = set()
    for title in record.outlinks:
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
        words = title.split()
        mentions.append(PersonMention(
            article_title=record.title,
            surface_name=title,
            first_name=words[0] if words else title,
            gender=Gender.F if is_f else Gender.M,
            source=Source.LINK,
            linked_page=title,
        ))
    return mentions, skipped


_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*", re.UNICODE)


def first_words(lexicon: dict[str, Gender]) -> frozenset[str]:
    """The first word of every lexicon key: the only tokens a text mention
    can start at. Build it once per lexicon and pass it to every
    ``extract_text_mentions`` call."""
    return frozenset(key.split(" ", 1)[0] for key in lexicon)


def _anchors(chunks: list[str], firsts: frozenset[str]
             ) -> list[tuple[int, str]]:
    """(chunk index, token) of every token that ends its ``str.split()``
    chunk and is in ``firsts``, in text order.

    A chunk of letters only is one token, so set membership finds those.
    Any other chunk ends on a token only when its last character is a
    token character: alphanumeric and not a decimal digit, which takes in
    ``Ⅻ`` and ``²``, token characters that ``str.isalpha()`` rejects. Only
    those chunks, each distinct one once, go through ``_WORD_RE``.
    """
    found = [(i, chunks[i])
             for i in compress(count(), map(firsts.__contains__, chunks))
             if chunks[i].isalpha()]
    tails: dict[str, str] = {}
    for chunk in set(filterfalse(str.isalpha, chunks)):
        last = chunk[-1]
        if last.isalnum() and not last.isdecimal():
            tail = _WORD_RE.findall(chunk)[-1]
            if tail in firsts:
                tails[chunk] = tail
    if tails:
        found += [(i, tails[chunks[i]])
                  for i in compress(count(), map(tails.__contains__, chunks))]
        found.sort()
    return found


def extract_text_mentions(article_title: str, plain_text: str,
                          lexicon: dict[str, Gender],
                          firsts: frozenset[str]) -> list[PersonMention]:
    """Gazetteer pass over plain text.

    Within each run of capitalized tokens, the mention starts at the first
    token that is a lexicon first name and must be followed by at least
    one more capitalized token (German capitalizes all nouns, so runs
    often begin with non-name words like "Die Reporterin"). A two-token
    lexicon entry wins over the single token (compound first names).
    Identical surface names are emitted once per article.

    Only an anchor can start a mention: a capitalized token in ``firsts``
    that ends its ``str.split()`` chunk while the next chunk starts with a
    capitalized token. From each anchor the run is walked right to its
    end; anchors inside a run that already gave a mention are skipped.
    """
    chunks = nfc(plain_text).split()
    n = len(chunks)
    mentions: list[PersonMention] = []
    seen: set[str] = set()
    end = 0  # chunks before this one lie in a run that gave a mention
    for i, token in _anchors(chunks, firsts):
        if i < end or not token[0].isupper():
            continue
        tokens = [token]
        k = i + 1
        # a run goes on while a chunk starts with a capitalized token, and
        # past the chunk while that token is all of it
        while k < n:
            chunk = chunks[k]
            if not chunk[0].isupper():
                break
            if chunk.isalpha():
                tokens.append(chunk)
            else:
                m = _WORD_RE.match(chunk)
                if m is None:
                    break
                tokens.append(m.group())
                if m.end() < len(chunk):
                    break
            k += 1
        if len(tokens) < 2:
            continue
        two = token + " " + tokens[1]
        if two in lexicon:
            first_name = two
        elif token in lexicon:
            first_name = token
        else:
            continue
        end = k
        surface = " ".join(tokens)
        if surface not in seen:
            seen.add(surface)
            mentions.append(PersonMention(
                article_title=article_title,
                surface_name=surface,
                first_name=first_name,
                gender=lexicon[first_name],
                source=Source.NAME_MATCH,
            ))
    return mentions


def merge(link_mentions: list[PersonMention],
          text_mentions: list[PersonMention]
          ) -> tuple[list[PersonMention], dict]:
    """Union one article's two routes by surface name, in the order of
    the surface names.

    A name in both becomes source=both with the link gender
    authoritative. Surface names are compared as they are: a link
    mention's is an NFC outlink title, a text mention's is made of tokens
    of NFC text. The report is a dict of counts, which add up key by key
    over several merges: link and text mentions (``n_link``, ``n_text``),
    names in both (``n_overlap``), those of them the lexicon gave a gender
    (``gender_comparisons``) and those where that gender disagreed with
    the link gender (``gender_disagreements``).
    """
    merged = {m.surface_name: m for m in link_mentions}
    comparisons = disagreements = overlap = 0
    for m in text_mentions:
        base = merged.setdefault(m.surface_name, m)
        if base is m:
            continue
        if base.source is Source.LINK:
            overlap += 1
            if m.gender is not Gender.UNKNOWN:
                comparisons += 1
                if m.gender is not base.gender:
                    disagreements += 1
        base.source = Source.BOTH

    report = {"n_link": len(link_mentions), "n_text": len(text_mentions),
              "n_overlap": overlap, "gender_comparisons": comparisons,
              "gender_disagreements": disagreements}
    return [merged[name] for name in sorted(merged)], report


def disagreement_rate(report: dict) -> float:
    """Share of a merge report's gender comparisons where the lexicon
    gender disagreed with the link gender; 0 without comparisons."""
    comparisons = report["gender_comparisons"]
    return report["gender_disagreements"] / comparisons if comparisons else 0.0


def male_ratio_and_class(n_men: int, n_women: int, band: float
                         ) -> tuple[float, BiasClass]:
    """The male ratio of ``n_men`` men and ``n_women`` women, and its
    class: equal within 0.5 +/- band from SMALL_SAMPLE_LIMIT persons up,
    and only at equal counts below; else male- or female-biased. The band
    is tested on the counts, not on the ratio (0.5 - 0.35 is
    0.15000000000000002), so swapping the counts swaps the class.

    A zero total raises ValueError; articles without any mentioned person
    are the caller's job to exclude.
    """
    total = n_men + n_women
    if total <= 0:
        raise ValueError("no mentioned persons")
    ratio = n_men / total
    if total >= SMALL_SAMPLE_LIMIT:
        equal = abs(n_men - n_women) <= 2 * band * total
    else:
        equal = n_men == n_women
    if equal:
        return ratio, BiasClass.EQUAL
    if n_men > n_women:
        return ratio, BiasClass.MALE_BIASED
    return ratio, BiasClass.FEMALE_BIASED


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
    """CSV: page_title, year. A title that repeats in NFC is an error
    naming both rows."""
    table: dict[str, int] = {}
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "birth years", "page_title", 2):
        title = nfc(row[0].strip())
        check_unique(rows, title, row_no, "birth years", "page title")
        try:
            year = int(row[1])
        except ValueError as exc:
            raise ValueError(f"birth years row {row_no}: bad year "
                             f"{row[1]!r}") from exc
        table[title] = year
    return table


def linked_birth_years(articles, snapshot: CorpusSnapshot,
                       birth_index: dict[str, int]) -> dict[str, int]:
    """``birth_index`` (page title -> year), plus the year parsed from the
    text of each page a link mention of ``articles`` can name that the
    index lacks: an existing, non-redirect page in exactly one of the
    Frau and Mann categories, whose text has a year (see
    parse_birth_year).

    The texts are read in one pass, in file order
    (``CorpusSnapshot.texts``), and each is dropped once parsed, so each
    page is parsed once however many articles link it.
    """
    years = dict(birth_index)
    persons: dict[str, Page] = {}
    for record in articles:
        for title in record.outlinks:
            page = snapshot.records.get(title)
            if (title not in years and page is not None and page.exists
                    and not page.is_redirect
                    and (FEMALE_CATEGORY in page.categories)
                    != (MALE_CATEGORY in page.categories)):
                persons[title] = page
    for page, text in snapshot.texts(persons.values()):
        year = parse_birth_year(text)
        if year is not None:
            years[page.title] = year
    return years


def annotate_birth_years(mentions: list[PersonMention],
                         birth_years: dict[str, int]) -> None:
    """Fill the birth_year of each linked mention that has none from
    ``birth_years`` (page title -> year; see linked_birth_years)."""
    for m in mentions:
        if m.birth_year is None and m.linked_page is not None:
            m.birth_year = birth_years.get(m.linked_page)


def filter_by_birth(mentions: list[PersonMention], cutoff: int
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
