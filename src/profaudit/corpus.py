"""Snapshot model of an encyclopedia: pages, redirects, categories,
outlinks, images, and plain text.

The stages that read articles (match, classify and mentions) take a
CorpusSnapshot loaded from JSON lines; the live MediaWiki populator in
:mod:`profaudit.mediawiki` is only one way to produce such a file.
Category pages are ordinary records whose title carries the category
namespace prefix; the subcategory graph is derived from their parent
categories.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field

from .artifacts import write_jsonl
from .text import nfc

log = logging.getLogger(__name__)

CATEGORY_PREFIX = "Kategorie:"

# category roots whose depth-limited closure defines "article about a
# profession"
PROFESSION_ROOTS = ("Beruf", "Amt", "Person nach Tätigkeit")

# decodes every snapshot line; see load_snapshot
_DECODER = json.JSONDecoder()


class SnapshotError(ValueError):
    pass


class RedirectCycleError(ValueError):
    pass


@dataclass(slots=True)
class ImageRef:
    filename: str
    width: int
    media_format: str

    def to_dict(self) -> dict:
        return {"filename": self.filename, "width": self.width,
                "media_format": self.media_format}


@dataclass(slots=True)
class ArticleRecord:
    title: str
    exists: bool = True
    redirect_target: str | None = None
    categories: set[str] = field(default_factory=set)
    outlinks: list[str] = field(default_factory=list)
    images: list[ImageRef] = field(default_factory=list)
    plain_text: str = ""
    page_id: int | None = None

    @property
    def is_redirect(self) -> bool:
        return self.redirect_target is not None

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "exists": self.exists,
            "redirect_target": self.redirect_target,
            "categories": sorted(self.categories),
            "outlinks": list(self.outlinks),
            "images": [i.to_dict() for i in self.images],
            "plain_text": self.plain_text,
            "page_id": self.page_id,
        }


@dataclass
class ResolvedPage:
    final_title: str
    hops: int
    chain: list[str]
    exists: bool
    record: ArticleRecord | None = None


@dataclass
class CorpusSnapshot:
    records: dict[str, ArticleRecord]
    subcategories: dict[str, set[str]]


def _validate_record(rec: ArticleRecord, where: str) -> None:
    for img in rec.images:
        if img.width < 0:
            raise SnapshotError(f"{where}: negative image width for "
                                f"{img.filename!r}")
        if not img.media_format:
            raise SnapshotError(f"{where}: empty media format for "
                                f"{img.filename!r}")
    if rec.is_redirect and rec.plain_text:
        raise SnapshotError(f"{where}: redirect {rec.title!r} carries text")
    if not rec.exists:
        if (rec.redirect_target or rec.categories or rec.outlinks
                or rec.images or rec.plain_text):
            raise SnapshotError(f"{where}: missing page {rec.title!r} has "
                                "content fields")


# fields a wrong type would pass through unnoticed: a string iterates as
# its characters, and plain text is stored as it is
_FIELD_TYPES = (("categories", list), ("outlinks", list), ("plain_text", str))


def record_from_dict(data: dict, where: str = "record") -> ArticleRecord:
    """An ArticleRecord from one decoded snapshot line, in NFC.

    A line that is not a JSON object, or a field of the wrong type (a
    string where a list belongs, a number where text belongs, anything but
    true or false for ``exists``, anything but an integer or null for
    ``page_id``), raises SnapshotError naming ``where`` and the field. A
    missing ``exists`` means the page exists.
    """
    if type(data) is not dict:
        raise SnapshotError(f"{where}: expected a JSON object, got "
                            f"{type(data).__name__}")
    categories = data.get("categories") or []
    outlinks = data.get("outlinks") or []
    plain_text = data.get("plain_text") or ""
    if (type(categories) is not list or type(outlinks) is not list
            or type(plain_text) is not str):
        for key, kind in _FIELD_TYPES:
            value = data.get(key)
            if value and not isinstance(value, kind):
                raise SnapshotError(
                    f"{where}: field {key!r} must be a {kind.__name__}, "
                    f"got {type(value).__name__}")
    exists = data.get("exists", True)
    if type(exists) is not bool:
        raise SnapshotError(f"{where}: field 'exists' must be a bool, got "
                            f"{type(exists).__name__}")
    page_id = data.get("page_id")
    if page_id is not None and type(page_id) is not int:
        raise SnapshotError(f"{where}: field 'page_id' must be an int or "
                            f"null, got {type(page_id).__name__}")
    key = "images"
    try:
        # most pages have no images and no outlinks: skip those
        # comprehensions, each a function call
        images = data.get("images")
        images = [ImageRef(filename=nfc(i["filename"]),
                           width=int(i["width"]),
                           media_format=str(i["media_format"]).lower())
                  for i in images] if images else []
        key = "title"
        title = nfc(data["title"])
        key = "redirect_target"
        redirect_target = data.get("redirect_target")
        if redirect_target:
            redirect_target = nfc(redirect_target)
        key = "categories"
        categories = {nfc(c) for c in categories}
        key = "outlinks"
        outlinks = [nfc(o) for o in outlinks] if outlinks else []
    except KeyError as exc:
        raise SnapshotError(f"{where}: field {key!r}: missing key "
                            f"{exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{where}: field {key!r}: {exc}") from exc
    rec = ArticleRecord(
        title=title,
        exists=exists,
        redirect_target=redirect_target or None,
        categories=categories,
        outlinks=outlinks,
        images=images,
        plain_text=plain_text,
        page_id=page_id,
    )
    _validate_record(rec, where)
    return rec


def load_snapshot(path) -> CorpusSnapshot:
    """Parse a JSON-lines snapshot file, validating record invariants.

    Malformed lines fail with the line number; duplicate titles keep the
    last record and log a warning.

    Each stripped line is decoded on its own, by one ``raw_decode`` call
    without the whitespace scans of ``json.loads``. A line that call does
    not read whole goes to ``json.loads``, which rejects it with its own
    message. Lines are not decoded in chunks: two malformed lines can join
    into valid JSON with the right number of values (``{"t": [1`` then
    ``2]}, {}``), so a chunk that decodes would still need checking line
    by line.
    """
    records: dict[str, ArticleRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):
                # a stripped line raw_decode does not read whole fails in
                # json.loads too, with json.loads' own message
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SnapshotError(f"snapshot line {line_no}: invalid "
                                        f"JSON ({exc})") from exc
            rec = record_from_dict(data, where=f"snapshot line {line_no}")
            if rec.title in records:
                log.warning("snapshot line %d: duplicate title %r, last wins",
                            line_no, rec.title)
            records[rec.title] = rec
    return build_snapshot(records)


def build_snapshot(records: dict[str, ArticleRecord]) -> CorpusSnapshot:
    subcategories: dict[str, set[str]] = {}
    for rec in records.values():
        if rec.title.startswith(CATEGORY_PREFIX):
            child = rec.title[len(CATEGORY_PREFIX):]
            for parent in rec.categories:
                subcategories.setdefault(parent, set()).add(child)
    return CorpusSnapshot(records=records, subcategories=subcategories)


def save_snapshot(snapshot: CorpusSnapshot, path) -> None:
    """Canonical JSON-lines form: sorted titles, sorted keys, NFC text."""
    write_jsonl(path, (snapshot.records[title].to_dict()
                       for title in sorted(snapshot.records)))


def resolve(title: str, snapshot: CorpusSnapshot) -> ResolvedPage:
    """Follow the redirect chain from a title to its final page.

    hops = 0 for direct articles and missing pages; a cycle raises
    RedirectCycleError listing the chain.
    """
    current = nfc(title)
    chain = [current]
    seen = {current}
    hops = 0
    while True:
        rec = snapshot.records.get(current)
        if rec is None or not rec.exists:
            return ResolvedPage(final_title=current, hops=hops, chain=chain,
                                exists=False, record=None)
        if not rec.is_redirect:
            return ResolvedPage(final_title=current, hops=hops, chain=chain,
                                exists=True, record=rec)
        target = rec.redirect_target
        if target in seen:
            raise RedirectCycleError(
                "redirect cycle: " + " -> ".join(chain + [target]))
        chain.append(target)
        seen.add(target)
        current = target
        hops += 1


def category_closure(roots, depth: int, snapshot: CorpusSnapshot) -> set[str]:
    """Categories reachable from the roots within ``depth`` subcategory
    levels (breadth-first, cycle-safe). Unknown roots are warned about and
    contribute nothing."""
    if depth < 0:
        raise ValueError("category_closure: depth must be >= 0")
    # every category some page is in, and every category page with a parent
    known = set().union(*(rec.categories
                          for rec in snapshot.records.values()),
                        *snapshot.subcategories.values())
    closure: set[str] = set()
    queue: deque[tuple[str, int]] = deque()
    for root in roots:
        root = nfc(root)
        if root not in known:
            log.warning("unknown root category %r treated as empty", root)
            continue
        if root not in closure:
            closure.add(root)
            queue.append((root, 0))
    while queue:
        cat, level = queue.popleft()
        if level >= depth:
            continue
        for child in snapshot.subcategories.get(cat, ()):
            if child not in closure:
                closure.add(child)
                queue.append((child, level + 1))
    return closure


def is_profession_article(record: ArticleRecord, closure: set[str]) -> bool:
    return bool(record.categories & closure)
