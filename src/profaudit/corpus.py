"""Snapshot model of an encyclopedia: pages, redirects, categories,
outlinks, images, and plain text.

All analysis modules consume an immutable CorpusSnapshot loaded from JSON
lines; the live MediaWiki populator in :mod:`profaudit.mediawiki` is only
one way to produce such a file. Category pages are ordinary records whose
title carries the category namespace prefix; the subcategory graph is
derived from their parent categories.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field

from .text import nfc

log = logging.getLogger(__name__)

CATEGORY_PREFIX = "Kategorie:"

# category roots whose depth-limited closure defines "article about a
# profession", plus the depth limit used for validation
PROFESSION_ROOTS = ("Beruf", "Amt", "Person nach Tätigkeit")
CLOSURE_DEPTH = 5

_RECORD_FIELDS = ("title", "exists", "redirect_target", "categories",
                  "outlinks", "images", "plain_text", "page_id")


class SnapshotError(ValueError):
    pass


class RedirectCycleError(ValueError):
    pass


@dataclass
class ImageRef:
    filename: str
    width: int
    media_format: str

    def to_dict(self) -> dict:
        return {"filename": self.filename, "width": self.width,
                "media_format": self.media_format}


@dataclass
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
    category_index: dict[str, set[str]]
    subcategories: dict[str, set[str]]
    snapshot_date: str = ""

    def get(self, title: str) -> ArticleRecord | None:
        return self.records.get(nfc(title))


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


def record_from_dict(data: dict, where: str = "record") -> ArticleRecord:
    try:
        images = [ImageRef(filename=nfc(i["filename"]),
                           width=int(i["width"]),
                           media_format=str(i["media_format"]).lower())
                  for i in data.get("images") or []]
        rec = ArticleRecord(
            title=nfc(data["title"]),
            exists=bool(data.get("exists", True)),
            redirect_target=(nfc(data["redirect_target"])
                             if data.get("redirect_target") else None),
            categories={nfc(c) for c in data.get("categories") or []},
            outlinks=[nfc(o) for o in data.get("outlinks") or []],
            images=images,
            plain_text=data.get("plain_text") or "",
            page_id=data.get("page_id"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{where}: malformed record ({exc})") from exc
    _validate_record(rec, where)
    return rec


def load_snapshot(path, snapshot_date: str = "",
                  category_prefix: str = CATEGORY_PREFIX) -> CorpusSnapshot:
    """Parse a JSON-lines snapshot file, validating record invariants.

    Malformed lines fail with the line number; duplicate titles keep the
    last record and log a warning.
    """
    records: dict[str, ArticleRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"line {line_no}: invalid JSON ({exc})") from exc
            rec = record_from_dict(data, where=f"line {line_no}")
            if rec.title in records:
                log.warning("snapshot line %d: duplicate title %r, last wins",
                            line_no, rec.title)
            records[rec.title] = rec
    return build_snapshot(records, snapshot_date, category_prefix)


def build_snapshot(records: dict[str, ArticleRecord], snapshot_date: str = "",
                   category_prefix: str = CATEGORY_PREFIX) -> CorpusSnapshot:
    category_index: dict[str, set[str]] = {}
    subcategories: dict[str, set[str]] = {}
    for rec in records.values():
        for cat in rec.categories:
            category_index.setdefault(cat, set()).add(rec.title)
        if rec.title.startswith(category_prefix):
            child = rec.title[len(category_prefix):]
            for parent in rec.categories:
                subcategories.setdefault(parent, set()).add(child)
    return CorpusSnapshot(records=records, category_index=category_index,
                          subcategories=subcategories,
                          snapshot_date=snapshot_date)


def save_snapshot(snapshot: CorpusSnapshot, path) -> None:
    """Canonical JSON-lines form: sorted titles, sorted keys, NFC text."""
    with open(path, "w", encoding="utf-8") as fh:
        for title in sorted(snapshot.records):
            fh.write(json.dumps(snapshot.records[title].to_dict(),
                                ensure_ascii=False, sort_keys=True))
            fh.write("\n")


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
    known = set(snapshot.category_index) | set(snapshot.subcategories)
    for kids in snapshot.subcategories.values():
        known |= kids
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


def profession_closure(snapshot: CorpusSnapshot, depth: int = CLOSURE_DEPTH) -> set[str]:
    return category_closure(PROFESSION_ROOTS, depth, snapshot)
