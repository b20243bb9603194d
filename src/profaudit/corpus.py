"""Snapshot model of an encyclopedia: pages, redirects, categories,
outlinks, images, and plain text.

The stages that read articles (match, classify and mentions) take a
CorpusSnapshot loaded from JSON lines; the live MediaWiki populator in
:mod:`profaudit.mediawiki` is only one way to produce such a file.
Category pages are ordinary records whose title carries the category
namespace prefix; the subcategory graph is derived from their parent
categories.

Records are immutable in their collection fields: ``categories`` is a
frozenset of names, ``outlinks`` and ``images`` are tuples. One load shares
them: records with equal category sets hold the same frozenset, each
category name is one string object, and every empty ``outlinks`` or
``images`` is the one empty tuple. Most person pages repeat one of a few
category sets and link nowhere, so a snapshot made mostly of them takes
about half the memory it would with a set and two lists per record.
Page names are shared too: every outlink and redirect target that names a
page of the snapshot is that page's own ``title`` object, so a page name is
one string however many links name it. A load shares each line's names as
it parses the line, so no link holds a string of its own until the end.

Page text stays in the file. A loaded record holds, in place of its text,
the byte offset of its line, and ``CorpusSnapshot.texts`` reads the texts
of given records back, in file order through one open file. Only the
mentions stage reads text, and only for the pages it reaches, so on a
snapshot made mostly of long person pages the text never read is never
held. The snapshot records its file's size, modification time and inode
at the load; a file changed since then is refused, with a SnapshotError
naming it, rather than read at stale offsets. This module is the only one
that knows the file format. Records built in memory, by the MediaWiki
populator or a test, hold their text. A line's ``page_id`` is type-checked
and dropped: no stage reads it, and ``save_snapshot`` writes none.

A loaded record is one of two kinds, which read alike. A page that exists
and has no outlinks and no images, as a person page or a redirect does, is
a Page, whose four slots take 64 bytes; any other page is an
ArticleRecord, whose seven take 96 (see Page for why four). Nearly every
page of a snapshot is a Page: 15,173 of the 15,208 of the benchmark's
``corpus`` snapshot at seed 7, which loads in 3.18 MB, traced, where
seven slots a page took 3.55 MB.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque, namedtuple
from operator import attrgetter

from .artifacts import write_jsonl
from .text import nfc

log = logging.getLogger(__name__)

CATEGORY_PREFIX = "Kategorie:"

# category roots whose depth-limited closure defines "article about a
# profession"
PROFESSION_ROOTS = ("Beruf", "Amt", "Person nach Tätigkeit")

# decodes every snapshot line; see load_snapshot
_DECODER = json.JSONDecoder()

# the categories of every record that has none
_NO_CATEGORIES: frozenset[str] = frozenset()


class SnapshotError(ValueError):
    pass


# one image of a page; ``media_format`` is lower case
ImageRef = namedtuple("ImageRef", "filename width media_format")


class Page:
    """A page of a loaded snapshot that exists and has no outlinks and no
    images: a person page or a redirect, as nearly every page of one is.

    Its class supplies ``exists`` (True), ``outlinks`` and ``images`` (the
    empty tuple), so it keeps four fields in slots. With the object and
    collector headers that is 64 bytes, where ArticleRecord's seven take
    88, which the allocator rounds up to 96 as it does every block to a
    multiple of 16. Fewer slots would not help: three also take 64 bytes,
    so splitting redirects from text pages saves nothing. Only a load
    makes Pages (see record_from_dict); code that builds a record makes an
    ArticleRecord, which is a Page too.

    ``categories`` is a frozenset of names. It is immutable because a
    loaded snapshot shares it between records (see load_snapshot).

    ``plain_text`` is the page's text, or "" when it has none. A record
    loaded from a file holds the byte offset of its line there instead of
    a text; read texts through CorpusSnapshot.texts, which takes either.
    A record has no ``page_id``; a snapshot line's is checked, not kept.
    """
    __slots__ = ("title", "redirect_target", "categories", "plain_text")

    exists = True
    outlinks: tuple[str, ...] = ()
    images: tuple[ImageRef, ...] = ()

    @property
    def is_redirect(self) -> bool:
        return self.redirect_target is not None

    def to_dict(self) -> dict:
        """The record's fields; ``plain_text`` as it is held (see above)."""
        return {
            "title": self.title,
            "exists": self.exists,
            "redirect_target": self.redirect_target,
            "categories": sorted(self.categories),
            "outlinks": list(self.outlinks),
            "images": [i._asdict() for i in self.images],
            "plain_text": self.plain_text,
        }


class ArticleRecord(Page):
    """Any page: a Page with ``exists``, ``outlinks`` and ``images`` of its
    own. A load makes one for a page that is missing or has outlinks or
    images; the MediaWiki populator and tests make one for every page.

    ``outlinks`` is a tuple of titles and ``images`` a tuple of ImageRefs,
    immutable as ``categories`` is.
    """
    __slots__ = ("exists", "outlinks", "images")

    def __init__(self, title: str, exists: bool = True,
                 redirect_target: str | None = None,
                 categories: frozenset[str] = _NO_CATEGORIES,
                 outlinks: tuple[str, ...] = (),
                 images: tuple[ImageRef, ...] = (),
                 plain_text: str = ""):
        self.title = title
        self.exists = exists
        self.redirect_target = redirect_target
        # frozenset() of a frozenset is that same object
        self.categories = frozenset(categories)
        self.outlinks = outlinks
        self.images = images
        self.plain_text = plain_text


# the file a snapshot was loaded from, and its os.stat fields at the load
_Source = namedtuple("_Source", "path size mtime_ns inode")


class CorpusSnapshot:
    """The pages of a snapshot by title, and the subcategory graph of its
    category pages. ``source`` names the file a loaded snapshot's texts
    are read back from; it is None for a snapshot built in memory."""
    __slots__ = ("records", "subcategories", "source")

    def __init__(self, records: dict[str, Page],
                 subcategories: dict[str, set[str]],
                 source: _Source | None = None):
        self.records = records
        self.subcategories = subcategories
        self.source = source

    def texts(self, records):
        """``(record, text)`` for each of ``records``, pages of this
        snapshot: first those that hold their text, in the order given,
        then those loaded from the file, in file order, read through one
        open file and decoded a line at a time. Texts are not kept, so a
        caller that drops each one holds one at a time.

        The file must be as it was at the load: a changed size,
        modification time or inode, or a file that cannot be opened,
        raises SnapshotError naming it.
        """
        pending = []
        for rec in records:
            if type(rec.plain_text) is str:
                yield rec, rec.plain_text
            else:
                pending.append(rec)
        if not pending:
            return
        if self.source is None:
            raise SnapshotError(f"page {pending[0].title!r} was loaded from a "
                                f"file, and this snapshot names none")
        pending.sort(key=attrgetter("plain_text"))
        path = self.source.path
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise SnapshotError(f"snapshot {path} cannot be read again for "
                                f"its texts: {exc.strerror}") from None
        with fh:
            stat = os.fstat(fh.fileno())
            if (path, stat.st_size, stat.st_mtime_ns,
                    stat.st_ino) != self.source:
                raise SnapshotError(f"snapshot {path} changed after it was "
                                    f"loaded; run again")
            for rec in pending:
                fh.seek(rec.plain_text)
                yield rec, _DECODER.raw_decode(
                    fh.readline().decode().strip())[0]["plain_text"]


# fields a wrong type would pass through unnoticed: a string iterates as
# its characters, and plain text is stored as it is
_FIELD_TYPES = (("categories", list), ("outlinks", list), ("images", list),
                ("plain_text", str))


def _field_type_error(data: dict, line_no: int) -> SnapshotError:
    """The error for the first field of ``data`` whose type is wrong."""
    for key, kind in _FIELD_TYPES:
        value = data.get(key)
        if value and type(value) is not kind:
            return SnapshotError(
                f"snapshot line {line_no}: field {key!r} must be a "
                f"{kind.__name__}, got {type(value).__name__}")
    exists = data.get("exists", True)
    if type(exists) is not bool:
        return SnapshotError(f"snapshot line {line_no}: field 'exists' must "
                             f"be a bool, got {type(exists).__name__}")
    return SnapshotError(f"snapshot line {line_no}: field 'page_id' must be "
                         f"an int or null, got "
                         f"{type(data['page_id']).__name__}")


def record_from_dict(data: dict, line_no: int, *, at: int,
                     shared: tuple[dict, dict]) -> Page:
    """The record of line ``line_no`` of a snapshot, decoded; ``at`` is the
    line's byte offset in the file. It is a Page when the page exists and
    has no outlinks and no images, and an ArticleRecord otherwise.

    The title, the redirect target, the category names, the outlinks and
    the image filenames are put in NFC. A page's text is not kept: a page
    with text stores ``at`` in ``plain_text`` instead, and
    CorpusSnapshot.texts reads the text back from the line when it is
    needed. Only :mod:`profaudit.mentions` reads text, and normalizes it
    there.

    ``shared`` is a pair of tables that map each category name, and each
    category frozenset, already built to itself. The record takes an equal
    set from them instead of a new one; a set not seen before is built
    from the table's names and added, with its new names. load_snapshot
    passes one pair for a whole file. Each name is normalized, which
    rejects anything but a string, before it is hashed, so an unhashable
    category fails like any other bad value.

    A line that is not a JSON object, a field of the wrong type (a string
    where a list belongs, a number where text belongs, anything but true
    or false for ``exists``, anything but an integer or null for
    ``page_id``, an image width that is not an integer or a media format
    that is not a string), or a record that breaks an invariant (an image of
    negative width or no media format, a redirect with text, a missing
    page with content) raises SnapshotError naming the line and the
    field. A missing ``exists`` means the page exists, and a valid
    ``page_id`` is dropped. Every type is tested at once, and an error's
    message is built only when a test fails: a valid record, which every
    line of a good snapshot is, never needs one.
    """
    if type(data) is not dict:
        raise SnapshotError(f"snapshot line {line_no}: expected a JSON "
                            f"object, got {type(data).__name__}")
    categories = data.get("categories") or []
    outlinks = data.get("outlinks") or []
    images = data.get("images") or []
    text = data.get("plain_text") or ""
    exists = data.get("exists", True)
    page_id = data.get("page_id")
    if (type(categories) is not list or type(outlinks) is not list
            or type(images) is not list or type(text) is not str
            or type(exists) is not bool
            or (page_id is not None and type(page_id) is not int)):
        raise _field_type_error(data, line_no)
    names, sets = shared
    key = "images"
    try:
        # most pages have no images and no outlinks: skip building those
        images = tuple(map(_image_ref, images)) if images else ()
        key = "title"
        title = nfc(data["title"])
        key = "redirect_target"
        redirect_target = data.get("redirect_target")
        redirect_target = nfc(redirect_target) if redirect_target else None
        key = "categories"
        if categories:
            found = frozenset(map(nfc, categories))
            categories = sets.get(found)
            if categories is None:
                categories = frozenset(map(names.setdefault, found, found))
                sets[categories] = categories
        else:
            categories = _NO_CATEGORIES
        key = "outlinks"
        outlinks = tuple(map(nfc, outlinks)) if outlinks else ()
    except KeyError as exc:
        raise SnapshotError(f"snapshot line {line_no}: field {key!r}: "
                            f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot line {line_no}: field {key!r}: "
                            f"{exc}") from exc
    for img in images:
        if img.width < 0:
            raise SnapshotError(f"snapshot line {line_no}: negative image "
                                f"width for {img.filename!r}")
        if not img.media_format:
            raise SnapshotError(f"snapshot line {line_no}: empty media "
                                f"format for {img.filename!r}")
    if text and redirect_target is not None:
        raise SnapshotError(f"snapshot line {line_no}: redirect "
                            f"{title!r} carries text")
    if not exists and (redirect_target is not None or categories or outlinks
                       or images or text):
        raise SnapshotError(f"snapshot line {line_no}: missing page "
                            f"{title!r} has content fields")
    # object.__new__: every slot is set below
    if outlinks or images or not exists:
        rec = object.__new__(ArticleRecord)
        rec.exists = exists
        rec.outlinks = outlinks
        rec.images = images
    else:
        rec = object.__new__(Page)
    rec.title = title
    rec.redirect_target = redirect_target
    rec.categories = categories
    rec.plain_text = at if text else ""
    return rec


def _image_ref(data: dict) -> ImageRef:
    """One image of a snapshot line; a wrong value raises TypeError."""
    filename = nfc(data["filename"])
    width, media_format = data["width"], data["media_format"]
    if type(width) is not int:
        raise TypeError(f"invalid image {filename!r}: width must be an int, "
                        f"got {type(width).__name__}")
    if type(media_format) is not str:
        raise TypeError(f"invalid image {filename!r}: media format must be a "
                        f"str, got {type(media_format).__name__}")
    return ImageRef(filename, width, media_format.lower())


def load_snapshot(path) -> CorpusSnapshot:
    """Parse a JSON-lines snapshot file, validating record invariants.

    Lines end at a line feed; whitespace around a line, a carriage return
    included, is ignored. Malformed lines, bytes that are not UTF-8 and a
    repeated title fail with the line number; a repeated title names the
    line of its first record too, found by reading the file again.

    Page texts stay in the file: each page with text keeps its line's byte
    offset, and the snapshot keeps the file's path, size, modification
    time and inode, so CorpusSnapshot.texts can read the texts back, and
    refuse to once the file has changed.

    Page names are shared as each record is read: an outlink or redirect
    target that names a page already read becomes that page's ``title``,
    and any other name goes into a table of pending names (name -> itself),
    whose string a page read later takes as its ``title``.

    Two more tables, kept only for this call, share equal category
    frozensets and category names (see record_from_dict). A set is its own
    key, where a key made from the raw list would be one more object per
    set, and names have a table of their own, because a dict whose keys
    are all strings stores an entry in 16 bytes instead of 24.

    Each stripped line is decoded on its own, by one ``raw_decode`` call
    without the whitespace scans of ``json.loads``. A line that call does
    not read whole goes to ``json.loads``, which rejects it with its own
    message. Lines are not decoded in chunks: two malformed lines can join
    into valid JSON with the right number of values (``{"t": [1`` then
    ``2]}, {}``), so a chunk that decodes would still need checking line
    by line.
    """
    records: dict[str, Page] = {}
    get = records.get
    shared: tuple[dict, dict] = ({}, {})
    pending: dict[str, str] = {}
    category_pages: list[Page] = []
    end_at = 0  # byte offset of the end of the lines read so far
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        for line_no, raw in enumerate(fh, start=1):
            at, end_at = end_at, end_at + len(raw)
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                raise SnapshotError(
                    f"snapshot line {line_no}: byte 0x{raw[exc.start]:02x} "
                    f"is not UTF-8, in {path}") from None
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
            rec = record_from_dict(data, line_no, at=at, shared=shared)
            if get(rec.title) is not None:
                raise SnapshotError(
                    f"snapshot line {line_no}: duplicate title {rec.title!r} "
                    f"(first on line {_first_line(path, rec.title)})")
            rec.title = pending.pop(rec.title, rec.title)
            records[rec.title] = rec
            _share_names(rec, get, pending)
            if rec.title.startswith(CATEGORY_PREFIX):
                category_pages.append(rec)
    return CorpusSnapshot(records, _subcategories(category_pages),
                          _Source(path, stat.st_size, stat.st_mtime_ns,
                                  stat.st_ino))


def _first_line(path, title: str) -> int:
    """The number of the first line of a snapshot file whose record has
    ``title``; every line up to it is known to decode."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.decode().strip()
            if line and nfc(json.loads(line)["title"]) == title:
                return line_no


def build_snapshot(records: dict[str, Page]) -> CorpusSnapshot:
    """The snapshot of ``records`` (title -> record) built in memory, with
    its page names shared as a load shares them; only object identity
    changes, never a value."""
    get, names = records.get, {}
    for rec in records.values():
        _share_names(rec, get, names)
    return CorpusSnapshot(records, _subcategories(records.values()))


def _share_names(rec: Page, get, pending: dict[str, str]) -> None:
    """Make each outlink and the redirect target of ``rec`` the ``title`` of
    the page ``get`` finds for it, or else the string ``pending`` holds."""
    if rec.outlinks:
        rec.outlinks = tuple([page.title if (page := get(name))
                              else pending.setdefault(name, name)
                              for name in rec.outlinks])
    if (target := rec.redirect_target) is not None:
        page = get(target)
        rec.redirect_target = (page.title if page
                               else pending.setdefault(target, target))


def _subcategories(pages) -> dict[str, set[str]]:
    """Parent -> children: the subcategory graph of the category pages."""
    graph: dict[str, set[str]] = {}
    for rec in pages:
        if rec.title.startswith(CATEGORY_PREFIX):
            child = rec.title[len(CATEGORY_PREFIX):]
            for parent in rec.categories:
                graph.setdefault(parent, set()).add(child)
    return graph


def save_snapshot(snapshot: CorpusSnapshot, path) -> None:
    """Canonical JSON-lines form: titles sorted, keys sorted, no page_id.
    Texts are written as they are held, a loaded snapshot's read back from
    its file; nothing here puts them in NFC (``load_snapshot`` does for
    names, and ``mentions`` for the text it scans)."""
    records = snapshot.records
    texts = dict(snapshot.texts(records.values()))
    write_jsonl(path, (dict(rec.to_dict(), plain_text=texts[rec])
                       for rec in map(records.__getitem__, sorted(records))))


def resolve(title: str, snapshot: CorpusSnapshot) -> str | None:
    """The title a redirect chain from ``title`` ends at: the first title
    that is an article or no page of the snapshot, or None for a chain that
    runs in a cycle. ``title`` must be in NFC, as the snapshot's titles
    are; it is not normalized here."""
    seen = set()
    while True:
        rec = snapshot.records.get(title)
        if rec is None or not rec.exists or not rec.is_redirect:
            return title
        if title in seen:
            return None
        seen.add(title)
        title = rec.redirect_target


def category_closure(roots, depth: int, snapshot: CorpusSnapshot) -> set[str]:
    """Categories reachable from the roots within ``depth`` subcategory
    levels (breadth-first, cycle-safe). Unknown roots are warned about and
    contribute nothing."""
    if depth < 0:
        raise ValueError("category_closure: depth must be >= 0")
    # every category some page is in, and every category page with a parent
    known = set().union(*_category_sets(snapshot),
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


def _category_sets(snapshot: CorpusSnapshot) -> set[frozenset[str]]:
    """The distinct category sets of the pages: a few hundred where the
    pages number tens of thousands, as a load shares equal sets."""
    return set(map(attrgetter("categories"), snapshot.records.values()))


def is_profession_article(record: Page, closure: set[str]) -> bool:
    return not record.categories.isdisjoint(closure)


def profession_articles(snapshot: CorpusSnapshot, closure: set[str]
                        ) -> list[str]:
    """Sorted titles of the existing, non-redirect pages in a category of
    ``closure``; membership is decided once per distinct category set."""
    inside = {categories for categories in _category_sets(snapshot)
              if not categories.isdisjoint(closure)}
    return sorted(rec.title for rec in snapshot.records.values()
                  if rec.categories in inside and rec.exists
                  and not rec.is_redirect)
