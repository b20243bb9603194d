import json
import random
import re
import tracemalloc
import unicodedata

import pytest
from oracles import load_snapshot_json_loads

from profaudit import corpus
from profaudit.corpus import (ArticleRecord, ImageRef, SnapshotError,
                              build_snapshot)


def rec(title, **kw):
    return ArticleRecord(title=title, **kw)


def make_snapshot(records):
    return build_snapshot({r.title: r for r in records})


def text(snapshot, title):
    """The text of a page, read through CorpusSnapshot.texts."""
    [(_, got)] = snapshot.texts([snapshot.records[title]])
    return got


def with_texts(snapshot):
    """(title, to_dict()) of every page, with its text read through
    CorpusSnapshot.texts."""
    texts = dict(snapshot.texts(snapshot.records.values()))
    return [(title, dict(rec.to_dict(), plain_text=texts[rec]))
            for title, rec in snapshot.records.items()]


def write_jsonl(path, dicts):
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json.dumps(d, ensure_ascii=False) + "\n")


class TestLoad:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_text("", encoding="utf-8")
        snap = corpus.load_snapshot(p)
        assert snap.records == {}

    def test_redirect_pair_resolvable(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [
            {"title": "Lehrer", "exists": True, "plain_text": "Text."},
            {"title": "Lehrerin", "exists": True, "redirect_target": "Lehrer"},
        ])
        snap = corpus.load_snapshot(p)
        assert corpus.resolve("Lehrerin", snap) == "Lehrer"

    def test_negative_width_rejected(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "X", "images": [
            {"filename": "a.jpg", "width": -5, "media_format": "jpg"}]}])
        with pytest.raises(SnapshotError, match="line 1"):
            corpus.load_snapshot(p)

    def test_non_utf8_line_names_line_and_file(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_bytes('{"title": "A"}\n{"title": "Bär"}\n'.encode("latin-1"))
        with pytest.raises(SnapshotError) as info:
            corpus.load_snapshot(p)
        assert str(info.value) == (f"snapshot line 2: byte 0xe4 is not "
                                   f"UTF-8, in {p}")

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_text('{"title": "A"}\n{broken\n', encoding="utf-8")
        with pytest.raises(SnapshotError, match="line 2"):
            corpus.load_snapshot(p)

    @pytest.mark.parametrize("line", [
        '{"title": "B"} \t {"title": "C"}',
        '\ufeff{"title": "B"}', '{"title": "B",}', '{"title": "B"', "{]",
        '{"title": "B"} x'])
    def test_invalid_line_fails_as_json_loads_does(self, tmp_path, line):
        p = tmp_path / "snap.jsonl"
        p.write_text('{"title": "A"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as loads_error:
            json.loads(line)
        with pytest.raises(SnapshotError) as raised:
            corpus.load_snapshot(p)
        assert str(raised.value) == (f"snapshot line 2: invalid JSON "
                                     f"({loads_error.value})")

    def test_two_objects_on_one_line(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_text('{"title": "A"} {"title": "B"}\n', encoding="utf-8")
        with pytest.raises(SnapshotError,
                           match=r"^snapshot line 1: invalid JSON \(Extra "
                                 r"data: line 1 column 16 \(char 15\)\)$"):
            corpus.load_snapshot(p)

    def test_lines_that_join_into_valid_json_fail_at_the_first(self,
                                                               tmp_path):
        # joined as one array, these two lines decode as two objects
        lines = ['{"t": [1', '2]}, {}']
        assert len(json.loads("[" + ",".join(lines) + "]")) == 2
        p = tmp_path / "snap.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SnapshotError,
                           match=r"^snapshot line 1: invalid JSON \("):
            corpus.load_snapshot(p)

    def test_blank_lines_keep_the_line_number(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_text('{"title": "A"}\n\n \t \n{broken\n', encoding="utf-8")
        with pytest.raises(SnapshotError,
                           match=r"^snapshot line 4: invalid JSON \("):
            corpus.load_snapshot(p)

    def test_crlf_lines_load(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        p.write_bytes(b'{"title": "A", "plain_text": "a"}\r\n\r\n'
                      b'{"title": "B", "redirect_target": "A"}\r\n')
        snapshot = corpus.load_snapshot(p)
        records = snapshot.records
        assert list(records) == ["A", "B"]
        assert text(snapshot, "A") == "a"
        assert records["B"].redirect_target == "A"

    @pytest.mark.parametrize("line", ["[1, 2]", '"Anna"', "5", "null"])
    def test_non_object_line_names_line(self, tmp_path, line):
        p = tmp_path / "snap.jsonl"
        p.write_text('{"title": "A"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(SnapshotError,
                           match="^snapshot line 2: expected a JSON object"):
            corpus.load_snapshot(p)

    @pytest.mark.parametrize("field, value", [
        ("categories", "Frau"), ("outlinks", "Anna Meier"),
        ("plain_text", 5), ("plain_text", ["Text."]),
        ("categories", {"Frau": 1})])
    def test_wrong_field_type_names_line_and_field(self, tmp_path, field,
                                                   value):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A"}, {"title": "B", field: value}])
        with pytest.raises(SnapshotError,
                           match=f"^snapshot line 2: field '{field}' must be"):
            corpus.load_snapshot(p)

    @pytest.mark.parametrize("record, field", [
        ({"plain_text": "x"}, "title"), ({"title": 5}, "title"),
        ({"title": "A", "redirect_target": 5}, "redirect_target"),
        ({"title": "A", "categories": ["Frau", 5]}, "categories"),
        ({"title": "A", "outlinks": [None]}, "outlinks"),
        ({"title": "A", "images": "a.jpg"}, "images"),
        ({"title": "A", "images": [{"filename": "a.jpg"}]}, "images"),
        ({"title": "A", "categories": ["Frau", ["x"]]}, "categories")])
    def test_bad_field_value_names_field(self, tmp_path, record, field):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [record])
        with pytest.raises(SnapshotError,
                           match=f"^snapshot line 1: field '{field}'"):
            corpus.load_snapshot(p)

    @pytest.mark.parametrize("record, message", [
        ({"plain_text": "x"}, "field 'title': missing key 'title'"),
        ({"title": "A", "images": [{"filename": "a.jpg", "width": "w",
                                    "media_format": "jpg"}]},
         "field 'images': invalid literal for int() with base 10: 'w'"),
        ({"title": "A", "images": [{"filename": "a.jpg", "width": -5,
                                    "media_format": "jpg"}]},
         "negative image width for 'a.jpg'"),
        ({"title": "A", "images": [{"filename": "a.jpg", "width": 5,
                                    "media_format": ""}]},
         "empty media format for 'a.jpg'"),
        ({"title": "A", "redirect_target": "B", "plain_text": "x"},
         "redirect 'A' carries text"),
        ({"title": "A", "exists": False, "outlinks": ["B"]},
         "missing page 'A' has content fields")])
    def test_bad_record_after_line_one_names_its_line(self, tmp_path, record,
                                                      message):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "X"}, {"title": "Y"}, record])
        with pytest.raises(SnapshotError) as raised:
            corpus.load_snapshot(p)
        assert str(raised.value) == f"snapshot line 3: {message}"

    @pytest.mark.parametrize("field, value, kind", [
        ("exists", "false", "str"), ("exists", 0, "int"),
        ("exists", None, "NoneType"), ("page_id", "x", "str"),
        ("page_id", 1.5, "float"), ("page_id", True, "bool")])
    def test_exists_and_page_id_types_name_line_and_field(
            self, tmp_path, field, value, kind):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A"}, {"title": "B", field: value}])
        with pytest.raises(SnapshotError,
                           match=f"^snapshot line 2: field '{field}' must be "
                                 f".*, got {kind}$"):
            corpus.load_snapshot(p)

    def test_missing_exists_means_the_page_exists(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A", "page_id": 7},
                        {"title": "B", "exists": False}])
        records = corpus.load_snapshot(p).records
        assert (records["A"].exists, records["B"].exists) == (True, False)
        assert not hasattr(records["A"], "page_id")

    def test_page_id_loads_and_is_not_saved(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A", "page_id": 7, "plain_text": "a"},
                        {"title": "B", "page_id": None}])
        snapshot = corpus.load_snapshot(p)
        assert text(snapshot, "A") == "a"
        saved = tmp_path / "canon.jsonl"
        corpus.save_snapshot(snapshot, saved)
        lines = [json.loads(line) for line in
                 saved.read_text(encoding="utf-8").splitlines()]
        assert [line["title"] for line in lines] == ["A", "B"]
        assert not any("page_id" in line for line in lines)

    def test_empty_values_still_load(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A", "categories": None, "outlinks": [],
                         "images": None, "plain_text": None,
                         "redirect_target": ""}])
        snapshot = corpus.load_snapshot(p)
        rec = snapshot.records["A"]
        got = (rec.categories, rec.outlinks, rec.images, text(snapshot, "A"),
               rec.redirect_target)
        assert got == (frozenset(), (), (), "", None)
        assert ([type(value) for value in got]
                == [frozenset, tuple, tuple, str, type(None)])

    @pytest.mark.parametrize("first, repeat", [
        ({"title": "Ärztin", "plain_text": "first"},
         {"title": unicodedata.normalize("NFD", "Ärztin"),
          "plain_text": "second"}),
        ({"title": "Kategorie:Arzt", "categories": ["Beruf", "Medizin"]},
         {"title": "Kategorie:Arzt", "categories": ["Beruf", "Person"]}),
    ], ids=["article", "category_page"])
    def test_duplicate_title_names_both_lines(self, tmp_path, first, repeat):
        # titles are compared in NFC; the blank line is counted
        p = tmp_path / "snap.jsonl"
        records = [{"title": "A"}, None, first,
                   {"title": "Kategorie:Medizin", "categories": ["Wissenschaft"]},
                   repeat]
        p.write_text("".join(json.dumps(record) + "\n" if record else "\n"
                             for record in records), encoding="utf-8")
        with pytest.raises(SnapshotError, match=(
                rf"^snapshot line 5: duplicate title '{first['title']}' "
                rf"\(first on line 3\)$")):
            corpus.load_snapshot(p)

    def test_redirect_with_text_rejected(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A", "redirect_target": "B",
                         "plain_text": "oops"}])
        with pytest.raises(SnapshotError):
            corpus.load_snapshot(p)

    def test_round_trip_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "snap.jsonl"
        write_jsonl(p1, [
            {"title": "Zebra", "categories": ["B", "A"], "plain_text": "z"},
            {"title": "Ärztin", "exists": True, "plain_text": "ä"},
        ])
        snap = corpus.load_snapshot(p1)
        p2 = tmp_path / "canon1.jsonl"
        p3 = tmp_path / "canon2.jsonl"
        corpus.save_snapshot(snap, p2)
        corpus.save_snapshot(corpus.load_snapshot(p2), p3)
        assert p2.read_bytes() == p3.read_bytes()


def person_pages(n):
    """Person-like snapshot lines: unique titles and texts, no outlinks or
    images, and categories drawn from a pool of 2 + 40 names, as a person
    page has its Frau or Mann category and a birth year."""
    for i in range(n):
        gender = ("Frau", "Mann")[i % 2]
        year = 1900 + i % 40
        yield {"title": f"Person {i}", "categories": [gender,
                                                      f"Geboren {year}"],
               "outlinks": [], "images": [],
               "plain_text": f"Person {i} (* {year}) ist eine Person."}


class TestSharing:
    """One load shares equal category sets, category names and empty
    tuples between its records, and each page's title with the links and
    redirects that name it."""

    def test_equal_category_lists_share_one_frozenset_and_names(
            self, tmp_path):
        nfd = unicodedata.normalize("NFD", "Ärztin")
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [
            {"title": "A", "categories": ["Ärztin", "Frau"]},
            {"title": "B", "categories": ["Frau", nfd, "Frau"]},
            {"title": "C", "categories": ["Frau"], "outlinks": []},
            {"title": "D"}])
        records = corpus.load_snapshot(p).records
        a, b, c, d = (records[t] for t in "ABCD")
        assert type(a.categories) is frozenset
        assert a.categories == {"Ärztin", "Frau"}
        assert b.categories is a.categories
        names = {name: name for name in a.categories}
        assert all(names[name] is name for name in c.categories)
        empty = tuple()
        assert all(x.outlinks is empty and x.images is empty
                   for x in (a, b, c, d))
        assert d.categories == frozenset()

    def test_loaded_person_pages_stay_small(self, tmp_path):
        # Traced bytes per loaded record, measured on these 2,000 pages,
        # each line with a page_id as a fetched snapshot's has: 732 with a
        # set, two empty lists and fresh names per record, 243.5 with the
        # sharing, 211.1 once a record keeps no page_id.
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, (dict(page, page_id=i)
                        for i, page in enumerate(person_pages(2000))))
        tracemalloc.start()
        try:
            snapshot = corpus.load_snapshot(p)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(snapshot.records) == 2000
        assert traced / 2000 < 225

    def test_loaded_size_does_not_grow_with_the_texts(self, tmp_path):
        # a loaded page keeps its line's offset, not its text: the longer
        # texts add 666,000 characters, and less than a byte per page may
        # differ
        traced = []
        for times in (1, 10):
            p = tmp_path / f"snap_{times}.jsonl"
            write_jsonl(p, (dict(page, plain_text=page["plain_text"] * times)
                            for page in person_pages(2000)))
            tracemalloc.start()
            try:
                snapshot = corpus.load_snapshot(p)
                traced.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert text(snapshot, "Person 1999") == (
                "Person 1999 (* 1939) ist eine Person." * times)
            del snapshot
        assert traced[1] - traced[0] < 2000, traced

    def test_load_peak_stays_near_the_loaded_size(self, tmp_path):
        # 40 articles of 180 links each, read between two halves of 2,000
        # person pages, and redirects read before and after their targets.
        # Traced peak above the loaded snapshot, measured: 60 bytes per
        # link while each link kept its own string until the load's end,
        # under 5 once names are shared as each line is parsed.
        rng = random.Random(23)
        persons = list(person_pages(2000))
        articles = [{"title": f"Artikel {i}", "categories": ["Beruf"],
                     "outlinks": [f"Person {rng.randrange(2000)}"
                                  for _ in range(180)], "plain_text": "a"}
                    for i in range(40)]
        redirects = [{"title": f"Umleitung {i}",
                      "redirect_target": f"Person {(i + 1000) % 2000}"}
                     for i in range(200)]
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, redirects[:100] + persons[:1000] + articles
                    + persons[1000:] + redirects[100:])
        tracemalloc.start()
        try:
            snapshot = corpus.load_snapshot(p)
            loaded, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        links = 40 * 180 + 200
        assert len(snapshot.records) == 2240
        assert (peak - loaded) / links < 8, (peak, loaded)

    @staticmethod
    def page(title, **fields):
        """A snapshot line in canonical form: every field, sorted keys."""
        line = {"title": title, "exists": True, "redirect_target": None,
                "categories": [], "outlinks": [], "images": [],
                "plain_text": ""}
        line.update(fields)
        return json.dumps(line, ensure_ascii=False, sort_keys=True) + "\n"

    def test_links_and_redirects_share_their_page_title(self, tmp_path):
        # A1 links to a later page (B1), an earlier one (Ärztin, named in
        # NFD) and one that is not in the file; B1 redirects to a later
        # page, D1 to an earlier one (titles of one character would be
        # cached strings, shared whatever the load does)
        nfd = unicodedata.normalize("NFD", "Ärztin")
        p = tmp_path / "snap.jsonl"
        p.write_text("".join([
            self.page("Ärztin", plain_text="ä"),
            self.page("A1", outlinks=["B1", nfd, "Fehlt", "B1"],
                      plain_text="a"),
            self.page("B1", redirect_target="C1"),
            self.page("C1", outlinks=["A1"], plain_text="c"),
            self.page("D1", redirect_target="Ärztin")]), encoding="utf-8")
        for loaded in (corpus.load_snapshot(p), load_snapshot_json_loads(p)):
            records = loaded.records
            a, b, c, d = (records[t] for t in ("A1", "B1", "C1", "D1"))
            assert a.outlinks == ("B1", "Ärztin", "Fehlt", "B1")
            assert a.outlinks[0] is b.title and a.outlinks[3] is b.title
            assert a.outlinks[1] is records["Ärztin"].title
            assert c.outlinks[0] is a.title
            assert b.redirect_target is c.title
            assert d.redirect_target is records["Ärztin"].title

    def test_shared_names_save_as_they_load(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        canonical = "".join([
            self.page("A", outlinks=["B", "Fehlt", "C"], plain_text="a"),
            self.page("B", redirect_target="C"),
            self.page("C", categories=["Frau"], outlinks=["A"],
                      plain_text="c")])
        p.write_text(canonical, encoding="utf-8")
        snapshot = corpus.load_snapshot(p)
        saved = tmp_path / "saved.jsonl"
        corpus.save_snapshot(snapshot, saved)
        assert saved.read_text(encoding="utf-8") == canonical
        assert with_texts(snapshot) == with_texts(load_snapshot_json_loads(p))

    def test_a_title_is_one_string_with_its_links(self, tmp_path):
        # A1 links to Bäcker before it is read, Bäcker to itself, C1 and
        # D1 after it (titles of one character are cached strings)
        p = tmp_path / "snap.jsonl"
        p.write_text("".join([
            self.page("A1", outlinks=["Bäcker"], plain_text="a"),
            self.page("Bäcker", outlinks=["Bäcker"], plain_text="b"),
            self.page("C1", outlinks=["Bäcker", "C1"], plain_text="c"),
            self.page("D1", redirect_target="Bäcker")]), encoding="utf-8")
        snapshot = corpus.load_snapshot(p)
        records = snapshot.records
        [key] = [title for title in records if title == "Bäcker"]
        baker = records[key]
        assert text(snapshot, key) == "b"
        assert baker.title is key and baker.outlinks[0] is key
        assert all(records[t].outlinks[0] is key for t in ("A1", "C1"))
        assert records["D1"].redirect_target is key


def synthetic_snapshot_text(seed, n=400):
    """Snapshot lines that stress the decoding: U+2028 and U+2029 in text
    and around lines, non-BMP characters written as escaped surrogate
    pairs, titles in NFD that meet their NFC form, CRLF, blank and
    indented lines. Each page has a title of its own."""
    rng = random.Random(seed)
    names = ["Ärztin", "Straße", "Zoë Brück", "Chef\u2028koch", "Ångström",
             "Kategorie:Übersetzer", "Kategorie:Beruf", "Emoji \U0001F600"]
    words = ["Text", "\u2028", "\u2029", "\U0001F600", "a\u0308", "\\",
             "\"", "\u00a0", "Zitat „x“"]

    def title():
        return unicodedata.normalize(rng.choice(["NFC", "NFD"]),
                                     f"{rng.choice(names)} {rng.randrange(40)}")

    own = rng.sample([f"{name} {k}" for name in names for k in range(60)], n)
    lines = []
    for page_id, base in enumerate(own):
        rec = {"title": unicodedata.normalize(rng.choice(["NFC", "NFD"]),
                                              base)}
        kind = rng.random()
        if kind < 0.2:
            rec["redirect_target"] = title()
        elif kind < 0.3:
            rec["exists"] = False
        else:
            rec.update(
                plain_text=" ".join(rng.choices(words, k=rng.randint(0, 9))),
                categories=[title().split(":")[-1]
                            for _ in range(rng.randint(0, 3))],
                outlinks=[title() for _ in range(rng.randint(0, 3))],
                images=[{"filename": title() + ".jpg",
                         "width": rng.randint(0, 999),
                         "media_format": rng.choice(["JPG", "png"])}],
                page_id=rng.choice([None, page_id]))
        pad = rng.choice(["", " ", "\t", "\u2028", "\u00a0"])
        lines.append(pad + json.dumps(rec, ensure_ascii=rng.random() < 0.5)
                     + rng.choice(["\n", "\r\n", "\n\n"]))
    return "".join(lines)


class TestLoadAgainstReference:
    """load_snapshot gives the records of the loader that called
    json.loads on each line."""

    def assert_same_as_reference(self, path):
        got = corpus.load_snapshot(path)
        want = load_snapshot_json_loads(path)
        assert with_texts(got) == with_texts(want)
        assert got.subcategories == want.subcategories

    def test_fixture(self, data_dir):
        self.assert_same_as_reference(data_dir / "snapshot.jsonl")

    def test_synthetic(self, tmp_path):
        text = synthetic_snapshot_text(seed=1702)
        assert "\\ud83d\\ude00" in text and "\u2028" in text
        p = tmp_path / "snap.jsonl"
        p.write_text(text, encoding="utf-8")
        records = corpus.load_snapshot(p).records
        assert len(records) == text.count("{\"title\"")
        assert any("\U0001F600" in t for t in records)
        self.assert_same_as_reference(p)


class TestTexts:
    """CorpusSnapshot.texts reads a loaded snapshot's texts back from its
    file, in file order, and only from the file the snapshot loaded."""

    @pytest.fixture()
    def loaded(self, tmp_path):
        p = tmp_path / "snap.jsonl"
        write_jsonl(p, [{"title": "A", "plain_text": "ä\u2028a"},
                        {"title": "B"},
                        {"title": "C", "plain_text": "c"}])
        return p, corpus.load_snapshot(p)

    def test_in_memory_texts_first_then_file_order(self, loaded):
        _, snapshot = loaded
        a, b, c = (snapshot.records[t] for t in "ABC")
        memory = rec("M", plain_text="m")
        assert list(snapshot.texts([c, memory, b, a])) == [
            (memory, "m"), (b, ""), (a, "ä\u2028a"), (c, "c")]

    def test_a_changed_file_is_refused(self, loaded):
        p, snapshot = loaded
        p.write_text(p.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        with pytest.raises(SnapshotError, match=(
                f"^snapshot {re.escape(str(p))} changed after it was "
                f"loaded; run again$")):
            list(snapshot.texts([snapshot.records["A"]]))

    def test_a_missing_file_is_refused_only_for_a_text(self, loaded):
        p, snapshot = loaded
        p.unlink()
        assert list(snapshot.texts([snapshot.records["B"]])) == [
            (snapshot.records["B"], "")]
        with pytest.raises(SnapshotError, match=(
                f"^snapshot {re.escape(str(p))} cannot be read again for "
                f"its texts: ")):
            list(snapshot.texts([snapshot.records["C"]]))

    def test_a_loaded_page_without_its_file_names_the_page(self, loaded):
        _, snapshot = loaded
        records = snapshot.records
        detached = corpus.CorpusSnapshot(records, {})
        assert list(detached.texts([records["B"]])) == [(records["B"], "")]
        with pytest.raises(SnapshotError, match="^page 'C' was loaded from "):
            list(detached.texts([records["B"], records["C"]]))


class TestResolve:
    def test_direct_article_is_final(self):
        snap = make_snapshot([rec("Koch", plain_text="k")])
        assert corpus.resolve("Koch", snap) == "Koch"

    def test_missing_page(self):
        snap = make_snapshot([])
        assert corpus.resolve("Nix", snap) == "Nix"

    def test_multi_hop(self):
        snap = make_snapshot([
            rec("A", redirect_target="B"),
            rec("B", redirect_target="C"),
            rec("C", plain_text="end"),
        ])
        assert corpus.resolve("A", snap) == "C"

    def test_cycle_gives_none(self):
        snap = make_snapshot([
            rec("A", redirect_target="B"),
            rec("B", redirect_target="A"),
            rec("C", redirect_target="C"),
        ])
        assert corpus.resolve("A", snap) is None
        assert corpus.resolve("C", snap) is None

    def test_idempotent_on_result(self):
        snap = make_snapshot([
            rec("A", redirect_target="B"),
            rec("B", plain_text="b"),
        ])
        final = corpus.resolve("A", snap)
        assert corpus.resolve(final, snap) == final == "B"

    def test_broken_redirect_ends_missing(self):
        snap = make_snapshot([rec("A", redirect_target="Gone")])
        assert corpus.resolve("A", snap) == "Gone"


def chain_snapshot(n):
    """Kategorie:C0 <- C1 <- ... <- Cn, membership via article pages."""
    records = []
    for i in range(1, n + 1):
        records.append(rec(f"Kategorie:C{i}", categories={f"C{i-1}"}))
    records.append(rec("Wurzelseite", categories={"C0"}))
    return make_snapshot(records)


class TestClosure:
    def test_depth_zero_is_roots(self):
        snap = chain_snapshot(7)
        assert corpus.category_closure(["C0"], 0, snap) == {"C0"}

    def test_chain_depth_limited(self):
        snap = chain_snapshot(7)
        got = corpus.category_closure(["C0"], 5, snap)
        assert got == {f"C{i}" for i in range(6)}

    def test_diamond_counted_once(self):
        # A -> B, A -> C, B -> D, C -> D, D -> E, plus F unreachable
        records = [
            rec("Kategorie:B", categories={"A"}),
            rec("Kategorie:C", categories={"A"}),
            rec("Kategorie:D", categories={"B", "C"}),
            rec("Kategorie:E", categories={"D"}),
            rec("Kategorie:F", categories={"X"}),
            rec("Seite", categories={"A"}),
        ]
        snap = make_snapshot(records)
        got = corpus.category_closure(["A"], 5, snap)
        assert got == {"A", "B", "C", "D", "E"}

    def test_monotone_in_depth(self):
        snap = chain_snapshot(7)
        prev = set()
        for depth in range(8):
            cur = corpus.category_closure(["C0"], depth, snap)
            assert prev <= cur
            prev = cur

    def test_unknown_root_warns_and_is_empty(self, caplog):
        snap = chain_snapshot(2)
        with caplog.at_level("WARNING"):
            got = corpus.category_closure(["Niemand"], 5, snap)
        assert got == set()
        assert any("Niemand" in m for m in caplog.messages)

    def test_cycle_safe(self):
        records = [
            rec("Kategorie:B", categories={"A"}),
            rec("Kategorie:A", categories={"B"}),
            rec("Seite", categories={"A"}),
        ]
        snap = make_snapshot(records)
        got = corpus.category_closure(["A"], 5, snap)
        assert got == {"A", "B"}


class TestValidation:
    def test_root_membership(self):
        closure = {"Beruf", "Heilberuf"}
        assert corpus.is_profession_article(rec("X", categories={"Beruf"}),
                                            closure)

    def test_no_categories(self):
        assert not corpus.is_profession_article(rec("X"), {"Beruf"})

    def test_depth3_subcategory_member(self):
        records = [
            rec("Kategorie:Heilberuf", categories={"Beruf"}),
            rec("Kategorie:Pflegeberuf", categories={"Heilberuf"}),
            rec("Kategorie:Stationspflege", categories={"Pflegeberuf"}),
            rec("Pflegehelfer", categories={"Stationspflege"}),
            rec("Amtsseite", categories={"Amt"}),
        ]
        snap = make_snapshot(records)
        closure = corpus.category_closure(["Beruf", "Amt"], 5, snap)
        assert corpus.is_profession_article(snap.records["Pflegehelfer"], closure)
        assert corpus.is_profession_article(snap.records["Amtsseite"], closure)

    def test_profession_articles_decide_per_record(self, tmp_path):
        # one decision per distinct category set gives the titles a test
        # of every record gives
        p = tmp_path / "snap.jsonl"
        p.write_text(synthetic_snapshot_text(seed=1703), encoding="utf-8")
        snap = corpus.load_snapshot(p)
        names = sorted(set().union(*(r.categories
                                     for r in snap.records.values())))
        closure = set(names[::3])
        want = sorted(r.title for r in snap.records.values()
                      if r.exists and not r.is_redirect
                      and corpus.is_profession_article(r, closure))
        assert want
        assert corpus.profession_articles(snap, closure) == want

    def test_image_ref_defaults(self):
        r = ImageRef("a.jpg", 120, "jpg")
        assert r._asdict() == {"filename": "a.jpg", "width": 120,
                               "media_format": "jpg"}
