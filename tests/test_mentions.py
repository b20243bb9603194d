import json
import random
import tracemalloc
import unicodedata

import pytest

import oracles
from profaudit import mentions, pipeline
from profaudit.config import AuditConfig
from profaudit.corpus import ArticleRecord, build_snapshot
from profaudit.mentions import (BiasClass, Gender, PersonMention, Source,
                                extract_link_mentions, extract_text_mentions,
                                filter_by_birth, male_ratio_and_class, merge,
                                parse_birth_year)


def snapshot_with_persons():
    records = [
        ArticleRecord("Heinrich Heine", categories={"Mann", "Dichter"},
                      plain_text="Christian Johann Heinrich Heine (* 13. "
                                 "Dezember 1797 in Düsseldorf; † 17. Februar "
                                 "1856 in Paris) war ein Dichter."),
        ArticleRecord("Oriana Fallaci", categories={"Frau"},
                      plain_text="Oriana Fallaci (* 29. Juni 1929 in Florenz; "
                                 "† 15. September 2006 ebenda) war eine "
                                 "Journalistin."),
        ArticleRecord("Max Mustermann", categories={"Mann"}, plain_text="X."),
        ArticleRecord("Schule", categories={"Bildung"}, plain_text="S."),
        ArticleRecord("Zwitterwesen", categories={"Mann", "Frau"},
                      plain_text="?"),
    ]
    return build_snapshot({r.title: r for r in records})


LEXICON = {"Heinrich": Gender.M, "Oriana": Gender.F, "Anna": Gender.F,
           "Max": Gender.M, "Kim": Gender.UNKNOWN, "Hans Peter": Gender.M,
           "Hans": Gender.M}
FIRSTS = mentions.first_words(LEXICON)
CFG = AuditConfig()


class TestLinkMentions:
    def test_no_outlinks(self):
        snap = snapshot_with_persons()
        rec = ArticleRecord("Beruf X", outlinks=[])
        got, skipped = extract_link_mentions(rec, snap)
        assert got == [] and skipped == 0

    def test_frau_category_yields_female(self):
        snap = snapshot_with_persons()
        rec = ArticleRecord("Beruf X", outlinks=["Oriana Fallaci"])
        got, _ = extract_link_mentions(rec, snap)
        assert len(got) == 1
        assert got[0].gender is Gender.F
        assert got[0].source is Source.LINK
        assert got[0].linked_page == "Oriana Fallaci"
        assert got[0].first_name == "Oriana"

    def test_mixed_fixture(self):
        # 2 men, 1 woman, 1 uncategorized page, 1 missing page
        snap = snapshot_with_persons()
        rec = ArticleRecord("Beruf X", outlinks=[
            "Heinrich Heine", "Max Mustermann", "Oriana Fallaci",
            "Schule", "Unbekannt"])
        got, skipped = extract_link_mentions(rec, snap)
        genders = sorted(m.gender.value for m in got)
        assert genders == ["f", "m", "m"]
        assert skipped == 1  # only the missing page counts as skipped

    def test_contradictory_categories_skipped(self):
        snap = snapshot_with_persons()
        rec = ArticleRecord("Beruf X", outlinks=["Zwitterwesen"])
        got, skipped = extract_link_mentions(rec, snap)
        assert got == [] and skipped == 1


class TestTextMentions:
    def test_simple_match(self):
        got = extract_text_mentions("A", "Heinrich Heine schrieb Gedichte.",
                                    LEXICON, FIRSTS)
        assert len(got) == 1
        assert got[0].surface_name == "Heinrich Heine"
        assert got[0].gender is Gender.M
        assert got[0].source is Source.NAME_MATCH

    def test_lowercase_text_empty(self):
        assert extract_text_mentions("A", "alles klein geschrieben hier",
                                     LEXICON, FIRSTS) == []

    def test_female_name(self):
        got = extract_text_mentions("A", "Die Reporterin Oriana Fallaci kam.",
                                    LEXICON, FIRSTS)
        assert [m.gender for m in got] == [Gender.F]

    def test_run_must_have_two_tokens(self):
        assert extract_text_mentions("A", "Heinrich schrieb.", LEXICON,
                                     FIRSTS) == []

    def test_unknown_first_name_ignored(self):
        assert extract_text_mentions("A", "Wilhelmine Unbekannt kam.",
                                     LEXICON, FIRSTS) == []

    def test_ambiguous_maps_to_unknown(self):
        got = extract_text_mentions("A", "Kim Schmidt kam.", LEXICON, FIRSTS)
        assert [m.gender for m in got] == [Gender.UNKNOWN]

    def test_compound_first_name_longest_match(self):
        got = extract_text_mentions("A", "Hans Peter Müller sprach.", LEXICON,
                                    FIRSTS)
        assert len(got) == 1
        assert got[0].first_name == "Hans Peter"

    def test_punctuation_breaks_runs(self):
        got = extract_text_mentions(
            "A", "Heine, Anna Schmidt und Oriana Fallaci.", LEXICON, FIRSTS)
        names = {m.surface_name for m in got}
        assert names == {"Anna Schmidt", "Oriana Fallaci"}

    def test_deduplicated_per_article(self):
        got = extract_text_mentions(
            "A", "Heinrich Heine kam. Heinrich Heine ging.", LEXICON, FIRSTS)
        assert len(got) == 1


# Pieces of random gazetteer texts: letters of both cases (ASCII, umlauts,
# ß, titlecase ǅ), the non-decimal number characters ², ½ and Ⅻ that
# _WORD_RE takes as letters, digits and _ that it does not, a combining
# accent, CJK, punctuation, hyphens (single, double, leading, trailing)
# and blanks (space, tab, newline, no-break space, thin space, ideographic
# space and the file separator \x1c, all split on by str.split()), plus
# names that make runs hit the lexicon: halves that join into a
# hyphenated name, and a run of three names.
GAZETTEER_PIECES = (list("aAzZäÄöÖüÜßǅ²½Ⅻ_07\u0301中,.()'- \t\n\xa0")
                    + ["-", "--", " ", " ", " ", "  ", "\u2009", "\u3000",
                       "\x1c", "Anna", "Hans", "Peter", "Schmidt", "Ölz",
                       "Anna-Lena", "ǅemal", "müller", "Kim", "Hans-",
                       "-Peter", "Kim Hans Peter"])
# The last four keys: one ending in a non-letter and a lowercase one,
# which no capitalized token equals, and a two-word key with a hyphenated
# first word and one with two spaces, whose first words alone are no keys.
GAZETTEER_LEXICON = {"Anna": Gender.F, "Hans": Gender.M,
                     "Hans Peter": Gender.M, "Anna-Lena": Gender.F,
                     "Kim": Gender.UNKNOWN, "Ölz Anna": Gender.F,
                     "ǅemal": Gender.M, "Ⅻ": Gender.M, "Anna.": Gender.M,
                     "müller": Gender.M, "Hans-Peter Schmidt": Gender.M,
                     "Schmidt  Anna": Gender.F}
GAZETTEER_FIRSTS = mentions.first_words(GAZETTEER_LEXICON)


def as_dicts(ms: list[PersonMention]) -> list[dict]:
    return [oracles.mention_to_dict(m) for m in ms]


class TestGazetteerAgainstReference:
    """The anchor scan against the whole-text regex scan of every
    capitalized run (``oracles``)."""

    def test_random_texts(self):
        rng = random.Random(9001)
        for _ in range(3000):
            text = "".join(rng.choices(GAZETTEER_PIECES,
                                       k=rng.randint(0, 40)))
            got = extract_text_mentions("A", text, GAZETTEER_LEXICON,
                                        GAZETTEER_FIRSTS)
            assert as_dicts(got) == as_dicts(oracles.extract_text_mentions(
                "A", text, GAZETTEER_LEXICON)), repr(text)
            for m in got:  # merge compares surface names without nfc()
                assert unicodedata.normalize("NFC", m.surface_name) == \
                    m.surface_name

    def test_fixture_snapshot_texts(self, data_dir):
        lexicon = mentions.load_gender_lexicon(data_dir / "gender_lexicon.csv")
        firsts = mentions.first_words(lexicon)
        n_mentions = 0
        with open(data_dir / "snapshot.jsonl", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                text = record.get("plain_text") or ""
                got = extract_text_mentions(record["title"], text, lexicon,
                                            firsts)
                assert as_dicts(got) == as_dicts(oracles.extract_text_mentions(
                    record["title"], text, lexicon))
                n_mentions += len(got)
        assert n_mentions > 0


# Text that json.dumps escapes or keeps as it is: quote, backslash, every
# C0 control, DEL, the line and paragraph separators, characters outside
# the BMP and a lone surrogate.
JSON_TEXTS = ["", "Anna Müller", '"', "\\", "".join(map(chr, range(0x20))),
              "\x7f", "\u2028\u2029", "\U0001f600\U0001d538",
              'a"b\\c\x00\x1f\x7f\u2028\U0001f600 ß', "\ud800"]
JSON_PIECES = list('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\u2028\u2029'
                   "\ud83d\U0001f600 aAäß中") + ["Anna", " Müller"]


def reference_line(m: PersonMention) -> str:
    return json.dumps(oracles.mention_to_dict(m), ensure_ascii=False,
                      sort_keys=True) + "\n"


def full_mention(**changes) -> PersonMention:
    m = PersonMention("Beruf", "Anna Beispiel", "Anna", Gender.F,
                      Source.LINK, linked_page="Anna Beispiel",
                      birth_year=1970)
    for name, value in changes.items():
        setattr(m, name, value)
    return m


class TestJsonLine:
    """``json_line`` against the dict-and-``json.dumps`` form it replaced
    (``oracles.mention_to_dict``)."""

    def test_every_text_in_every_text_field(self):
        for field in ("article_title", "surface_name", "first_name",
                      "linked_page"):
            for text in JSON_TEXTS:
                m = full_mention(**{field: text})
                assert m.json_line() == reference_line(m), (field, text)

    def test_missing_and_present_page_and_year(self):
        for page in (None, "", "Anna Beispiel"):
            for year in (None, 0, 1960, 1970, -44, 10 ** 20):
                m = full_mention(linked_page=page, birth_year=year)
                assert m.json_line() == reference_line(m), (page, year)
        assert '"birth_year": null' in full_mention(birth_year=None).json_line()
        assert '"linked_page": null' in \
            full_mention(linked_page=None).json_line()

    def test_every_gender_and_source(self):
        for gender in Gender:
            for source in Source:
                m = full_mention(gender=gender, source=source)
                assert m.json_line() == reference_line(m), (gender, source)

    def test_random_mentions(self):
        rng = random.Random(1307)

        def text():
            return "".join(rng.choices(JSON_PIECES, k=rng.randint(0, 12)))

        for _ in range(2000):
            m = PersonMention(
                text(), text(), text(), rng.choice(list(Gender)),
                rng.choice(list(Source)),
                linked_page=rng.choice([None, text()]),
                birth_year=rng.choice([None, rng.randint(-3000, 3000)]))
            assert m.json_line() == reference_line(m), m

    def test_line_holds_every_field(self):
        # a field added to PersonMention must reach the line
        m = full_mention()
        line = m.json_line()
        assert line.endswith("\n") and "\n" not in line[:-1]
        fields = list(PersonMention.__slots__)
        parsed = json.loads(line)
        assert list(parsed) == sorted(fields)
        assert parsed == {name: getattr(m, name) for name in fields}


def pm(article, surface, gender, source=Source.LINK, linked=None, year=None):
    return PersonMention(article, surface, surface.split()[0], gender, source,
                         linked_page=linked, birth_year=year)


class TestMerge:
    def test_disjoint_union(self):
        links = [pm("A", "Heinrich Heine", Gender.M)]
        texts = [pm("A", "Anna Schmidt", Gender.F, Source.NAME_MATCH)]
        got, report = merge(links, texts)
        assert [m.surface_name for m in got] == ["Anna Schmidt",
                                                 "Heinrich Heine"]
        assert report["n_overlap"] == 0
        assert mentions.disagreement_rate(report) == 0.0

    def test_link_gender_authoritative(self):
        links = [pm("A", "Kim Novak", Gender.F)]
        texts = [pm("A", "Kim Novak", Gender.M, Source.NAME_MATCH)]
        got, report = merge(links, texts)
        assert len(got) == 1
        assert got[0].source is Source.BOTH
        assert got[0].gender is Gender.F
        assert report["gender_disagreements"] == 1

    def test_merge_never_double_counts(self):
        links = [pm("A", "Heinrich Heine", Gender.M)]
        texts = [pm("A", "Heinrich Heine", Gender.M, Source.NAME_MATCH)]
        got, _ = merge(links, texts)
        assert len(got) == 1

    def test_ten_person_overlap_disagreement_rate(self):
        # ten overlapping persons, the lexicon wrong on exactly one and
        # undecided on one more: 1 disagreement out of 9 comparisons
        links, texts = [], []
        for i in range(10):
            name = f"Person Nr{i}"
            link_gender = Gender.M if i < 7 else Gender.F
            if i == 3:
                text_gender = Gender.F  # lexicon contradicts the link
            elif i == 5:
                text_gender = Gender.UNKNOWN
            else:
                text_gender = link_gender
            links.append(pm("A", name, link_gender))
            texts.append(pm("A", name, text_gender, Source.NAME_MATCH))
        got, report = merge(links, texts)
        assert len(got) == 10
        assert report["n_overlap"] == 10
        assert report["gender_comparisons"] == 9
        assert report["gender_disagreements"] == 1
        assert mentions.disagreement_rate(report) == pytest.approx(1 / 9)


class TestRatioClass:
    def test_all_men(self):
        ratio, cls = male_ratio_and_class(30, 0, CFG.equality_band)
        assert ratio == 1.0
        assert cls is BiasClass.MALE_BIASED

    def test_six_men_five_women_equal(self):
        _, cls = male_ratio_and_class(6, 5, CFG.equality_band)
        assert cls is BiasClass.EQUAL

    def test_five_men_four_women_small_sample(self):
        _, cls = male_ratio_and_class(5, 4, CFG.equality_band)
        assert cls is BiasClass.MALE_BIASED

    def test_band_boundaries_inclusive(self):
        def cls(men, women):
            return male_ratio_and_class(men, women, CFG.equality_band)[1]

        assert cls(9, 11) is BiasClass.EQUAL
        assert cls(11, 9) is BiasClass.EQUAL
        assert cls(12, 8) is BiasClass.MALE_BIASED
        assert cls(8, 12) is BiasClass.FEMALE_BIASED

    def test_small_sample_strict_equality(self):
        _, equal = male_ratio_and_class(2, 2, CFG.equality_band)
        _, more_men = male_ratio_and_class(3, 2, CFG.equality_band)
        assert equal is BiasClass.EQUAL
        assert more_men is BiasClass.MALE_BIASED

    def test_ratio_complement(self):
        ratio, _ = male_ratio_and_class(7, 13, CFG.equality_band)
        assert ratio + 13 / 20 == pytest.approx(1.0)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            male_ratio_and_class(0, 0, CFG.equality_band)

    @pytest.mark.parametrize("band", [0.05, 0.2, 0.35])
    def test_class_mirrors_when_genders_swap(self, band):
        # at 0.35 the ratio was once tested against 0.5 - 0.35, which is
        # 0.15000000000000002, and 0.5 + 0.35: 3 men and 17 women were
        # female-biased, 17 men and 3 women equal
        mirror = {BiasClass.MALE_BIASED: BiasClass.FEMALE_BIASED,
                  BiasClass.FEMALE_BIASED: BiasClass.MALE_BIASED,
                  BiasClass.EQUAL: BiasClass.EQUAL}
        for men in range(60):
            for women in range(60):
                if men + women:
                    _, cls = male_ratio_and_class(men, women, band)
                    _, swapped = male_ratio_and_class(women, men, band)
                    assert swapped is mirror[cls], (men, women)

    def test_partition_over_grid(self):
        for men in range(0, 25):
            for women in range(0, 25):
                if men + women == 0:
                    continue
                _, cls = male_ratio_and_class(men, women, CFG.equality_band)
                assert cls in (BiasClass.MALE_BIASED,
                               BiasClass.FEMALE_BIASED, BiasClass.EQUAL)


class TestBirthFilter:
    def test_boundary_years(self):
        kept, unknown, old = filter_by_birth([
            pm("A", "Jung Mensch", Gender.M, year=1961),
            pm("A", "Grenze Mensch", Gender.M, year=1960),
            pm("A", "Ohne Jahr", Gender.F),
        ], CFG.birth_cutoff)
        assert [m.surface_name for m in kept] == ["Jung Mensch"]
        assert unknown == 1
        assert old == 1

    def test_parse_birth_year(self):
        assert parse_birth_year("Wer Auchimmer (* 12. Mai 1970 in Bonn) "
                                "war da.") == 1970
        assert parse_birth_year("Heine (* 13. Dezember 1797 in Düsseldorf; "
                                "† 1856) schrieb.") == 1797
        assert parse_birth_year("Jahr fehlt hier völlig.") is None
        # death year alone must not match
        assert parse_birth_year("Alt Meister († 1856 in Paris) wirkte.") is None

    def test_annotate_from_index_and_fallback(self):
        snap = snapshot_with_persons()
        # only linked pages of one gender are parsed, and only those the
        # index lacks
        article = ArticleRecord("A", outlinks=(
            "Heinrich Heine", "Max Mustermann", "Schule", "Zwitterwesen"))
        years = mentions.linked_birth_years([article], snap,
                                            {"Max Mustermann": 1975})
        assert years == {"Heinrich Heine": 1797, "Max Mustermann": 1975}
        ms = [pm("A", "Heinrich Heine", Gender.M, linked="Heinrich Heine"),
              pm("A", "Max Mustermann", Gender.M, linked="Max Mustermann"),
              pm("A", "Anna Schmidt", Gender.F)]
        mentions.annotate_birth_years(ms, years)
        years = {m.surface_name: m.birth_year for m in ms}
        assert years == {"Heinrich Heine": 1797, "Max Mustermann": 1975,
                         "Anna Schmidt": None}

    def test_bad_birth_file_row(self, tmp_path):
        p = tmp_path / "birth.csv"
        p.write_text("Heinrich Heine,ungefähr 1800\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            mentions.load_birth_years(p)

    def test_duplicate_birth_title_names_both_rows(self, tmp_path):
        # the later row used to win: 1950 moved the mention across 1960
        p = tmp_path / "birth.csv"
        p.write_text("page_title,year\nAnna A,1970\nAnna A,1950\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=r"^birth years row 3: duplicate "
                           r"page title 'Anna A' \(first on row 2\)$"):
            mentions.load_birth_years(p)


class TestGenderLexicon:
    def test_duplicate_name_names_both_rows(self, tmp_path):
        # the later row used to win and load Anna as a man
        p = tmp_path / "lexicon.csv"
        p.write_text("Anna,f\nAnna,m\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^gender lexicon row 2: "
                           r"duplicate name 'Anna' \(first on row 1\)$"):
            mentions.load_gender_lexicon(p)

    def test_names_equal_after_nfc_are_duplicates(self, tmp_path):
        p = tmp_path / "lexicon.csv"
        p.write_text("Zo\u00eb,f\n Zoe\u0308 ,m\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2: duplicate name"):
            mentions.load_gender_lexicon(p)


# The mentions stage's inputs. The persons are the same for any number of
# articles: first names of the lexicon and one it lacks, pages in Frau, in
# Mann, in both, in neither, or missing, born before, at or after the
# cutoff of 1960, by the birth-year file, by the "(* ...)" of the page
# text, or with no year at all.
STAGE_FIRST_NAMES = ("Anna", "Maria", "Hans", "Karl", "Kim", "Hans Peter",
                     "Olga")
STAGE_LEXICON = "name,gender\nAnna,f\nMaria,f\nHans,m\nKarl,m\nKim,a\n" \
                "Hans Peter,m\n"


def stage_persons() -> tuple[list[dict], list[str]]:
    """Snapshot lines of 200 persons, and the rows of the birth-year
    file."""
    rng = random.Random(515)
    categories = (["Frau"], ["Mann"], ["Frau", "Mann"], [], ["Koch", "Mann"])
    years = (1930, 1960, 1961, 1990, None)
    pages, birth_rows, titles = [], [], set()
    for i in range(200):
        title = ""
        while not title or title in titles:
            title = STAGE_FIRST_NAMES[i % 7] + " " + "".join(
                rng.choice(("ber", "lin", "mar", "tos", "kel", "an"))
                for _ in range(3)).capitalize()
        titles.add(title)
        if i % 11 == 10:
            pages.append({"title": title, "exists": False})
            continue
        year, text = years[i // 5 % 5], "Lebt in Bonn."
        if year is not None and i % 3 == 0:
            birth_rows.append(f"{title},{year}")
        elif year is not None and i % 3 == 1:
            text = f"{title} (* 4. Mai {year} in Bonn) lebt in Bonn."
        pages.append({"title": title, "categories": categories[i % 5],
                      "plain_text": text})
    return pages, birth_rows


def stage_inputs(work, n_articles: int) -> dict:
    """Input files of the mentions stage, by label, for ``n_articles``
    articles. Each links to 120 persons, one outlink twice and a missing
    page once, and names 40 of them in its text, beside 40 people of no
    page; "Karl Fremd" is named in every article."""
    persons, birth_rows = stage_persons()
    titles = [p["title"] for p in persons]
    rng = random.Random(n_articles)
    articles = []
    for j in range(n_articles):
        linked = rng.sample(titles, 120)
        sentences = [f"{name} arbeitet als Koch." for name in linked[:40]]
        sentences += [f"Die Reporterin {rng.choice(STAGE_FIRST_NAMES)} "
                      f"Gast {chr(65 + k % 26)}ei{'nm'[k // 26]} schreibt."
                      for k in range(40)]
        sentences.append("Karl Fremd lobt den Beruf.")
        articles.append({"title": f"Beruf {j:03d}", "plain_text":
                         " ".join(sentences),
                         "outlinks": linked + linked[:1] + ["Niemand Da"]})
    work.mkdir(parents=True, exist_ok=True)
    inputs = {label: work / name for label, name in (
        ("snapshot", "snapshot.jsonl"), ("gender_lexicon", "lexicon.csv"),
        ("birth_years", "birth_years.csv"), ("article_map", "map.csv"))}
    inputs["snapshot"].write_text("".join(
        json.dumps(p, ensure_ascii=False) + "\n" for p in persons + articles),
        encoding="utf-8")
    inputs["gender_lexicon"].write_text(STAGE_LEXICON, encoding="utf-8")
    inputs["birth_years"].write_text(
        "page_title,year\n" + "".join(r + "\n" for r in birth_rows),
        encoding="utf-8")
    inputs["article_map"].write_text("article_title,profession_id,"
                                     "title_role\n" + "".join(
        f"{a['title']},p{j},neutral\n" for j, a in enumerate(articles)),
        encoding="utf-8")
    return inputs


def run_stage(stage, inputs: dict, out_dir, traced: bool = False):
    """Run a mentions stage function as the pipeline runs it, into
    ``out_dir/mentions``; with ``traced``, return its peak of traced
    memory in bytes. The snapshot is parsed before tracing starts."""
    run = pipeline.Run(AuditConfig(out_dir=str(out_dir)))
    run.stage, run.inputs = "mentions", inputs
    (out_dir / "mentions").mkdir(parents=True)
    try:
        run.snapshot
        if not traced:
            stage(run)
            return None
        tracemalloc.start()
        try:
            stage(run)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        run.drop_snapshot()


class TestStageAgainstReference:
    """``pipeline.stage_mentions``, one article at a time, against the
    list-based assembly it replaced (``oracles.stage_mentions_lists``)."""

    def test_outputs_are_byte_identical(self, tmp_path):
        inputs = stage_inputs(tmp_path / "in", 12)
        run_stage(pipeline.stage_mentions, inputs, tmp_path / "streamed")
        run_stage(oracles.stage_mentions_lists, inputs, tmp_path / "lists")
        for name in ("mentions.jsonl", "ratios.csv", "merge_report.json"):
            got = (tmp_path / "streamed" / "mentions" / name).read_bytes()
            assert got == (tmp_path / "lists" / "mentions" / name
                           ).read_bytes(), name
        # the inputs reach every case the stage counts
        report = json.loads((tmp_path / "streamed" / "mentions"
                             / "merge_report.json").read_text())
        ratios = (tmp_path / "streamed" / "mentions" / "ratios.csv"
                  ).read_text().splitlines()
        assert all(report[key] > 0 for key in (
            "n_overlap", "gender_comparisons", "gender_disagreements",
            "skipped_outlinks", "n_men", "n_women"))
        assert all(value > 0 for value in report["birth_filter"].values())
        assert {row.split(",")[0] for row in ratios[1:]} == {
            "all", "born_after_cutoff"}

    def test_articles_without_gendered_mentions(self, tmp_path):
        # "Beruf 900" names only a person of unknown gender, so it gets no
        # ratio row; every gendered person of "Beruf 901" is born at or
        # before the cutoff or has no year, so it gets only an "all" row
        inputs = stage_inputs(tmp_path / "in", 3)
        pages = [{"title": "Otto Alt", "categories": ["Mann"],
                  "plain_text": "Otto Alt (* 4. Mai 1930) lebt in Bonn."},
                 {"title": "Anna Grenz", "categories": ["Frau"],
                  "plain_text": "Lebt in Bonn."},
                 {"title": "Beruf 900", "outlinks": ["Niemand Da"],
                  "plain_text": "Die Reporterin Kim Sonder schreibt."},
                 {"title": "Beruf 901", "outlinks": ["Otto Alt", "Anna Grenz"],
                  "plain_text": "Karl Ohnejahr lobt Otto Alt sehr."}]
        with open(inputs["snapshot"], "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(p, ensure_ascii=False) + "\n"
                          for p in pages)
        with open(inputs["birth_years"], "a", encoding="utf-8") as fh:
            fh.write("Anna Grenz,1960\n")
        with open(inputs["article_map"], "a", encoding="utf-8") as fh:
            fh.write("Beruf 900,p900,neutral\nBeruf 901,p901,neutral\n")
        run_stage(pipeline.stage_mentions, inputs, tmp_path / "streamed")
        run_stage(oracles.stage_mentions_lists, inputs, tmp_path / "lists")
        out = tmp_path / "streamed" / "mentions"
        for name in ("mentions.jsonl", "ratios.csv", "merge_report.json"):
            assert (out / name).read_bytes() == (
                tmp_path / "lists" / "mentions" / name).read_bytes(), name
        lines = [json.loads(line) for line in
                 (out / "mentions.jsonl").read_text().splitlines()]
        assert {(m["surface_name"], m["gender"], m["birth_year"])
                for m in lines if m["article_title"] >= "Beruf 900"} == {
            ("Kim Sonder", "unknown", None), ("Karl Ohnejahr", "m", None),
            ("Otto Alt", "m", 1930), ("Anna Grenz", "f", 1960)}
        ratios = (out / "ratios.csv").read_text().splitlines()
        assert [row for row in ratios if ",Beruf 90" in row] == [
            "all,Beruf 901,2,1,0.666667,male_biased"]
        assert {row.split(",")[0] for row in ratios[1:]} == {
            "all", "born_after_cutoff"}

    def test_linked_page_text_parsed_once(self, tmp_path, monkeypatch):
        # Heine is linked from both articles and has his birth year only
        # in his text; Fallaci's text is never read, as the index has her
        work = tmp_path / "in"
        work.mkdir()
        pages = [{"title": "Heinrich Heine", "categories": ["Mann"],
                  "plain_text": "Heinrich Heine (* 13. Dezember 1797) "
                                "dichtete."},
                 {"title": "Oriana Fallaci", "categories": ["Frau"],
                  "plain_text": "Oriana Fallaci (* 29. Juni 1929)."}]
        pages += [{"title": title, "plain_text": "Text.",
                   "outlinks": ["Heinrich Heine", "Oriana Fallaci"]}
                  for title in ("Dichter", "Journalist")]
        inputs = {label: work / name for label, name in (
            ("snapshot", "snapshot.jsonl"), ("gender_lexicon", "lexicon.csv"),
            ("birth_years", "birth_years.csv"), ("article_map", "map.csv"))}
        inputs["snapshot"].write_text("".join(
            json.dumps(p, ensure_ascii=False) + "\n" for p in pages),
            encoding="utf-8")
        inputs["gender_lexicon"].write_text(STAGE_LEXICON, encoding="utf-8")
        inputs["birth_years"].write_text("page_title,year\n"
                                         "Oriana Fallaci,1929\n",
                                         encoding="utf-8")
        inputs["article_map"].write_text(
            "article_title,profession_id,title_role\n"
            "Dichter,p1,neutral\nJournalist,p2,neutral\n", encoding="utf-8")
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_birth_year(text)

        monkeypatch.setattr(mentions, "parse_birth_year", counted)
        run_stage(pipeline.stage_mentions, inputs, tmp_path / "streamed")
        assert parsed == [pages[0]["plain_text"]]
        run_stage(oracles.stage_mentions_lists, inputs, tmp_path / "lists")
        for name in ("mentions.jsonl", "ratios.csv", "merge_report.json"):
            got = (tmp_path / "streamed" / "mentions" / name).read_bytes()
            assert got == (tmp_path / "lists" / "mentions" / name
                           ).read_bytes(), name
        lines = (tmp_path / "streamed" / "mentions" / "mentions.jsonl"
                 ).read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["birth_year"] for line in lines] == [
            1797, 1929, 1797, 1929]

    def test_peak_memory_does_not_grow_with_the_articles(self, tmp_path):
        inputs = {n: stage_inputs(tmp_path / f"in_{n}", n) for n in (20, 80)}
        peaks = {(stage, n): run_stage(stage, inputs[n],
                                       tmp_path / f"{stage.__name__}_{n}",
                                       traced=True)
                 for stage in (pipeline.stage_mentions,
                               oracles.stage_mentions_lists)
                 for n in (20, 80)}
        streamed = peaks[pipeline.stage_mentions, 80] / \
            peaks[pipeline.stage_mentions, 20]
        lists = peaks[oracles.stage_mentions_lists, 80] / \
            peaks[oracles.stage_mentions_lists, 20]
        assert streamed < 2, peaks
        # the whole-list design, back in the stage, would fail the bound
        assert lists >= 3, peaks
