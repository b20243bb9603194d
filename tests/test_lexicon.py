import pytest

from profaudit import lexicon, pipeline
from profaudit.config import AuditConfig
from profaudit.lexicon import Resolution

ABBREVIATIONS = lexicon.load_abbreviations()


def run_split(text, line_no=1):
    cleaned = lexicon.preprocess(text, ABBREVIATIONS)
    assert cleaned is not None
    return lexicon.split(cleaned, line_no)


class TestPreprocess:
    @pytest.mark.parametrize("text", [
        "Bergbau (Tätigkeitsfeld)",
        "Informatik (grundständig)",
        "Physik (weiterführend)",
        "Medizin (Staatsexamen)",
    ])
    def test_field_names_excluded(self, text):
        assert lexicon.preprocess(text, ABBREVIATIONS) is None

    def test_plain_line_unchanged(self):
        got = lexicon.preprocess("Lehrer/in", ABBREVIATIONS)
        assert got == "Lehrer/in"
        assert lexicon.split(got, 3).line_no == 3

    def test_abbreviation_expanded(self):
        got = lexicon.preprocess("Fachkraft - med. Dokumentation",
                                 ABBREVIATIONS)
        assert got == "Fachkraft - medizinische Dokumentation"

    def test_custom_abbreviation_table(self):
        got = lexicon.preprocess("techn. Assistent",
                                 {"techn.": "technischer"})
        assert got == "technischer Assistent"

    def test_whitespace_fixes(self):
        got = lexicon.preprocess("  Lehrer / in ", ABBREVIATIONS)
        assert got == "Lehrer/in"

    def test_blank_line_dropped(self):
        assert lexicon.preprocess("   ", ABBREVIATIONS) is None


class TestLoadAbbreviations:
    def test_abbreviation_file_extends_default(self, tmp_path):
        path = tmp_path / "abbreviations.csv"
        path.write_text("techn.,technischer\nmed.,medizinischer\n",
                        encoding="utf-8")
        assert lexicon.load_abbreviations(path) == {
            "med.": "medizinischer", "techn.": "technischer"}

    def test_empty_short_form_names_row(self, tmp_path):
        # "" is in every text, so the expansion would land between letters
        path = tmp_path / "abbreviations.csv"
        path.write_text("techn.,technischer\n,medizinische\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"^abbreviations row 2: empty "
                           r"short form$"):
            lexicon.load_abbreviations(path)

    def test_repeated_short_form_names_both_rows(self, tmp_path):
        path = tmp_path / "abbreviations.csv"
        path.write_text("techn.,technischer\n# note\ntechn.,technische\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"^abbreviations row 3: "
                           r"duplicate short form 'techn\.' \(first on row "
                           r"1\)$"):
            lexicon.load_abbreviations(path)


class TestSplit:
    @pytest.mark.parametrize("text,male,female", [
        # suffix rules
        ("Lehrer/in", "Lehrer", "Lehrerin"),
        ("Übersetz(er/in)", "Übersetzer", "Übersetzerin"),
        ("Postbot(e/in)", "Postbote", "Postbotin"),
        # paired substrings, male form first
        ("Bootssteuerer/-steuerin", "Bootssteuerer", "Bootssteuerin"),
        ("Chiefsteward/-stewardess", "Chiefsteward", "Chiefstewardess"),
        ("Fluglotse/-lotsin", "Fluglotse", "Fluglotsin"),
        ("Beamter/Beamtin", "Beamter", "Beamtin"),
        ("Amtsgehilfe/-gehilfin", "Amtsgehilfe", "Amtsgehilfin"),
        ("Kinderarzt/-ärztin", "Kinderarzt", "Kinderärztin"),
        ("Arzt/Ärztin", "Arzt", "Ärztin"),
        ("Krankenpfleger/-schwester", "Krankenpfleger", "Krankenschwester"),
        ("Datenschutzbeauftragter/-beauftragte",
         "Datenschutzbeauftragter", "Datenschutzbeauftragte"),
        ("Rechtsanwalt/-anwältin", "Rechtsanwalt", "Rechtsanwältin"),
        ("Matrose/Matrosin", "Matrose", "Matrosin"),
        ("Purser/Purserette", "Purser", "Purserette"),
        ("Grafiker/Grafikerin", "Grafiker", "Grafikerin"),
        ("Kranstuerer/-stuerin", "Kranstuerer", "Kranstuerin"),
        ("Koch/Köchin", "Koch", "Köchin"),
        ("Genealoge/Genealogin", "Genealoge", "Genealogin"),
        ("Biologe/Biologin", "Biologe", "Biologin"),
        ("Sportpädagoge/-pädagogin", "Sportpädagoge", "Sportpädagogin"),
        ("Logopäde/Logopädin", "Logopäde", "Logopädin"),
        ("Kaufmann/-frau", "Kaufmann", "Kauffrau"),
        ("Steuerexperte/-expertin", "Steuerexperte", "Steuerexpertin"),
        # reversed pairs, female form first
        ("Verwaltungsangestellte/-angestellter",
         "Verwaltungsangestellter", "Verwaltungsangestellte"),
        ("Gleichstellungsbeauftragte/-beauftragter",
         "Gleichstellungsbeauftragter", "Gleichstellungsbeauftragte"),
        ("Operationsschwester/-pfleger", "Operationspfleger", "Operationsschwester"),
        ("Tagesmutter/-vater", "Tagesvater", "Tagesmutter"),
    ])
    def test_pair_split(self, text, male, female):
        entry = run_split(text)
        assert entry.resolution is Resolution.AUTO_SPLIT
        assert entry.male_title == male
        assert entry.female_title == female
        assert entry.neutral_title is None

    @pytest.mark.parametrize("text", ["PR-Fachkraft", "Kaufleute",
                                      "Aufsichtsperson"])
    def test_neutral_suffixes(self, text):
        entry = run_split(text)
        assert entry.resolution is Resolution.AUTO_NEUTRAL
        assert entry.neutral_title == text
        assert entry.male_title is None

    @pytest.mark.parametrize("text", ["Model", "Hebamme", "Dressman"])
    def test_unresolved(self, text):
        entry = run_split(text)
        assert entry.resolution is Resolution.UNRESOLVED
        assert entry.titles() == []

    def test_deterministic(self):
        a = run_split("Kinderarzt/-ärztin", 9)
        b = run_split("Kinderarzt/-ärztin", 9)
        assert ([getattr(a, k) for k in lexicon.ENTRY_FIELDS]
                == [getattr(b, k) for k in lexicon.ENTRY_FIELDS])

    def test_suffix_rule_soundness(self):
        # for the er/in and (er/in) suffix rules the female title is the
        # male title plus "in", character for character
        for text in ["Lehrer/in", "Übersetz(er/in)", "Hausmeister/in"]:
            entry = run_split(text)
            assert entry.female_title == entry.male_title + "in"

    def test_titles_differ_when_both_present(self):
        for text in ["Lehrer/in", "Kaufmann/-frau", "Tagesmutter/-vater"]:
            entry = run_split(text)
            assert entry.male_title != entry.female_title


class TestManualAssignments:
    def test_empty_file_is_noop(self, tmp_path):
        entries = [lexicon.split("Model", 1)]
        path = tmp_path / "manual.csv"
        path.write_text("line_no,group,male,female,neutral\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].resolution is Resolution.UNRESOLVED

    def test_neutral_override(self, tmp_path):
        entries = [lexicon.split("Model", 4)]
        path = tmp_path / "manual.csv"
        path.write_text("4,neutral,,,Model\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].resolution is Resolution.MANUAL
        assert entries[0].neutral_title == "Model"

    def test_pair_override(self, tmp_path):
        entries = [lexicon.split("Hebamme", 2)]
        path = tmp_path / "manual.csv"
        path.write_text("2,pair,Entbindungspfleger,Hebamme,\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].male_title == "Entbindungspfleger"
        assert entries[0].female_title == "Hebamme"

    def test_unknown_line_no_is_error(self, tmp_path):
        entries = [lexicon.split("Model", 1)]
        path = tmp_path / "manual.csv"
        path.write_text("999999,neutral,,,X\n", encoding="utf-8")
        with pytest.raises(ValueError, match="999999"):
            lexicon.load_manual_assignments(path, entries)

    def test_equal_titles_rejected(self, tmp_path):
        entries = [lexicon.split("Model", 1)]
        path = tmp_path / "manual.csv"
        path.write_text("1,pair,Model,Model,\n", encoding="utf-8")
        with pytest.raises(ValueError):
            lexicon.load_manual_assignments(path, entries)

    def test_repeated_line_no_names_both_rows(self, tmp_path):
        # the later row used to win without a word
        entries = [lexicon.split("Fookraft", 2)]
        path = tmp_path / "manual.csv"
        path.write_text("line_no,group,male,female,neutral\n"
                        "2,neutral,,,Fookraft\n# note\n"
                        "2,pair,Foomann,Foofrau,\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^manual assignments row 4: "
                           r"duplicate line_no 2 \(first on row 2\)$"):
            lexicon.load_manual_assignments(path, entries)


class TestFixtureFile:
    def test_partition_and_counts(self, data_dir):
        entries = lexicon.parse_file(data_dir / "professions.txt",
                                     ABBREVIATIONS)
        # 4 of the 40 lines are excluded field names
        assert len(entries) == 36
        summary = lexicon.summarize(entries)
        assert summary["unresolved"] == 6
        lexicon.load_manual_assignments(data_dir / "manual_assignments.csv",
                                        entries)
        summary = lexicon.summarize(entries)
        assert summary["unresolved"] == 0
        assert summary["pairs"] == 30
        assert summary["neutral"] == 6
        # partition: pair, neutral and unresolved sets are disjoint
        for e in entries:
            assert not (e.is_pair and e.neutral_title)

    def test_latin1_file_names_line_and_file(self, tmp_path):
        path = tmp_path / "professions.txt"
        path.write_bytes("Lehrer/in\nKoch/Köchin\n".encode("latin-1"))
        with pytest.raises(ValueError) as info:
            lexicon.parse_file(path, ABBREVIATIONS)
        assert str(info.value) == (f"professions line 2: byte 0xf6 is not "
                                   f"UTF-8, in {path}")

    def test_byte_order_mark_skipped(self, tmp_path):
        # with the mark, the first title was "\ufeffLehrer"
        path = tmp_path / "professions.txt"
        path.write_text("\ufeffLehrer/in\n", encoding="utf-8")
        [entry] = lexicon.parse_file(path, ABBREVIATIONS)
        assert (entry.male_title, entry.female_title) == ("Lehrer",
                                                          "Lehrerin")

    def test_round_trip_files(self, data_dir, tmp_path):
        # without manual assignments, the unresolved lines go to review
        cfg = AuditConfig(professions=str(data_dir / "professions.txt"),
                          out_dir=str(tmp_path / "out"))
        pipeline.run_stage("lexicon", cfg)
        out = tmp_path / "out" / "lexicon"
        review = (out / "review.csv").read_text(encoding="utf-8")
        assert "Model" in review and "Hebamme" in review
        lines = (out / "entries.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 36
