import pytest

from profaudit import lexicon
from profaudit.lexicon import RawLine, Resolution


def run_split(text, line_no=1):
    cleaned = lexicon.preprocess(RawLine(text, line_no))
    assert cleaned is not None
    return lexicon.split(cleaned)


class TestPreprocess:
    @pytest.mark.parametrize("text", [
        "Bergbau (Tätigkeitsfeld)",
        "Informatik (grundständig)",
        "Physik (weiterführend)",
        "Medizin (Staatsexamen)",
    ])
    def test_field_names_excluded(self, text):
        assert lexicon.preprocess(RawLine(text, 1)) is None

    def test_plain_line_unchanged(self):
        got = lexicon.preprocess(RawLine("Lehrer/in", 3))
        assert got.text == "Lehrer/in"
        assert got.line_no == 3

    def test_abbreviation_expanded(self):
        got = lexicon.preprocess(RawLine("Fachkraft - med. Dokumentation", 1))
        assert got.text == "Fachkraft - medizinische Dokumentation"

    def test_custom_abbreviation_table(self):
        got = lexicon.preprocess(RawLine("techn. Assistent", 1),
                                 {"techn.": "technischer"})
        assert got.text == "technischer Assistent"

    def test_whitespace_fixes(self):
        got = lexicon.preprocess(RawLine("  Lehrer / in ", 1))
        assert got.text == "Lehrer/in"

    def test_blank_line_dropped(self):
        assert lexicon.preprocess(RawLine("   ", 1)) is None


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
        assert a == b

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
        entries = [lexicon.split(RawLine("Model", 1))]
        path = tmp_path / "manual.csv"
        path.write_text("line_no,group,male,female,neutral\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].resolution is Resolution.UNRESOLVED

    def test_neutral_override(self, tmp_path):
        entries = [lexicon.split(RawLine("Model", 4))]
        path = tmp_path / "manual.csv"
        path.write_text("4,neutral,,,Model\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].resolution is Resolution.MANUAL
        assert entries[0].neutral_title == "Model"

    def test_pair_override(self, tmp_path):
        entries = [lexicon.split(RawLine("Hebamme", 2))]
        path = tmp_path / "manual.csv"
        path.write_text("2,pair,Entbindungspfleger,Hebamme,\n", encoding="utf-8")
        lexicon.load_manual_assignments(path, entries)
        assert entries[0].male_title == "Entbindungspfleger"
        assert entries[0].female_title == "Hebamme"

    def test_unknown_line_no_is_error(self, tmp_path):
        entries = [lexicon.split(RawLine("Model", 1))]
        path = tmp_path / "manual.csv"
        path.write_text("999999,neutral,,,X\n", encoding="utf-8")
        with pytest.raises(ValueError, match="999999"):
            lexicon.load_manual_assignments(path, entries)

    def test_equal_titles_rejected(self, tmp_path):
        entries = [lexicon.split(RawLine("Model", 1))]
        path = tmp_path / "manual.csv"
        path.write_text("1,pair,Model,Model,\n", encoding="utf-8")
        with pytest.raises(ValueError):
            lexicon.load_manual_assignments(path, entries)

    def test_repeated_line_no_names_both_rows(self, tmp_path):
        # the later row used to win without a word
        entries = [lexicon.split(RawLine("Fookraft", 2))]
        path = tmp_path / "manual.csv"
        path.write_text("line_no,group,male,female,neutral\n"
                        "2,neutral,,,Fookraft\n# note\n"
                        "2,pair,Foomann,Foofrau,\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^manual assignments row 4: "
                           r"duplicate line_no 2 \(first on row 2\)$"):
            lexicon.load_manual_assignments(path, entries)


class TestFixtureFile:
    def test_partition_and_counts(self, data_dir):
        entries = lexicon.parse_file(data_dir / "professions.txt")
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

    def test_round_trip_files(self, data_dir, tmp_path):
        entries = lexicon.parse_file(data_dir / "professions.txt")
        lexicon.write_review_file(entries, tmp_path / "review.csv")
        review = (tmp_path / "review.csv").read_text(encoding="utf-8")
        assert "Model" in review and "Hebamme" in review
        lexicon.write_entries(entries, tmp_path / "entries.jsonl")
        lines = (tmp_path / "entries.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 36
