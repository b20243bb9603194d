import unicodedata

import pytest

from profaudit import labor
from profaudit.config import AuditConfig
from profaudit.labor import (DominatedGroup, LaborStat, MajorityGroup,
                             MatchKind, gender_group)

CFG = AuditConfig()


def majority(n_men, n_women, threshold=CFG.majority_threshold):
    return gender_group(MajorityGroup, n_men, n_women, threshold,
                        strict=True)


def dominated(n_men, n_women, threshold=CFG.dominated_threshold):
    return gender_group(DominatedGroup, n_men, n_women, threshold,
                        strict=False)


SWAPPED = {"FEMALE": "MALE", "MALE": "FEMALE", "NONE": "NONE"}


def assert_mirrors(group, threshold):
    """Swapping the counts swaps FEMALE and MALE, over a 60x60 grid."""
    for men in range(60):
        for women in range(60):
            if men + women:
                got = group(men, women, threshold)
                assert (group(women, men, threshold).name
                        == SWAPPED[got.name]), (men, women)


class TestLoadStats:
    def test_example_row(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("code,label,men,women\n"
                     "8445,(Fremd-)Sprachenlehrer/innen,100,300\n",
                     encoding="utf-8")
        got = labor.load_stats(p)
        assert got[0].kldb_code == "8445"
        assert got[0].pct_women == pytest.approx(0.75)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("", encoding="utf-8")
        assert labor.load_stats(p) == []

    def test_duplicate_code_rejected(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("8445,A,1,1\n8445,B,2,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^labor stats row 2: duplicate "
                           r"code '8445' \(first on row 1\)$"):
            labor.load_stats(p)

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("8445,A,viel,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            labor.load_stats(p)

    def test_complement_identity(self, tmp_path):
        p = tmp_path / "stats.csv"
        p.write_text("1,A,7,13\n2,B,1,0\n", encoding="utf-8")
        for s in labor.load_stats(p):
            pct_men = s.n_men / (s.n_men + s.n_women)
            assert pct_men + s.pct_women == pytest.approx(1.0)


class TestLoadClassifier:
    def test_conflicting_code_names_both_rows(self, tmp_path):
        p = tmp_path / "classifier.csv"
        p.write_text("name,code\nLehrer,8411\nArzt,8140\nLehrer,8412\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=r"^classifier row 4: conflicting "
                           r"code for 'Lehrer' \(first on row 2\)$"):
            labor.load_classifier(p)

    def test_identical_repeat_accepted(self, tmp_path):
        p = tmp_path / "classifier.csv"
        p.write_text("name,code\nLehrer,8411\nArzt,8140\nLehrer,8411\n",
                     encoding="utf-8")
        assert labor.load_classifier(p) == {"Lehrer": "8411", "Arzt": "8140"}

    def test_byte_order_mark_skipped(self, tmp_path):
        # with the mark, the header was read as a name, "\ufeffname"
        p = tmp_path / "classifier.csv"
        p.write_text("\ufeffname,code\nLehrer,8411\n", encoding="utf-8")
        assert labor.load_classifier(p) == {"Lehrer": "8411"}

    def test_names_are_nfc(self, tmp_path):
        # profession titles are NFC, so an NFD name left its profession
        # unmatched without a word
        nfd = unicodedata.normalize("NFD", "Ärztin")
        p = tmp_path / "classifier.csv"
        p.write_text(f"name,code\n{nfd},8140\nÄrztin,8141\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=r"^classifier row 3: conflicting "
                           r"code for 'Ärztin' \(first on row 2\)$"):
            labor.load_classifier(p)
        p.write_text(f"{nfd},8140\n", encoding="utf-8")
        classifier = labor.load_classifier(p)
        assignments, unmatched = labor.assign(
            [("p1", ["Ärztin"])], classifier, [LaborStat("8140", "A", 1, 3)])
        assert unmatched == []
        assert assignments[0].kldb_code == "8140"


class TestAssign:
    STATS = [LaborStat("8445", "Sprachlehrer", 100, 300),
             LaborStat("813", "Pflege", 100, 400)]
    CLASSIFIER = {"Lehrer": "8445",
                  "Sprachlehrer": "84451",
                  "Krankenpfleger": "8445x",
                  "Hebamme": "81302"}

    def test_exact_code(self):
        assignments, unmatched = labor.assign(
            [("p1", ["Lehrer"])], self.CLASSIFIER, self.STATS)
        assert assignments[0].kldb_code == "8445"
        assert assignments[0].match_kind is MatchKind.EXACT
        assert unmatched == []

    def test_prefix_code_five_digits(self):
        assignments, _ = labor.assign(
            [("p1", ["Sprachlehrer"])], self.CLASSIFIER, self.STATS)
        assert assignments[0].kldb_code == "8445"
        assert assignments[0].match_kind is MatchKind.PREFIX

    def test_x_encoded_subgroup(self):
        assignments, _ = labor.assign(
            [("p1", ["Krankenpfleger"])], self.CLASSIFIER, self.STATS)
        assert assignments[0].kldb_code == "8445"
        assert assignments[0].match_kind is MatchKind.PREFIX

    def test_shorter_prefix_resolution(self):
        assignments, _ = labor.assign(
            [("p1", ["Hebamme"])], self.CLASSIFIER, self.STATS)
        assert assignments[0].kldb_code == "813"

    def test_ambiguous_profession_unmatched(self):
        assignments, unmatched = labor.assign(
            [("p1", ["Fachkraft"])], self.CLASSIFIER, self.STATS)
        assert assignments == []
        assert unmatched == ["p1"]

    def test_join_conservation(self):
        professions = [("p1", ["Lehrer"]), ("p2", ["Fachkraft"]),
                       ("p3", ["Hebamme"])]
        assignments, unmatched = labor.assign(professions, self.CLASSIFIER,
                                              self.STATS)
        assert len(assignments) + len(unmatched) == len(professions)

    def test_second_title_can_match(self):
        assignments, _ = labor.assign(
            [("p1", ["Entbindungspfleger", "Hebamme"])],
            self.CLASSIFIER, self.STATS)
        assert assignments[0].matched_title == "Hebamme"


class TestGrouping:
    def test_female_majority_and_dominated(self):
        assert majority(15, 85) is MajorityGroup.FEMALE
        assert dominated(15, 85) is DominatedGroup.FEMALE

    def test_exact_half_unassigned(self):
        assert majority(5, 5) is MajorityGroup.NONE
        assert MajorityGroup.NONE.value == "unassigned"

    def test_dominated_boundary_inclusive(self):
        assert dominated(30, 70) is DominatedGroup.FEMALE
        assert dominated(70, 30) is DominatedGroup.MALE
        assert dominated(31, 69) is DominatedGroup.NONE
        assert dominated(69, 31) is DominatedGroup.NONE

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.8, 0.9])
    def test_dominated_mirrors_when_genders_swap(self, threshold):
        # at 0.8 the women's share was once tested against 1.0 - 0.8, which
        # is 0.19999999999999996: 1 man and 4 women were female-dominated,
        # 4 men and 1 woman not dominated; at 0.5 an even split was
        # female-dominated both ways round
        assert_mirrors(dominated, threshold)

    @pytest.mark.parametrize("threshold", [0.5, 0.6, 0.7])
    def test_majority_mirrors_when_genders_swap(self, threshold):
        # the women's share was once cut at the threshold: at 0.7, 60%
        # women was a male majority
        assert_mirrors(majority, threshold)

    def test_half_majority_is_the_larger_count(self):
        for men in range(200):
            for women in range(200):
                if men + women:
                    want = (MajorityGroup.FEMALE if women > men else
                            MajorityGroup.MALE if men > women else
                            MajorityGroup.NONE)
                    assert majority(men, women, 0.5) is want, (men, women)

    def test_even_split_is_no_group_at_half(self):
        assert dominated(5, 5, 0.5) is DominatedGroup.NONE
        assert majority(5, 5, 0.5) is MajorityGroup.NONE
        assert dominated(4, 5, 0.5) is DominatedGroup.FEMALE
        assert majority(5, 4, 0.5) is MajorityGroup.MALE

    def test_dominated_subset_of_majority(self):
        for women in range(101):
            dom = dominated(100 - women, women)
            maj = majority(100 - women, women)
            if dom is DominatedGroup.FEMALE:
                assert maj is MajorityGroup.FEMALE
            if dom is DominatedGroup.MALE:
                assert maj is MajorityGroup.MALE

    def test_join_rows(self):
        stats = [LaborStat("1", "A", 30, 70)]
        assignments, _ = labor.assign([("p1", ["T"])], {"T": "1"}, stats)
        rows = labor.join(assignments, stats, CFG.majority_threshold,
                          CFG.dominated_threshold)
        assert rows[0].pct_women == pytest.approx(0.7)
        assert rows[0].majority is MajorityGroup.FEMALE
        assert rows[0].dominated is DominatedGroup.FEMALE
