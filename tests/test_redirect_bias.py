import itertools
from collections import Counter

import pytest

from profaudit import redirect_bias as rb
from profaudit.corpus import ArticleRecord, build_snapshot, category_closure
from profaudit.redirect_bias import (BiasGroup, PageKind, PageState,
                                     ProfessionPresence, TargetKind, classify)


def st_missing():
    return PageState(PageKind.MISSING)


def st_article(valid=True):
    return PageState(PageKind.ARTICLE, about_profession=valid)


def st_redirect(kind):
    return PageState(PageKind.REDIRECT, target="X", target_kind=kind)


def presence(male, female, neutral=None):
    return ProfessionPresence("p", male=male, female=female,
                              neutral=neutral or st_missing())


# hand-derived rule table over the 16 core (male, female) combinations,
# neutral title absent; keys are (male state, female state)
HAND_TABLE = {
    ("missing", "missing"): BiasGroup.NO_EVIDENCE,
    ("missing", "article"): BiasGroup.FEMALE_BIAS,
    ("missing", "r_male"): BiasGroup.MALE_BIAS,
    ("missing", "r_other"): BiasGroup.NEUTRAL,
    ("article", "missing"): BiasGroup.MALE_BIAS,
    ("article", "article"): BiasGroup.NEUTRAL,
    ("article", "r_male"): BiasGroup.MALE_BIAS,
    ("article", "r_other"): BiasGroup.NEUTRAL,
    ("r_female", "missing"): BiasGroup.FEMALE_BIAS,
    ("r_female", "article"): BiasGroup.FEMALE_BIAS,
    ("r_female", "r_male"): BiasGroup.MALE_BIAS,
    ("r_female", "r_other"): BiasGroup.FEMALE_BIAS,
    ("r_other", "missing"): BiasGroup.NEUTRAL,
    ("r_other", "article"): BiasGroup.NEUTRAL,
    ("r_other", "r_male"): BiasGroup.MALE_BIAS,
    ("r_other", "r_other"): BiasGroup.NEUTRAL,
}


def male_state(name):
    return {
        "missing": st_missing(),
        "article": st_article(),
        "r_female": st_redirect(TargetKind.FEMALE_TITLE),
        "r_other": st_redirect(TargetKind.NEUTRAL_OR_OTHER),
    }[name]


def female_state(name):
    return {
        "missing": st_missing(),
        "article": st_article(),
        "r_male": st_redirect(TargetKind.MALE_TITLE),
        "r_other": st_redirect(TargetKind.NEUTRAL_OR_OTHER),
    }[name]


class TestClassify:
    @pytest.mark.parametrize("male,female", list(HAND_TABLE))
    def test_hand_truth_table(self, male, female):
        got = classify(presence(male_state(male), female_state(female)))
        assert got is HAND_TABLE[(male, female)]

    def test_female_redirects_to_male_article(self):
        # the Lehrerin -> Lehrer constellation
        p = presence(st_article(), st_redirect(TargetKind.MALE_TITLE))
        assert classify(p) is BiasGroup.MALE_BIAS

    def test_male_redirects_to_neutral_name(self):
        # the Dressman -> Model constellation: no gendered article at all
        p = presence(st_redirect(TargetKind.NEUTRAL_OR_OTHER), st_missing())
        assert classify(p) is BiasGroup.NEUTRAL

    def test_both_missing_no_neutral(self):
        assert classify(presence(st_missing(), st_missing())) is BiasGroup.NO_EVIDENCE

    def test_neutral_article_only(self):
        p = presence(st_missing(), st_missing(), st_article())
        assert classify(p) is BiasGroup.NEUTRAL

    def test_neutral_redirect_is_not_evidence(self):
        p = presence(st_missing(), st_missing(),
                     st_redirect(TargetKind.NEUTRAL_OR_OTHER))
        assert classify(p) is BiasGroup.NO_EVIDENCE

    def test_rule_one_dominates_neutral_state(self):
        for neutral in [st_missing(), st_article(),
                        st_redirect(TargetKind.MALE_TITLE)]:
            p = presence(st_article(), st_article(), neutral)
            assert classify(p) is BiasGroup.NEUTRAL

    def test_unvalidated_article_counts_as_absent(self):
        p = presence(st_article(valid=False), st_missing())
        assert classify(p) is BiasGroup.NO_EVIDENCE
        p = presence(st_article(valid=False), st_article())
        assert classify(p) is BiasGroup.FEMALE_BIAS

    def test_totality_over_full_enumeration(self):
        male_states = [st_missing(), st_article(), st_article(False),
                       st_redirect(TargetKind.FEMALE_TITLE),
                       st_redirect(TargetKind.NEUTRAL_OR_OTHER),
                       st_redirect(TargetKind.MALE_TITLE)]
        female_states = [st_missing(), st_article(), st_article(False),
                         st_redirect(TargetKind.MALE_TITLE),
                         st_redirect(TargetKind.NEUTRAL_OR_OTHER),
                         st_redirect(TargetKind.FEMALE_TITLE)]
        neutral_states = [st_missing(), st_article(), st_article(False),
                          st_redirect(TargetKind.MALE_TITLE),
                          st_redirect(TargetKind.FEMALE_TITLE),
                          st_redirect(TargetKind.NEUTRAL_OR_OTHER)]
        seen = set()
        for m, f, n in itertools.product(male_states, female_states,
                                         neutral_states):
            got = classify(presence(m, f, n))
            assert isinstance(got, BiasGroup)
            seen.add(got)
        assert seen == set(BiasGroup)


def fixture_snapshot():
    records = [
        ArticleRecord("Kategorie:Heilberuf", categories={"Beruf"}),
        ArticleRecord("Lehrer", categories={"Beruf"}, plain_text="L"),
        ArticleRecord("Lehrerin", redirect_target="Lehrer"),
        ArticleRecord("Hebamme", categories={"Heilberuf"}, plain_text="H"),
        ArticleRecord("Entbindungspfleger", redirect_target="Hebamme"),
        ArticleRecord("Model", categories={"Beruf"}, plain_text="M"),
        ArticleRecord("Dressman", redirect_target="Model"),
        ArticleRecord("Beamter", categories={"Recht"}, plain_text="B"),
        ArticleRecord("Alt", redirect_target="Mittel"),
        ArticleRecord("Mittel", redirect_target="Lehrer"),
    ]
    return build_snapshot({r.title: r for r in records})


class TestBuildPresence:
    def setup_method(self):
        self.snap = fixture_snapshot()
        self.closure = category_closure(["Beruf"], 5, self.snap)

    def test_article_and_opposite_redirect(self):
        p = rb.build_presence("p1", {"male": ["Lehrer"], "female": ["Lehrerin"]},
                              self.snap, self.closure)
        assert p.male.kind is PageKind.ARTICLE and p.male.about_profession
        assert p.female.kind is PageKind.REDIRECT
        assert p.female.target_kind is TargetKind.MALE_TITLE
        assert classify(p) is BiasGroup.MALE_BIAS

    def test_male_redirect_to_female(self):
        p = rb.build_presence("p2", {"male": ["Entbindungspfleger"],
                                     "female": ["Hebamme"]},
                              self.snap, self.closure)
        assert p.male.target_kind is TargetKind.FEMALE_TITLE
        assert classify(p) is BiasGroup.FEMALE_BIAS

    def test_redirect_to_foreign_neutral(self):
        p = rb.build_presence("p3", {"male": ["Dressman"]},
                              self.snap, self.closure)
        assert p.male.target_kind is TargetKind.NEUTRAL_OR_OTHER
        assert p.male.target == "Model"
        assert classify(p) is BiasGroup.NEUTRAL

    def test_multi_hop_classified_by_final_target(self):
        p = rb.build_presence("p4", {"male": ["Lehrer"], "female": ["Alt"]},
                              self.snap, self.closure)
        assert p.female.target == "Lehrer"
        assert p.female.target_kind is TargetKind.MALE_TITLE

    def test_unvalidated_article_flagged(self):
        p = rb.build_presence("p5", {"male": ["Beamter"]},
                              self.snap, self.closure)
        assert p.male.kind is PageKind.ARTICLE
        assert not p.male.about_profession
        assert classify(p) is BiasGroup.NO_EVIDENCE

    def test_alternate_titles_strongest_evidence_wins(self):
        p = rb.build_presence("p6", {"male": ["Chiefsteward", "Lehrer"]},
                              self.snap, self.closure)
        assert p.male.kind is PageKind.ARTICLE
        assert p.male.title == "Lehrer"


def by_role(rows, table):
    """Each role's row of one table as {column: value}."""
    columns = rb.TABLES[table]
    return {row[0]: dict(zip(columns[1:], row[1:])) for row in rows[table]}


class TestTally:
    def test_empty_input_all_zero(self):
        tables = rb.tally([])
        assert set(tables) == set(rb.TABLES)
        for name in ("table_1a", "table_1b", "table_1c"):
            assert [row[0] for row in tables[name]] == list(rb.ROLES)
            assert all(v == 0 for row in tables[name] for v in row[1:])
        assert tables["figure4"] == [] and tables["figure5"] == []

    def test_counts_and_conservation(self):
        snap = fixture_snapshot()
        closure = category_closure(["Beruf"], 5, snap)
        profs = {
            "p1": {"male": ["Lehrer"], "female": ["Lehrerin"]},
            "p2": {"male": ["Entbindungspfleger"], "female": ["Hebamme"]},
            "p3": {"male": ["Dressman"]},
            "p4": {"neutral": ["Model"]},
            "p5": {"male": ["Beamter"], "female": ["Beamtin"]},
        }
        presences = [rb.build_presence(pid, roles, snap, closure)
                     for pid, roles in profs.items()]
        tables = rb.tally(presences)
        t1a, t1b, t1c = (by_role(tables, name)
                         for name in ("table_1a", "table_1b", "table_1c"))

        assert t1a["male"]["all"] == 4  # p1, p2, p3, p5 carry a male title
        assert t1a["male"]["wiki_pages"] == 2  # Lehrer, Beamter
        assert t1b["male"]["validated"] == 1  # Lehrer only
        assert t1b["male"]["other_pages"] == 1  # Beamter
        assert t1a["male"]["redirects"] == 2  # Entbindungspfleger, Dressman
        assert t1c["male"]["to_female"] == 1
        assert t1c["male"]["other_redirects"] == 1
        assert t1a["male"]["no_page"] == 0

        assert t1a["female"]["all"] == 3
        assert t1c["female"]["to_male"] == 1
        assert t1a["female"]["no_page"] == 1  # Beamtin

        assert t1b["neutral"]["validated"] == 1

        # conservation: bias groups sum to the classified professions
        bias_counts = Counter(classify(p).value for p in presences)
        assert sum(bias_counts.values()) == len(profs)
        assert bias_counts["male_bias"] == 1
        assert bias_counts["female_bias"] == 1
        assert bias_counts["neutral"] == 2
        assert bias_counts["no_evidence"] == 1

        # row identities: pages + redirects + no_page = all, validated +
        # other = pages, and the redirect columns add up across the tables
        for role in rb.ROLES:
            a, b, c = t1a[role], t1b[role], t1c[role]
            assert a["wiki_pages"] + a["redirects"] + a["no_page"] == a["all"]
            assert b["validated"] + b["other_pages"] == b["all_wiki_pages"]
            assert b["all_wiki_pages"] == a["wiki_pages"]
            assert c["all_redirects"] == a["redirects"]
            assert c["to_male"] + c["to_female"] == c["to_opposite"]
            assert c["to_opposite"] + c["other_redirects"] == \
                c["all_redirects"]

    def test_figure_rows(self):
        snap = fixture_snapshot()
        closure = category_closure(["Beruf"], 5, snap)
        presences = [rb.build_presence("p1", {"male": ["Lehrer"],
                                              "female": ["Lehrerin"]},
                                       snap, closure)]
        tables = rb.tally(presences)
        fig4 = by_role(tables, "figure4")
        assert fig4["male"]["page_share"] == 1.0
        assert fig4["female"]["redirect_share"] == 1.0
        assert "neutral" not in fig4  # no neutral title
        fig5 = by_role(tables, "figure5")
        assert fig5["female"]["to_opposite_share"] == 1.0
        assert set(fig5) == {"female"}  # the only role with a redirect
