import itertools
from collections import Counter

import pytest

from profaudit import redirect_bias as rb
from profaudit.corpus import ArticleRecord, build_snapshot, category_closure
from profaudit.redirect_bias import (BiasGroup, PageKind, PageState,
                                     TargetKind, classify)


def st_missing():
    return PageState("T", PageKind.MISSING)


def st_article(valid=True):
    return PageState("T", PageKind.ARTICLE, about_profession=valid)


def st_redirect(kind):
    return PageState("T", PageKind.REDIRECT, "X", kind)


def presence(male, female, neutral=None):
    """The states of a profession by role; None stands for a role the
    profession has no title for."""
    return {role: state
            for role, state in zip(rb.ROLES, (male, female, neutral))
            if state is not None}


# every state a role can be in; None: the profession has no title for it
ALL_STATES = [None, st_missing(), st_article(), st_article(False),
              *(st_redirect(kind) for kind in TargetKind)]
_SWAPPED_TARGET = {TargetKind.MALE_TITLE: TargetKind.FEMALE_TITLE,
                   TargetKind.FEMALE_TITLE: TargetKind.MALE_TITLE}


MIRRORED_GROUP = {BiasGroup.MALE_BIAS: BiasGroup.FEMALE_BIAS,
                  BiasGroup.FEMALE_BIAS: BiasGroup.MALE_BIAS,
                  BiasGroup.NEUTRAL: BiasGroup.NEUTRAL,
                  BiasGroup.NO_EVIDENCE: BiasGroup.NO_EVIDENCE}


def swap(state):
    """``state`` with a redirect to one gendered title sent to the other."""
    if state is None or state.target_kind not in _SWAPPED_TARGET:
        return state
    return state._replace(target_kind=_SWAPPED_TARGET[state.target_kind])


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
    ("r_female", "r_male"): BiasGroup.NO_EVIDENCE,
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

    def test_no_title_reads_as_missing(self):
        # every hand-table row again, each missing title left out instead
        for (male, female), group in HAND_TABLE.items():
            m = None if male == "missing" else male_state(male)
            f = None if female == "missing" else female_state(female)
            assert classify(presence(m, f)) is group

    def test_totality_over_full_enumeration(self):
        seen = set()
        for m, f, n in itertools.product(ALL_STATES, repeat=3):
            got = classify(presence(m, f, n))
            assert isinstance(got, BiasGroup)
            seen.add(got)
        assert seen == set(BiasGroup)

    def test_contradictory_redirects_are_no_bias(self):
        # each gendered title redirects to the other: the female -> male
        # redirect was once checked first, so this was male_bias, and so
        # was its gender swap
        male = st_redirect(TargetKind.FEMALE_TITLE)
        female = st_redirect(TargetKind.MALE_TITLE)
        assert classify(presence(male, female)) is BiasGroup.NO_EVIDENCE
        assert classify(presence(male, female, st_article())) is \
            BiasGroup.NEUTRAL

    def test_mirrors_when_genders_swap(self):
        # swapping the male and female states, and the male and female
        # title targets, swaps male and female bias
        for m, f, n in itertools.product(ALL_STATES, repeat=3):
            got = classify(presence(m, f, n))
            swapped = classify(presence(swap(f), swap(m), swap(n)))
            assert swapped is MIRRORED_GROUP[got], (m, f, n)


def fixture_snapshot(*extra):
    records = [
        *extra,
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
        ArticleRecord("A", redirect_target="B"),
        ArticleRecord("B", redirect_target="A"),
        ArticleRecord("Ehemals", redirect_target="Verschwunden"),
    ]
    return build_snapshot({r.title: r for r in records})


class TestBuildPresence:
    def setup_method(self):
        self.snap = fixture_snapshot()
        self.closure = category_closure(["Beruf"], 5, self.snap)

    def test_article_and_opposite_redirect(self):
        p = rb.build_presence({"male": ["Lehrer"], "female": ["Lehrerin"]},
                              self.snap, self.closure)
        assert p["male"].kind is PageKind.ARTICLE
        assert p["male"].about_profession
        assert p["female"].kind is PageKind.REDIRECT
        assert p["female"].target_kind is TargetKind.MALE_TITLE
        assert classify(p) is BiasGroup.MALE_BIAS

    def test_male_redirect_to_female(self):
        p = rb.build_presence({"male": ["Entbindungspfleger"],
                               "female": ["Hebamme"]},
                              self.snap, self.closure)
        assert p["male"].target_kind is TargetKind.FEMALE_TITLE
        assert classify(p) is BiasGroup.FEMALE_BIAS

    def test_redirect_to_foreign_neutral(self):
        p = rb.build_presence({"male": ["Dressman"]},
                              self.snap, self.closure)
        assert p["male"].target_kind is TargetKind.NEUTRAL_OR_OTHER
        assert p["male"].target == "Model"
        assert classify(p) is BiasGroup.NEUTRAL

    def test_multi_hop_classified_by_final_target(self):
        p = rb.build_presence({"male": ["Lehrer"], "female": ["Alt"]},
                              self.snap, self.closure)
        assert p["female"].target == "Lehrer"
        assert p["female"].target_kind is TargetKind.MALE_TITLE

    def test_redirect_cycle_keeps_first_hop(self):
        p = rb.build_presence({"male": ["A"]}, self.snap, self.closure)
        assert p == {"male": PageState("A", PageKind.REDIRECT, "B",
                                       TargetKind.NEUTRAL_OR_OTHER)}
        assert classify(p) is BiasGroup.NEUTRAL

    def test_redirect_to_missing_page(self):
        p = rb.build_presence({"female": ["Ehemals"]}, self.snap,
                              self.closure)
        assert p == {"female": PageState("Ehemals", PageKind.REDIRECT,
                                         "Verschwunden",
                                         TargetKind.NEUTRAL_OR_OTHER)}
        assert classify(p) is BiasGroup.NEUTRAL

    def test_only_roles_with_a_title_in_role_order(self):
        p = rb.build_presence({"neutral": ["Model"], "female": ["Beamtin"],
                               "male": []}, self.snap, self.closure)
        assert list(p) == ["female", "neutral"]
        assert p["female"] == PageState("Beamtin", PageKind.MISSING)

    def test_unvalidated_article_flagged(self):
        p = rb.build_presence({"male": ["Beamter"]},
                              self.snap, self.closure)
        assert p["male"].kind is PageKind.ARTICLE
        assert not p["male"].about_profession
        assert classify(p) is BiasGroup.NO_EVIDENCE

    def test_alternate_titles_strongest_evidence_wins(self):
        p = rb.build_presence({"male": ["Chiefsteward", "Lehrer"]},
                              self.snap, self.closure)
        assert p["male"].kind is PageKind.ARTICLE
        assert p["male"].title == "Lehrer"


# male title <-> female title, for the snapshot below with genders swapped
MIRRORED_TITLE = {"Lehrer": "Lehrerin", "Entbindungspfleger": "Hebamme",
                  "Beamter": "Beamtin", "Chiefsteward": "Chiefstewardess",
                  "Pfleger": "Pflegerin", "Pfleger2": "Pflegerin2",
                  "Beamter (Beruf)": "Beamtin (Beruf)"}
MIRRORED_TITLE.update({f: m for m, f in MIRRORED_TITLE.items()})
OPPOSITE_ROLE = {"male": "female", "female": "male", "neutral": "neutral"}


def mirrored(title):
    return MIRRORED_TITLE.get(title, title)


def mirrored_state(state):
    """``state`` with its titles mirrored and its target kind swapped."""
    return swap(state._replace(
        title=mirrored(state.title),
        target=state.target and mirrored(state.target)))


def mirrored_tables(tables):
    """``tally`` tables with the male and female rows, and the to_male and
    to_female cells, swapped."""
    out = {}
    for name, rows in tables.items():
        mirror = []
        for role, *cells in rows:
            if name == "table_1c":
                cells[1], cells[2] = cells[2], cells[1]
            mirror.append([OPPOSITE_ROLE[role], *cells])
        out[name] = sorted(mirror, key=lambda row: rb.ROLES.index(row[0]))
    return out


class TestBuildPresenceGenderSwap:
    """Swapping the male and female titles of a snapshot, redirects
    included, mirrors each role's PageState and the group."""

    PROFESSIONS = [
        {"male": ["Lehrer"], "female": ["Lehrerin"]},
        {"male": ["Entbindungspfleger"], "female": ["Hebamme"]},
        {"male": ["Dressman"], "neutral": ["Model"]},
        {"male": ["Lehrer"], "female": ["Alt"]},
        {"male": ["A"], "female": ["Ehemals"]},
        {"male": ["Beamter"], "female": ["Beamtin"]},
        {"male": ["Chiefsteward", "Lehrer"], "female": ["Lehrerin"]},
        # contradictory redirects, each to the other role's missing title
        {"male": ["Pfleger", "Pfleger2"], "female": ["Pflegerin",
                                                     "Pflegerin2"]},
        # the only male evidence: a redirect to another male title
        {"male": ["Beamter", "Beamter (Beruf)"]},
    ]

    def test_mirrors(self):
        snap = fixture_snapshot(
            ArticleRecord("Pfleger", redirect_target="Pflegerin2"),
            ArticleRecord("Pflegerin", redirect_target="Pfleger2"),
            ArticleRecord("Beamter (Beruf)", redirect_target="Beamter"))
        swapped = build_snapshot({
            mirrored(r.title): ArticleRecord(
                mirrored(r.title), r.exists,
                r.redirect_target and mirrored(r.redirect_target),
                r.categories, plain_text=r.plain_text)
            for r in snap.records.values()})
        groups = set()
        gots, mirrors = [], []
        for titles in self.PROFESSIONS:
            got = rb.build_presence(titles, snap,
                                    category_closure(["Beruf"], 5, snap))
            swapped_titles = {role: [mirrored(t) for t in titles[other]]
                              for role, other in OPPOSITE_ROLE.items()
                              if other in titles}
            mirror = rb.build_presence(
                swapped_titles, swapped,
                category_closure(["Beruf"], 5, swapped))
            assert mirror == {role: mirrored_state(got[other])
                              for role, other in OPPOSITE_ROLE.items()
                              if other in got}
            group = classify(got)
            assert classify(mirror) is MIRRORED_GROUP[group], titles
            groups.add(group)
            gots.append(got)
            mirrors.append(mirror)
        assert groups == set(BiasGroup)
        assert rb.tally(mirrors) == mirrored_tables(rb.tally(gots))


def by_role(rows, table):
    """Each role's row of one table as {column: value}."""
    columns = rb.TABLES[table]
    return {row[0]: dict(zip(columns[1:], row[1:])) for row in rows[table]}


# the table_1c cells a role's to_opposite counts
OPPOSITE_CELLS = {"male": ("to_female",), "female": ("to_male",),
                  "neutral": ("to_male", "to_female")}


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
        presences = [rb.build_presence(roles, snap, closure)
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
            assert c["to_opposite"] == sum(c[k] for k in OPPOSITE_CELLS[role])
            assert c["to_opposite"] + c["other_redirects"] == \
                c["all_redirects"]

    def test_figure_rows(self):
        snap = fixture_snapshot()
        closure = category_closure(["Beruf"], 5, snap)
        presences = [rb.build_presence({"male": ["Lehrer"],
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

    def test_redirect_to_own_gender_is_not_opposite(self):
        # build_presence ranks such an alias below the title it leads to
        # (test_metamorphic.TestAliasInvariance); tally counts one it is
        # given as a redirect elsewhere
        p = {"male": PageState("Lehrer (Beruf)", PageKind.REDIRECT, "Lehrer",
                               TargetKind.MALE_TITLE)}
        tables = rb.tally([p])
        assert tables["table_1c"][0] == ["male", 1, 1, 0, 0, 1]
        assert tables["figure5"] == [["male", 1, 0.0, 1.0]]
