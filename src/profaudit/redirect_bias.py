"""Classify professions into redirect-bias groups from the page states of
their male, female, and neutral titles.

``build_presence`` gives a profession one PageState per role it has a title
for, in ``ROLES`` order; a role without a title has no state, and no row in
``presence.csv``. ``classify`` reads such a role as missing. It is a pure
precedence ladder over the three roles:

1. both gendered titles are (validated) articles        -> neutral
2. one gendered title redirects to the opposite title   -> bias of target
   (both redirecting to each other is evidence of neither bias: the
   ladder goes on, to neutral with a neutral article, else no evidence)
3. one gendered article, opposite redirects elsewhere   -> neutral
4. only the male article exists                         -> male bias
5. only the female article exists                       -> female bias
6. no gendered article, but a neutral article exists or
   a gendered title redirects to a neutral/other target -> neutral
7. otherwise                                            -> no evidence

Redirect evidence is inspected before absence evidence, so a female title
redirecting to the male article yields male bias even though "only a male
article exists" would also hold. Redirect targets outside the
profession's own confirmed titles count as neutral-or-other; multi-hop
redirects classify by their final resolved target. A redirect whose chain
runs in a cycle keeps its first hop as the target and counts as
neutral-or-other. Articles outside the profession-category closure are
treated as absent by the classifier but still show up in the tally as
"other pages".

``tally`` counts the states into the paper's Tables 1a-1c and Figures
4-5: a dict from table name to a list of rows, at most one per title
gender, each a list of cells in the order of the columns ``TABLES`` names.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum

from .corpus import CorpusSnapshot, is_profession_article, resolve
from .labels import BiasGroup
from .text import nfc


class PageKind(str, Enum):
    MISSING = "missing"
    ARTICLE = "article"
    REDIRECT = "redirect"


class TargetKind(str, Enum):
    MALE_TITLE = "male_title"
    FEMALE_TITLE = "female_title"
    NEUTRAL_OR_OTHER = "neutral_or_other"


# the redirect evidence of one title: the cells of its presence.csv row.
# A redirect has a target and its kind; ``about_profession`` tells whether
# an article is inside the profession-category closure, and stays True for
# redirects and missing pages.
PageState = namedtuple("PageState",
                       "title kind target target_kind about_profession",
                       defaults=(None, None, True))

ROLES = ("male", "female", "neutral")

# the state classify reads for a role without a title
_NO_TITLE = PageState(None, PageKind.MISSING)


def is_article(state: PageState) -> bool:
    """Whether ``state`` is a validated article: one about the profession."""
    return state.kind is PageKind.ARTICLE and state.about_profession


def _redirects_to(state: PageState, target_kind: TargetKind) -> bool:
    return state.kind is PageKind.REDIRECT and state.target_kind is target_kind


def classify(states: dict[str, PageState]) -> BiasGroup:
    """Total, deterministic precedence ladder over ``{role: PageState}``;
    see the module docstring."""
    male, female, neutral = (states.get(role, _NO_TITLE) for role in ROLES)

    # (1) both gendered articles exist
    if is_article(male) and is_article(female):
        return BiasGroup.NEUTRAL

    # (2) redirect to the opposite gendered title wins over absence; two
    # contradictory redirects, each title to the other, fall through
    to_male = _redirects_to(female, TargetKind.MALE_TITLE)
    if to_male != _redirects_to(male, TargetKind.FEMALE_TITLE):
        return BiasGroup.MALE_BIAS if to_male else BiasGroup.FEMALE_BIAS

    # (3) one gendered article and the opposite title redirects somewhere
    # that is neither gendered title
    if is_article(male) and _redirects_to(female, TargetKind.NEUTRAL_OR_OTHER):
        return BiasGroup.NEUTRAL
    if is_article(female) and _redirects_to(male, TargetKind.NEUTRAL_OR_OTHER):
        return BiasGroup.NEUTRAL

    # (4) / (5) a single gendered article
    if is_article(male):
        return BiasGroup.MALE_BIAS
    if is_article(female):
        return BiasGroup.FEMALE_BIAS

    # (6) neutral representation: a neutral article, or a gendered title
    # redirecting to a neutral/other target
    if is_article(neutral):
        return BiasGroup.NEUTRAL
    if (_redirects_to(male, TargetKind.NEUTRAL_OR_OTHER)
            or _redirects_to(female, TargetKind.NEUTRAL_OR_OTHER)):
        return BiasGroup.NEUTRAL

    return BiasGroup.NO_EVIDENCE


def build_presence(titles_by_role: dict[str, list[str]],
                   snapshot: CorpusSnapshot, closure: set[str]
                   ) -> dict[str, PageState]:
    """Resolve every confirmed title of a profession against the snapshot.

    ``titles_by_role`` maps "male"/"female"/"neutral" to the confirmed
    titles of that role (original plus reviewer-confirmed alternates).
    The result maps each role with a title, in ``ROLES`` order, to its
    state. When a role has several titles, the strongest evidence wins:
    validated article > redirect to opposite title > redirect elsewhere >
    non-profession article > missing > redirect to another title of the
    same role. Such an alias ranks last because the title it leads to
    competes with its own state, so adding an alias changes no state.
    """
    own = {role: {nfc(t) for t in titles_by_role.get(role, [])}
           for role in ROLES}

    def ranked(title: str, role: str) -> tuple[int, str, PageState]:
        """The state of ``title`` as a title of ``role``, after its rank
        and title, which order the evidence."""
        title = nfc(title)
        rec = snapshot.records.get(title)
        if rec is None or not rec.exists:
            return 0, title, PageState(title, PageKind.MISSING)
        if not rec.is_redirect:
            about = is_profession_article(rec, closure)
            return (4 if about else 1), title, PageState(
                title, PageKind.ARTICLE, about_profession=about)
        # a cycle resolves to None, which is in no title set
        final = resolve(title, snapshot)
        if final in own["male"]:
            kind = TargetKind.MALE_TITLE
        elif final in own["female"]:
            kind = TargetKind.FEMALE_TITLE
        else:
            kind = TargetKind.NEUTRAL_OR_OTHER
        state = PageState(title, PageKind.REDIRECT,
                          rec.redirect_target if final is None else final,
                          kind)
        if final in own[role]:
            return -1, title, state
        return (2 if kind is TargetKind.NEUTRAL_OR_OTHER else 3), title, state

    return {role: max(ranked(t, role) for t in titles)[-1]
            for role in ROLES if (titles := titles_by_role.get(role))}


# the columns of each table ``tally`` returns, one CSV of the classify stage
# each; the first names the title gender of the row
TABLES = {
    "table_1a": ("title_gender", "all", "wiki_pages", "redirects", "no_page"),
    "table_1b": ("title_gender", "all_wiki_pages", "validated",
                 "other_pages"),
    "table_1c": ("title_gender", "all_redirects", "to_male", "to_female",
                 "to_opposite", "other_redirects"),
    "figure4": ("title_gender", "n", "page_share", "redirect_share",
                "no_page_share"),
    "figure5": ("title_gender", "n_redirects", "to_opposite_share",
                "other_share"),
}


def tally(presences) -> dict[str, list[list]]:
    """The rows of Tables 1a-1c and Figures 4-5, by table name, from the
    ``build_presence`` results of the professions.

    A profession counts towards a role's row when it has a title of that
    role. Each of Tables 1a-1c has one row per role, in ``ROLES`` order,
    with pages + redirects + no_page = all and validated + other_pages =
    pages. Figure 4 gives, per role with a title, the shares of pages,
    redirects and absent titles; Figure 5, per role with a redirect, the
    shares of its redirects that land on the opposite gendered title and
    elsewhere. A gendered role's opposite is the other gender's title, the
    neutral role's either gendered title; a redirect to a title of the
    row's own gender counts as elsewhere. Row cells follow the columns
    named in ``TABLES``.
    """
    counts = {role: Counter() for role in ROLES}
    for states in presences:
        for role, state in states.items():
            c = counts[role]
            c["all"] += 1
            if state.kind is PageKind.ARTICLE:
                c["pages"] += 1
                c["validated" if state.about_profession else "other"] += 1
            elif state.kind is PageKind.REDIRECT:
                c["redirects"] += 1
                c[state.target_kind] += 1

    tables: dict[str, list[list]] = {name: [] for name in TABLES}
    for role in ROLES:
        c = counts[role]
        total, pages, redirects = c["all"], c["pages"], c["redirects"]
        no_page = total - pages - redirects
        to_male = c[TargetKind.MALE_TITLE]
        to_female = c[TargetKind.FEMALE_TITLE]
        opposite = {"male": to_female, "female": to_male}.get(
            role, to_male + to_female)
        other = redirects - opposite
        tables["table_1a"].append([role, total, pages, redirects, no_page])
        tables["table_1b"].append([role, pages, c["validated"], c["other"]])
        tables["table_1c"].append([role, redirects, to_male, to_female,
                                   opposite, other])
        if total:
            tables["figure4"].append([role, total, pages / total,
                                      redirects / total, no_page / total])
        if redirects:
            tables["figure5"].append([role, redirects, opposite / redirects,
                                      other / redirects])
    return tables
