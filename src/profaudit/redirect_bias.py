"""Classify professions into redirect-bias groups from the page states of
their male, female, and neutral titles.

The classifier is a pure precedence ladder over three PageStates:

1. both gendered titles are (validated) articles        -> neutral
2. a gendered title redirects to the opposite title     -> bias of target
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
redirects classify by their final resolved target. Articles outside the
profession-category closure are treated as absent by the classifier but
still show up in the tally as "other pages".

``tally`` counts the presences into the paper's Tables 1a-1c and Figures
4-5: a dict from table name to a list of rows, at most one per title
gender, each a list of cells in the order of the columns ``TABLES`` names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .corpus import (CorpusSnapshot, RedirectCycleError, is_profession_article,
                     resolve)
from .text import nfc


class PageKind(str, Enum):
    MISSING = "missing"
    ARTICLE = "article"
    REDIRECT = "redirect"


class TargetKind(str, Enum):
    MALE_TITLE = "male_title"
    FEMALE_TITLE = "female_title"
    NEUTRAL_OR_OTHER = "neutral_or_other"


class BiasGroup(str, Enum):
    MALE_BIAS = "male_bias"
    FEMALE_BIAS = "female_bias"
    NEUTRAL = "neutral"
    NO_EVIDENCE = "no_evidence"


@dataclass
class PageState:
    kind: PageKind
    target: str | None = None
    target_kind: TargetKind | None = None
    # article is inside the profession-category closure; redirects and
    # missing pages keep the default
    about_profession: bool = True
    title: str | None = None

    def __post_init__(self):
        if self.kind is PageKind.REDIRECT and self.target_kind is None:
            raise ValueError("redirect PageState needs a target_kind")


@dataclass
class ProfessionPresence:
    profession_id: str
    male: PageState = field(default_factory=lambda: PageState(PageKind.MISSING))
    female: PageState = field(default_factory=lambda: PageState(PageKind.MISSING))
    neutral: PageState = field(default_factory=lambda: PageState(PageKind.MISSING))


def _is_article(state: PageState) -> bool:
    return state.kind is PageKind.ARTICLE and state.about_profession


def _redirects_to(state: PageState, target_kind: TargetKind) -> bool:
    return state.kind is PageKind.REDIRECT and state.target_kind is target_kind


def classify(presence: ProfessionPresence) -> BiasGroup:
    """Total, deterministic precedence ladder; see the module docstring."""
    male, female, neutral = presence.male, presence.female, presence.neutral

    # (1) both gendered articles exist
    if _is_article(male) and _is_article(female):
        return BiasGroup.NEUTRAL

    # (2) redirect to the opposite gendered title wins over absence;
    # female -> male checked first for determinism on contradictory data
    if _redirects_to(female, TargetKind.MALE_TITLE):
        return BiasGroup.MALE_BIAS
    if _redirects_to(male, TargetKind.FEMALE_TITLE):
        return BiasGroup.FEMALE_BIAS

    # (3) one gendered article and the opposite title redirects somewhere
    # that is neither gendered title
    if _is_article(male) and _redirects_to(female, TargetKind.NEUTRAL_OR_OTHER):
        return BiasGroup.NEUTRAL
    if _is_article(female) and _redirects_to(male, TargetKind.NEUTRAL_OR_OTHER):
        return BiasGroup.NEUTRAL

    # (4) / (5) a single gendered article
    if _is_article(male):
        return BiasGroup.MALE_BIAS
    if _is_article(female):
        return BiasGroup.FEMALE_BIAS

    # (6) neutral representation: a neutral article, or a gendered title
    # redirecting to a neutral/other target
    if _is_article(neutral):
        return BiasGroup.NEUTRAL
    if (_redirects_to(male, TargetKind.NEUTRAL_OR_OTHER)
            or _redirects_to(female, TargetKind.NEUTRAL_OR_OTHER)):
        return BiasGroup.NEUTRAL

    return BiasGroup.NO_EVIDENCE


def build_presence(profession_id: str, titles_by_role: dict[str, list[str]],
                   snapshot: CorpusSnapshot, closure: set[str]) -> ProfessionPresence:
    """Resolve every confirmed title of a profession against the snapshot.

    ``titles_by_role`` maps "male"/"female"/"neutral" to the confirmed
    titles of that role (original plus reviewer-confirmed alternates).
    When a role has several titles, the strongest evidence wins:
    validated article > redirect to opposite title > redirect elsewhere >
    non-profession article > missing.
    """
    male_titles = {nfc(t) for t in titles_by_role.get("male", [])}
    female_titles = {nfc(t) for t in titles_by_role.get("female", [])}

    def state_for(title: str) -> PageState:
        title = nfc(title)
        rec = snapshot.records.get(title)
        if rec is None or not rec.exists:
            return PageState(PageKind.MISSING, title=title)
        if rec.is_redirect:
            try:
                final = resolve(title, snapshot)
            except RedirectCycleError:
                return PageState(PageKind.REDIRECT, target=rec.redirect_target,
                                 target_kind=TargetKind.NEUTRAL_OR_OTHER,
                                 title=title)
            if final.final_title in male_titles:
                kind = TargetKind.MALE_TITLE
            elif final.final_title in female_titles:
                kind = TargetKind.FEMALE_TITLE
            else:
                kind = TargetKind.NEUTRAL_OR_OTHER
            return PageState(PageKind.REDIRECT, target=final.final_title,
                             target_kind=kind, title=title)
        return PageState(PageKind.ARTICLE,
                         about_profession=is_profession_article(rec, closure),
                         title=title)

    def strength(state: PageState) -> int:
        if _is_article(state):
            return 4
        if state.kind is PageKind.REDIRECT:
            return 3 if state.target_kind is not TargetKind.NEUTRAL_OR_OTHER else 2
        if state.kind is PageKind.ARTICLE:
            return 1
        return 0

    def best_state(role: str) -> PageState:
        states = [state_for(t) for t in titles_by_role.get(role, [])]
        if not states:
            return PageState(PageKind.MISSING)
        return max(states, key=lambda s: (strength(s), s.title or ""))

    return ProfessionPresence(
        profession_id=profession_id,
        male=best_state("male"),
        female=best_state("female"),
        neutral=best_state("neutral"),
    )


ROLES = ("male", "female", "neutral")

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


def tally(presences: list[ProfessionPresence]) -> dict[str, list[list]]:
    """The rows of Tables 1a-1c and Figures 4-5, by table name.

    A profession counts towards a role's row when it has a title of that
    role. Each of Tables 1a-1c has one row per role, in ``ROLES`` order,
    with pages + redirects + no_page = all and validated + other_pages =
    pages. Figure 4 gives, per role with a title, the shares of pages,
    redirects and absent titles; Figure 5, per role with a redirect, the
    shares of its redirects that land on the opposite gendered title and
    elsewhere. Row cells follow the columns named in ``TABLES``.
    """
    counts = {role: Counter() for role in ROLES}
    for presence in presences:
        for role in ROLES:
            state: PageState = getattr(presence, role)
            if state.kind is PageKind.MISSING and state.title is None:
                continue  # profession has no title for this role
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
        other = c[TargetKind.NEUTRAL_OR_OTHER]
        tables["table_1a"].append([role, total, pages, redirects, no_page])
        tables["table_1b"].append([role, pages, c["validated"], c["other"]])
        tables["table_1c"].append([role, redirects, to_male, to_female,
                                   to_male + to_female, other])
        if total:
            tables["figure4"].append([role, total, pages / total,
                                      redirects / total, no_page / total])
        if redirects:
            tables["figure5"].append([role, redirects,
                                      (to_male + to_female) / redirects,
                                      other / redirects])
    return tables
