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


@dataclass
class RoleTally:
    total: int = 0
    pages: int = 0
    validated: int = 0
    other_pages: int = 0
    redirects: int = 0
    redirects_to_male: int = 0
    redirects_to_female: int = 0
    redirects_other: int = 0

    @property
    def no_page(self) -> int:
        return self.total - self.pages - self.redirects

    @property
    def redirects_to_opposite(self) -> int:
        return self.redirects_to_male + self.redirects_to_female


@dataclass
class RedirectReport:
    roles: dict[str, RoleTally]
    bias_counts: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "table_1a": {
                role: {"all": t.total, "wiki_pages": t.pages,
                       "redirects": t.redirects, "no_page": t.no_page}
                for role, t in self.roles.items()
            },
            "table_1b": {
                role: {"all_wiki_pages": t.pages, "validated": t.validated,
                       "other_pages": t.other_pages}
                for role, t in self.roles.items()
            },
            "table_1c": {
                role: {"all_redirects": t.redirects,
                       "to_male": t.redirects_to_male,
                       "to_female": t.redirects_to_female,
                       "to_opposite": t.redirects_to_opposite,
                       "other_redirects": t.redirects_other}
                for role, t in self.roles.items()
            },
            "bias_groups": dict(self.bias_counts),
        }


ROLES = ("male", "female", "neutral")


def tally(presences: list[ProfessionPresence],
          classifications: dict[str, BiasGroup]) -> RedirectReport:
    """Aggregate presence states into the three report tables plus
    bias-group totals."""
    roles = {role: RoleTally() for role in ROLES}
    for presence in presences:
        for role in ROLES:
            state: PageState = getattr(presence, role)
            if state.kind is PageKind.MISSING and state.title is None:
                continue  # profession has no title for this role
            t = roles[role]
            t.total += 1
            if state.kind is PageKind.ARTICLE:
                t.pages += 1
                if state.about_profession:
                    t.validated += 1
                else:
                    t.other_pages += 1
            elif state.kind is PageKind.REDIRECT:
                t.redirects += 1
                if state.target_kind is TargetKind.MALE_TITLE:
                    t.redirects_to_male += 1
                elif state.target_kind is TargetKind.FEMALE_TITLE:
                    t.redirects_to_female += 1
                else:
                    t.redirects_other += 1
    counts = Counter(group.value for group in classifications.values())
    bias_counts = {g.value: counts.get(g.value, 0) for g in BiasGroup}
    return RedirectReport(roles=roles, bias_counts=bias_counts)


def figure4_rows(report: RedirectReport) -> list[dict]:
    """Per title gender: share of pages, redirects, and absent titles."""
    rows = []
    for role in ROLES:
        t = report.roles[role]
        if t.total == 0:
            continue
        rows.append({
            "title_gender": role,
            "n": t.total,
            "page_share": t.pages / t.total,
            "redirect_share": t.redirects / t.total,
            "no_page_share": t.no_page / t.total,
        })
    return rows


def figure5_rows(report: RedirectReport) -> list[dict]:
    """Per title gender: where its redirects land."""
    rows = []
    for role in ROLES:
        t = report.roles[role]
        if t.redirects == 0:
            continue
        rows.append({
            "title_gender": role,
            "n_redirects": t.redirects,
            "to_opposite_share": t.redirects_to_opposite / t.redirects,
            "other_share": t.redirects_other / t.redirects,
        })
    return rows
