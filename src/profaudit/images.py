"""Image-dimension analysis: eligibility filtering, crowd-annotation
ingestion with gold-question worker scoring, majority-vote aggregation
into image categories, and grouped category distributions with
chi-square tests.

Annotation responses pair a person-count answer with a gender answer;
the legal pairings mirror the three crowd questionnaire variants (single
person, dominant person, several persons). Workers start at 100%
accuracy; after every batch of ten responses their accuracy on
gold-labeled images is recomputed, and a worker who falls below the
threshold is removed with all responses discarded.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum

from . import stats
from .corpus import ImageRef

log = logging.getLogger(__name__)

EXCLUDED_FORMATS = frozenset({"svg", "ogg", "ogv"})

WORKER_ACCURACY_THRESHOLD = 0.7
ACCURACY_BATCH = 10
MIN_JUDGMENTS = 3


class CountAnswer(str, Enum):
    NOT_SHOWN = "not_shown"
    NO_PERSON = "no_person"
    ONE_PERSON = "one_person"
    SEVERAL_ONE_DOMINANT = "several_one_dominant"
    SEVERAL_NO_DOMINANT = "several_no_dominant"


class GenderAnswer(str, Enum):
    FEMALE = "female"
    MALE = "male"
    ONLY_FEMALE = "only_female"
    ONLY_MALE = "only_male"
    MIXED_MOSTLY_MALE = "mixed_mostly_male"
    MIXED_MOSTLY_FEMALE = "mixed_mostly_female"
    MIXED_EQUAL = "mixed_equal"
    NOT_RECOGNIZABLE = "not_recognizable"
    NONE = "none"


class ImageCategory(str, Enum):
    MEN = "men"
    WOMEN = "women"
    MIXED_EQUAL = "mixed_equal"
    NOT_RECOGNIZABLE = "not_recognizable"
    NO_PERSON = "no_person"
    UNRESOLVED = "unresolved"


# gender answers legal for single/dominant-person questions vs the
# several-persons question
_SINGLE_GENDERS = {GenderAnswer.FEMALE, GenderAnswer.MALE,
                   GenderAnswer.NOT_RECOGNIZABLE}
_MULTI_GENDERS = {GenderAnswer.ONLY_FEMALE, GenderAnswer.ONLY_MALE,
                  GenderAnswer.MIXED_MOSTLY_MALE, GenderAnswer.MIXED_MOSTLY_FEMALE,
                  GenderAnswer.MIXED_EQUAL, GenderAnswer.NOT_RECOGNIZABLE}


@dataclass
class AnnotationResponse:
    worker_id: str
    image_id: str
    timestamp: int
    count_answer: CountAnswer
    gender_answer: GenderAnswer

    def __post_init__(self):
        no_person = self.count_answer in (CountAnswer.NOT_SHOWN,
                                          CountAnswer.NO_PERSON)
        if no_person != (self.gender_answer is GenderAnswer.NONE):
            raise ValueError(
                f"response {self.worker_id}/{self.image_id}: gender answer "
                f"{self.gender_answer.value!r} illegal for count "
                f"{self.count_answer.value!r}")
        if self.count_answer in (CountAnswer.ONE_PERSON,
                                 CountAnswer.SEVERAL_ONE_DOMINANT):
            if self.gender_answer not in _SINGLE_GENDERS:
                raise ValueError(
                    f"response {self.worker_id}/{self.image_id}: "
                    f"{self.gender_answer.value!r} not a single-person answer")
        if self.count_answer is CountAnswer.SEVERAL_NO_DOMINANT:
            if self.gender_answer not in _MULTI_GENDERS:
                raise ValueError(
                    f"response {self.worker_id}/{self.image_id}: "
                    f"{self.gender_answer.value!r} not a several-persons answer")


@dataclass
class WorkerRecord:
    worker_id: str
    gold_answered: int
    gold_correct: int
    accuracy: float
    active: bool


def filter_images(refs: list[ImageRef], min_width: int) -> list[ImageRef]:
    """Images strictly wider than ``min_width`` pixels and in a depictable
    format."""
    return [r for r in refs
            if r.width > min_width and r.media_format not in EXCLUDED_FORMATS]


def map_response(response: AnnotationResponse) -> ImageCategory | None:
    """Collapse a (count, gender) answer pair onto the category space.

    One male, one dominant male, and male-majority all land in "men";
    the female side mirrors that. "Image not shown" responses map to
    None and are dropped before aggregation.
    """
    count, gender = response.count_answer, response.gender_answer
    if count is CountAnswer.NOT_SHOWN:
        return None
    if count is CountAnswer.NO_PERSON:
        return ImageCategory.NO_PERSON
    if gender in (GenderAnswer.MALE, GenderAnswer.ONLY_MALE,
                  GenderAnswer.MIXED_MOSTLY_MALE):
        return ImageCategory.MEN
    if gender in (GenderAnswer.FEMALE, GenderAnswer.ONLY_FEMALE,
                  GenderAnswer.MIXED_MOSTLY_FEMALE):
        return ImageCategory.WOMEN
    if gender is GenderAnswer.MIXED_EQUAL:
        return ImageCategory.MIXED_EQUAL
    return ImageCategory.NOT_RECOGNIZABLE


def load_responses(path) -> list[AnnotationResponse]:
    """CSV: worker_id, image_id, timestamp, count_answer, gender_answer."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "worker_id":
                continue
            if len(row) < 5:
                raise ValueError(f"responses row {row_no}: expected 5 columns")
            try:
                out.append(AnnotationResponse(
                    worker_id=row[0].strip(),
                    image_id=row[1].strip(),
                    timestamp=int(row[2]),
                    count_answer=CountAnswer(row[3].strip()),
                    gender_answer=GenderAnswer(row[4].strip()),
                ))
            except ValueError as exc:
                raise ValueError(f"responses row {row_no}: {exc}") from exc
    return out


def load_gold_labels(path) -> dict[str, ImageCategory]:
    """CSV: image_id, category."""
    out: dict[str, ImageCategory] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "image_id":
                continue
            if len(row) < 2:
                raise ValueError(f"gold labels row {row_no}: expected 2 columns")
            try:
                out[row[0].strip()] = ImageCategory(row[1].strip())
            except ValueError as exc:
                raise ValueError(f"gold labels row {row_no}: {exc}") from exc
    return out


def score_workers(responses: list[AnnotationResponse],
                  gold_labels: dict[str, ImageCategory],
                  known_images: set[str],
                  threshold: float = WORKER_ACCURACY_THRESHOLD,
                  batch: int = ACCURACY_BATCH
                  ) -> tuple[list[WorkerRecord], list[AnnotationResponse]]:
    """Gold-question quality control.

    Responses are replayed per worker in (timestamp, image) order;
    accuracy over gold items is recomputed after every ``batch``
    responses, starting from 100% before any gold item was seen. Once a
    worker's accuracy drops below the threshold, all of that worker's
    responses are discarded.
    """
    by_worker: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in responses:
        if resp.image_id not in known_images:
            raise ValueError(f"response references unknown image "
                             f"{resp.image_id!r}")
        by_worker[resp.worker_id].append(resp)

    records: list[WorkerRecord] = []
    retained: list[AnnotationResponse] = []
    for worker_id in sorted(by_worker):
        ordered = sorted(by_worker[worker_id],
                         key=lambda r: (r.timestamp, r.image_id))
        answered = correct = 0
        accuracy = 1.0
        active = True
        for start in range(0, len(ordered), batch):
            for resp in ordered[start:start + batch]:
                gold = gold_labels.get(resp.image_id)
                if gold is None:
                    continue
                answered += 1
                if map_response(resp) is gold:
                    correct += 1
            accuracy = correct / answered if answered else 1.0
            if accuracy < threshold:
                active = False
                break
        records.append(WorkerRecord(worker_id, answered, correct, accuracy,
                                    active))
        if active:
            retained.extend(ordered)
    return records, retained


def aggregate(responses: list[AnnotationResponse],
              min_judgments: int = MIN_JUDGMENTS) -> ImageCategory:
    """Strict-majority vote over one image's mapped responses.

    Fewer than ``min_judgments`` mapped responses, or no category holding
    more than half of them, yields the unresolved marker.
    """
    mapped = [c for c in (map_response(r) for r in responses) if c is not None]
    if len(mapped) < min_judgments:
        return ImageCategory.UNRESOLVED
    counts = Counter(mapped)
    winner, top = counts.most_common(1)[0]
    if top * 2 > len(mapped):
        return winner
    return ImageCategory.UNRESOLVED


def aggregate_all(retained: list[AnnotationResponse],
                  min_judgments: int = MIN_JUDGMENTS
                  ) -> dict[str, ImageCategory]:
    by_image: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in retained:
        by_image[resp.image_id].append(resp)
    return {image: aggregate(resps, min_judgments)
            for image, resps in sorted(by_image.items())}


KAPPA_CATEGORIES = (ImageCategory.MEN, ImageCategory.WOMEN,
                    ImageCategory.MIXED_EQUAL, ImageCategory.NOT_RECOGNIZABLE,
                    ImageCategory.NO_PERSON)


def kappa_from_responses(retained: list[AnnotationResponse]
                         ) -> stats.KappaResult:
    """Fleiss' kappa over the mapped category space.

    Uses images with at least three mapped responses, down-sampled to the
    first three by (timestamp, worker_id) so the fixed-rater formula
    applies.
    """
    by_image: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in retained:
        by_image[resp.image_id].append(resp)
    rows = []
    col = {c: i for i, c in enumerate(KAPPA_CATEGORIES)}
    for image in sorted(by_image):
        ordered = sorted(by_image[image],
                         key=lambda r: (r.timestamp, r.worker_id))
        mapped = [c for c in (map_response(r) for r in ordered)
                  if c is not None]
        if len(mapped) < 3:
            continue
        row = [0] * len(KAPPA_CATEGORIES)
        for c in mapped[:3]:
            row[col[c]] += 1
        rows.append(row)
    if not rows:
        raise ValueError("kappa_from_responses: no image has three "
                         "mapped responses")
    return stats.fleiss_kappa(rows, 3)


DISTRIBUTION_CATEGORIES = KAPPA_CATEGORIES


@dataclass
class GroupDistribution:
    group: str
    n: int
    proportions: dict[str, float]
    unresolved: int


@dataclass
class GroupedDistribution:
    grouping: str
    groups: list[GroupDistribution]
    overall_test: stats.TestResult | None
    pairwise_tests: list[dict]
    posthoc_tests: list[dict]
    correction: stats.BhResult | None

    def to_dict(self) -> dict:
        return {
            "grouping": self.grouping,
            "groups": [{
                "group": g.group, "n": g.n, "unresolved": g.unresolved,
                "proportions": g.proportions,
            } for g in self.groups],
            "overall_test": self.overall_test.to_dict()
                            if self.overall_test else None,
            "pairwise_tests": self.pairwise_tests,
            "posthoc_tests": self.posthoc_tests,
            "bh_correction": None if self.correction is None else {
                "q": self.correction.q,
                "m0_estimate": self.correction.m0_estimate,
                "reject": self.correction.reject,
                "adjusted_p": self.correction.adjusted_p,
            },
        }


def distributions(items: list[tuple[str, ImageCategory]], grouping: str,
                  b: int = 10000, seed: int = 0, q: float = 0.05
                  ) -> GroupedDistribution:
    """Per-group category proportions plus independence tests.

    ``items`` pairs a group label with an aggregated image category.
    Unresolved images are excluded from proportions but reported per
    group. With at least two groups, an overall chi-square Monte Carlo
    test runs on the group-by-category table, followed by pairwise group
    tests and per-category post-hoc 2x2 tests whose p-values get the
    two-stage step-up correction.
    """
    per_group: dict[str, Counter] = defaultdict(Counter)
    unresolved: Counter = Counter()
    for group, category in items:
        if category is ImageCategory.UNRESOLVED:
            unresolved[group] += 1
            continue
        per_group[group][category] += 1

    groups = sorted(per_group)
    dists = []
    for g in groups:
        counts = per_group[g]
        n = sum(counts.values())
        dists.append(GroupDistribution(
            group=g, n=n,
            proportions={c.value: counts.get(c, 0) / n
                         for c in DISTRIBUTION_CATEGORIES},
            unresolved=unresolved.get(g, 0),
        ))
    for g in unresolved:
        if g not in per_group:
            log.warning("group %r has only unresolved images, omitted", g)

    def table_for(selected: list[str], categories) -> list[list[int]]:
        return [[per_group[g].get(c, 0) for c in categories]
                for g in selected]

    overall = None
    pairwise: list[dict] = []
    posthoc: list[dict] = []
    correction = None
    if len(groups) >= 2:
        used = [c for c in DISTRIBUTION_CATEGORIES
                if any(per_group[g].get(c, 0) for g in groups)]
        if len(used) >= 2:
            overall = stats.chi2_mc(table_for(groups, used), b=b, seed=seed)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                pair = [groups[i], groups[j]]
                pair_used = [c for c in DISTRIBUTION_CATEGORIES
                             if any(per_group[g].get(c, 0) for g in pair)]
                if len(pair_used) >= 2:
                    res = stats.chi2_mc(table_for(pair, pair_used),
                                        b=b, seed=seed)
                    pairwise.append({"groups": pair, "test": res.to_dict()})
                for c in DISTRIBUTION_CATEGORIES:
                    t = []
                    for g in pair:
                        in_c = per_group[g].get(c, 0)
                        rest = sum(per_group[g].values()) - in_c
                        t.append([in_c, rest])
                    if min(r[0] + r[1] for r in t) == 0:
                        continue
                    if sum(r[0] for r in t) == 0 or sum(r[1] for r in t) == 0:
                        continue
                    res = stats.chi2_mc(t, b=b, seed=seed)
                    posthoc.append({"groups": pair, "category": c.value,
                                    "test": res.to_dict()})
        if posthoc:
            correction = stats.bh_two_stage(
                [t["test"]["p"] for t in posthoc], q=q)
            for flag, adj, t in zip(correction.reject, correction.adjusted_p,
                                    posthoc):
                t["rejected_two_stage"] = flag
                t["adjusted_p_single_stage"] = adj

    return GroupedDistribution(grouping=grouping, groups=dists,
                               overall_test=overall, pairwise_tests=pairwise,
                               posthoc_tests=posthoc, correction=correction)
