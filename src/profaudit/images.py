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

import logging
from collections import Counter, defaultdict
from enum import Enum

from . import stats
from .artifacts import blake2b, check_unique, read_rows
from .corpus import ImageRef

log = logging.getLogger(__name__)

EXCLUDED_FORMATS = frozenset({"svg", "ogg", "ogv"})

# fixed by the crowd task, not a config key
ACCURACY_BATCH = 10


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


class AnnotationResponse:
    __slots__ = ("worker_id", "image_id", "timestamp", "count_answer",
                 "gender_answer")

    def __init__(self, worker_id: str, image_id: str, timestamp: int,
                 count_answer: CountAnswer, gender_answer: GenderAnswer):
        no_person = count_answer in (CountAnswer.NOT_SHOWN,
                                     CountAnswer.NO_PERSON)
        if no_person != (gender_answer is GenderAnswer.NONE):
            raise ValueError(
                f"response {worker_id}/{image_id}: gender answer "
                f"{gender_answer.value!r} illegal for count "
                f"{count_answer.value!r}")
        if count_answer in (CountAnswer.ONE_PERSON,
                            CountAnswer.SEVERAL_ONE_DOMINANT):
            if gender_answer not in _SINGLE_GENDERS:
                raise ValueError(
                    f"response {worker_id}/{image_id}: "
                    f"{gender_answer.value!r} not a single-person answer")
        if count_answer is CountAnswer.SEVERAL_NO_DOMINANT:
            if gender_answer not in _MULTI_GENDERS:
                raise ValueError(
                    f"response {worker_id}/{image_id}: "
                    f"{gender_answer.value!r} not a several-persons answer")
        self.worker_id = worker_id
        self.image_id = image_id
        self.timestamp = timestamp
        self.count_answer = count_answer
        self.gender_answer = gender_answer


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
    for row_no, row in read_rows(path, "responses", "worker_id", 5):
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
    """CSV: image_id, category. A repeated image id is an error naming
    both rows."""
    out: dict[str, ImageCategory] = {}
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "gold labels", "image_id", 2):
        image_id = row[0].strip()
        check_unique(rows, image_id, row_no, "gold labels", "image_id")
        try:
            out[image_id] = ImageCategory(row[1].strip())
        except ValueError as exc:
            raise ValueError(f"gold labels row {row_no}: {exc}") from exc
    return out


def score_workers(responses: list[AnnotationResponse],
                  gold_labels: dict[str, ImageCategory],
                  known_images: set[str], threshold: float
                  ) -> tuple[list[dict], list[AnnotationResponse]]:
    """Gold-question quality control.

    Responses are replayed per worker in (timestamp, image) order;
    accuracy over gold items is recomputed after every ``ACCURACY_BATCH``
    responses, starting from 100% before any gold item was seen. Once a
    worker's accuracy drops below the threshold, all of that worker's
    responses are discarded.

    Returns one record per worker, in worker order, as a dict with
    ``worker_id``, ``gold_answered``, ``gold_correct``, ``accuracy`` and
    ``active``, and the responses retained.
    """
    by_worker: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in responses:
        if resp.image_id not in known_images:
            raise ValueError(f"response references unknown image "
                             f"{resp.image_id!r}")
        by_worker[resp.worker_id].append(resp)

    records: list[dict] = []
    retained: list[AnnotationResponse] = []
    for worker_id in sorted(by_worker):
        ordered = sorted(by_worker[worker_id],
                         key=lambda r: (r.timestamp, r.image_id))
        answered = correct = 0
        accuracy = 1.0
        active = True
        for start in range(0, len(ordered), ACCURACY_BATCH):
            for resp in ordered[start:start + ACCURACY_BATCH]:
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
        records.append({"worker_id": worker_id, "gold_answered": answered,
                        "gold_correct": correct, "accuracy": accuracy,
                        "active": active})
        if active:
            retained.extend(ordered)
    return records, retained


def aggregate(responses: list[AnnotationResponse],
              min_judgments: int) -> ImageCategory:
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


def aggregate_all(retained: list[AnnotationResponse], min_judgments: int
                  ) -> dict[str, ImageCategory]:
    by_image: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in retained:
        by_image[resp.image_id].append(resp)
    return {image: aggregate(resps, min_judgments)
            for image, resps in sorted(by_image.items())}


# the categories an image can resolve to: the columns of the kappa rating
# table and of every distribution
RESOLVED_CATEGORIES = (ImageCategory.MEN, ImageCategory.WOMEN,
                       ImageCategory.MIXED_EQUAL,
                       ImageCategory.NOT_RECOGNIZABLE, ImageCategory.NO_PERSON)


def kappa_from_responses(retained: list[AnnotationResponse]) -> dict:
    """Fleiss' kappa over the mapped category space, as the dict
    ``stats.fleiss_kappa`` returns.

    Uses images with at least three mapped responses, down-sampled to the
    first three by (timestamp, worker_id) so the fixed-rater formula
    applies.
    """
    by_image: dict[str, list[AnnotationResponse]] = defaultdict(list)
    for resp in retained:
        by_image[resp.image_id].append(resp)
    rows = []
    col = {c: i for i, c in enumerate(RESOLVED_CATEGORIES)}
    for image in sorted(by_image):
        ordered = sorted(by_image[image],
                         key=lambda r: (r.timestamp, r.worker_id))
        mapped = [c for c in (map_response(r) for r in ordered)
                  if c is not None]
        if len(mapped) < 3:
            continue
        row = [0] * len(RESOLVED_CATEGORIES)
        for c in mapped[:3]:
            row[col[c]] += 1
        rows.append(row)
    if not rows:
        raise ValueError("kappa_from_responses: no image has three "
                         "mapped responses")
    return stats.fleiss_kappa(rows, 3)


def distributions(items: list[tuple[str, ImageCategory]], grouping: str,
                  b: int, seed: int) -> dict:
    """Per-group category proportions plus independence tests.

    ``items`` pairs a group label with an aggregated image category.
    Unresolved images are excluded from proportions but reported per
    group. An overall chi-square test runs on the group-by-category
    table, followed by pairwise group tests and per-category post-hoc 2x2
    tests whose p-values get the two-stage step-up correction.
    ``stats.chi2_mc`` alone decides which tables can be tested: a table it
    rejects (after dropping empty rows and columns, fewer than two of
    either, as with a single group) is omitted, so ``overall_test`` is
    None and that pair or category has no entry. ``stats.chi2_mc`` gives
    every table small enough to enumerate an exact p-value, and samples
    ``b`` tables for larger ones; at the audit's sizes every table is
    enumerated.

    Only a sampled test records a seed (and ``B``): its own 64-bit seed,
    hashed from ``seed`` and the label ``images:{grouping}:{test}`` (test
    ``overall``, ``A|B`` or ``A|B:category``), so no two sampled tests
    share a stream. An exact test records neither.

    Returns the dict that ``distributions.json`` holds for the grouping:
    ``grouping``; ``groups``, one ``{group, n, unresolved, proportions}``
    per group in sorted order, ``proportions`` keyed by the values of
    ``RESOLVED_CATEGORIES``; ``overall_test`` (the dict that
    ``stats.chi2_mc`` returns, or None); ``pairwise_tests`` as ``{groups,
    test}``; ``posthoc_tests`` as ``{groups, category, test}`` marked by
    ``stats.mark_bh_two_stage``; and ``bh_correction``, the dict that call
    returns, or None.
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
        dists.append({"group": g, "n": n, "unresolved": unresolved.get(g, 0),
                      "proportions": {c.value: counts.get(c, 0) / n
                                      for c in RESOLVED_CATEGORIES}})
    for g in unresolved:
        if g not in per_group:
            log.warning("group %r has only unresolved images, omitted", g)
    # each group's counts in RESOLVED_CATEGORIES order; chi2_mc drops the
    # empty columns
    rows = {g: [per_group[g][c] for c in RESOLVED_CATEGORIES] for g in groups}

    def test(table, label: str) -> dict | None:
        key = f"{seed}:images:{grouping}:{label}".encode("utf-8")
        digest = blake2b(key, digest_size=8).digest()
        try:
            return stats.chi2_mc(table, b=b,
                                 seed=int.from_bytes(digest, "big"))
        except ValueError:  # fewer than two nonempty rows or columns
            return None

    overall = test(list(rows.values()), "overall")
    pairwise: list[dict] = []
    posthoc: list[dict] = []
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            pair, name = [g, h], f"{g}|{h}"
            if (result := test([rows[g], rows[h]], name)) is not None:
                pairwise.append({"groups": pair, "test": result})
            for k, c in enumerate(RESOLVED_CATEGORIES):
                table = [[rows[x][k], sum(rows[x]) - rows[x][k]] for x in pair]
                if (result := test(table, f"{name}:{c.value}")) is not None:
                    posthoc.append({"groups": pair, "category": c.value,
                                    "test": result})
    correction = (stats.mark_bh_two_stage(posthoc, q=stats.ALPHA)
                  if posthoc else None)

    return {"grouping": grouping, "groups": dists, "overall_test": overall,
            "pairwise_tests": pairwise, "posthoc_tests": posthoc,
            "bh_correction": correction}
