"""Image-dimension analysis: eligibility filtering, crowd-annotation
ingestion with gold-question worker scoring, majority-vote aggregation
into image categories, and grouped category distributions with
chi-square tests.

``ANSWERS`` is the crowd questionnaire. It has three variants: single
person, dominant person and several persons. The table maps each legal
pair of a person-count answer and a gender answer to its image category,
and "image not shown" to None; ``load_responses`` maps each response once,
as it reads it, and rejects any other pair. Workers start at 100%
accuracy; after every batch of ten responses their accuracy on
gold-labeled images is recomputed, and a worker who falls below the
threshold is removed with all responses discarded.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict, namedtuple
from enum import Enum

from . import stats
from .artifacts import blake2b, check_unique, read_rows
from .text import nfc

log = logging.getLogger(__name__)

EXCLUDED_FORMATS = frozenset({"svg", "ogg", "ogv"})

# fixed by the crowd task, not a config key
ACCURACY_BATCH = 10


class ImageCategory(str, Enum):
    MEN = "men"
    WOMEN = "women"
    MIXED_EQUAL = "mixed_equal"
    NOT_RECOGNIZABLE = "not_recognizable"
    NO_PERSON = "no_person"
    UNRESOLVED = "unresolved"


# the categories an image can resolve to: the columns of the kappa rating
# table and of every distribution
RESOLVED_CATEGORIES = (ImageCategory.MEN, ImageCategory.WOMEN,
                       ImageCategory.MIXED_EQUAL,
                       ImageCategory.NOT_RECOGNIZABLE, ImageCategory.NO_PERSON)

# (count_answer, gender_answer) -> category. The single- and
# dominant-person variants ask for one gender, the several-persons variant
# for the mix; one male, one dominant male and a male majority all land in
# "men", and the female side mirrors that
ANSWERS = {
    ("not_shown", "none"): None,
    ("no_person", "none"): ImageCategory.NO_PERSON,
    ("one_person", "male"): ImageCategory.MEN,
    ("one_person", "female"): ImageCategory.WOMEN,
    ("one_person", "not_recognizable"): ImageCategory.NOT_RECOGNIZABLE,
    ("several_one_dominant", "male"): ImageCategory.MEN,
    ("several_one_dominant", "female"): ImageCategory.WOMEN,
    ("several_one_dominant", "not_recognizable"):
        ImageCategory.NOT_RECOGNIZABLE,
    ("several_no_dominant", "only_male"): ImageCategory.MEN,
    ("several_no_dominant", "mixed_mostly_male"): ImageCategory.MEN,
    ("several_no_dominant", "only_female"): ImageCategory.WOMEN,
    ("several_no_dominant", "mixed_mostly_female"): ImageCategory.WOMEN,
    ("several_no_dominant", "mixed_equal"): ImageCategory.MIXED_EQUAL,
    ("several_no_dominant", "not_recognizable"):
        ImageCategory.NOT_RECOGNIZABLE,
}

# one crowd response; ``category`` is its ANSWERS value, None for "image
# not shown"
AnnotationResponse = namedtuple("AnnotationResponse",
                                "worker_id image_id timestamp category")


def eligible(width: int, media_format: str, min_width: int) -> bool:
    """Whether an image is strictly wider than ``min_width`` pixels and in
    a depictable format."""
    return width > min_width and media_format not in EXCLUDED_FORMATS


def load_responses(path) -> list[AnnotationResponse]:
    """CSV: worker_id, image_id, timestamp, count_answer, gender_answer.
    An answer pair outside ``ANSWERS`` is an error naming the row."""
    out = []
    for row_no, row in read_rows(path, "responses", "worker_id", 5):
        pair = (row[3].strip(), row[4].strip())
        try:
            if pair not in ANSWERS:
                raise ValueError(f"illegal answer pair {pair}")
            out.append(AnnotationResponse(row[0].strip(),
                                          nfc(row[1].strip()), int(row[2]),
                                          ANSWERS[pair]))
        except ValueError as exc:
            raise ValueError(f"responses row {row_no}: {exc}") from exc
    return out


def load_gold_labels(path) -> dict[str, ImageCategory]:
    """CSV: image_id, category, the category one of
    ``RESOLVED_CATEGORIES``, the only ones a response maps to. A repeated
    image id is an error naming both rows."""
    out: dict[str, ImageCategory] = {}
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "gold labels", "image_id", 2):
        image_id = nfc(row[0].strip())
        check_unique(rows, image_id, row_no, "gold labels", "image_id")
        value = row[1].strip()
        if value not in RESOLVED_CATEGORIES:  # members equal their values
            raise ValueError(f"gold labels row {row_no}: category {value!r} "
                             "is not a resolved category")
        out[image_id] = ImageCategory(value)
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
                if resp.category is gold:
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
    mapped = [r.category for r in responses if r.category is not None]
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
        mapped = [r.category for r in ordered if r.category is not None]
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
