"""Search-hit analysis: normalized male/female hit differences per
profession and the two logistic models predicting redirect bias.

Hit counts are ingested from a CSV file; the search API the counts once
came from is long gone, so no live client ships. Model 1 predicts
membership in the female-bias group, model 2 in the male-bias group; in
both, the other two groups act as negatives. Predictors are the
normalized difference, the raw male-title hit count, and an intercept.
"""

from __future__ import annotations

from collections import namedtuple

from . import LazyLogger, stats
from .artifacts import check_unique, read_rows
from .labels import BiasGroup

log = LazyLogger(__name__)


HitRecord = namedtuple("HitRecord", "profession_id hits_male hits_female")


def load_hits(path) -> list[HitRecord]:
    """CSV columns: profession_id, hits_male, hits_female. A repeated
    profession id is an error naming both rows."""
    out = []
    rows: dict[str, int] = {}
    for row_no, row in read_rows(path, "hits", "profession_id", 3):
        pid = row[0].strip()
        check_unique(rows, pid, row_no, "hits", "profession_id")
        try:
            male = int(row[1])
            female = int(row[2])
        except ValueError as exc:
            raise ValueError(f"hits row {row_no}: non-numeric count") from exc
        if male < 0 or female < 0:
            raise ValueError(f"hits row {row_no}: negative count")
        out.append(HitRecord(pid, male, female))
    return out


def normalized_difference(record: HitRecord) -> float:
    """(male - female) / (male + female); undefined for a zero total."""
    total = record.hits_male + record.hits_female
    if total <= 0:
        raise ValueError(
            f"normalized difference undefined for {record.profession_id}: "
            "zero total hits")
    return (record.hits_male - record.hits_female) / total


def compute_differences(records) -> tuple[dict[str, float], list[str]]:
    """Batch variant: ``{profession_id: difference}`` and the excluded
    ids; zero-total records are excluded with a warning."""
    diffs: dict[str, float] = {}
    excluded: list[str] = []
    for rec in records:
        if rec.hits_male + rec.hits_female == 0:
            log.warning("excluding %s: zero total hits", rec.profession_id)
            excluded.append(rec.profession_id)
            continue
        diffs[rec.profession_id] = normalized_difference(rec)
    return diffs, excluded


PREDICTOR_NAMES = ("intercept", "normalized_difference", "hits_male")


def fit_bias_models(records: list[HitRecord],
                    groups: dict[str, BiasGroup]) -> dict:
    """Fit the female-bias and male-bias logistic models, or return
    ``{"skipped": reason}`` when no record can enter them.

    Only records with hits and with an evidence-bearing bias group in
    ``groups`` enter the models; ``n`` counts them. Predictors keep raw
    units. A model that ``stats.logistic_fit`` rejects is written as
    ``{"skipped": reason}`` with that function's message.
    """
    usable = []
    for rec in records:
        group = groups.get(rec.profession_id)
        if (group not in (None, BiasGroup.NO_EVIDENCE)
                and rec.hits_male + rec.hits_female > 0):
            usable.append((rec, group))
    if not usable:
        return {"skipped": "no profession with both hits and bias evidence"}

    X = [[1.0, normalized_difference(r), float(r.hits_male)]
         for r, _ in usable]

    report: dict = {"n": len(usable), "standardized": False}
    for name, positive in (("model_female_bias", BiasGroup.FEMALE_BIAS),
                           ("model_male_bias", BiasGroup.MALE_BIAS)):
        y = [1.0 if g is positive else 0.0 for _, g in usable]
        try:
            fit = stats.logistic_fit(X, y)
        except ValueError as exc:  # too few rows, one class, or singular
            report[name] = {"skipped": str(exc)}
            continue
        report[name] = dict(stats.model_report(fit, positive.value,
                                               PREDICTOR_NAMES),
                            iterations=fit["iterations"])
    return report

