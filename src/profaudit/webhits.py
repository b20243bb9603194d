"""Search-hit analysis: normalized male/female hit differences per
profession and the two logistic models predicting redirect bias.

Hit counts are ingested from a CSV file; the search API the counts once
came from is long gone, so no live client ships. Model 1 predicts
membership in the female-bias group, model 2 in the male-bias group; in
both, the other two groups act as negatives. Predictors are the
normalized difference, the raw male-title hit count, and an intercept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import stats
from .artifacts import check_unique, read_rows, write_csv
from .redirect_bias import BiasGroup

log = logging.getLogger(__name__)


@dataclass
class HitRecord:
    profession_id: str
    hits_male: int
    hits_female: int


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
    """Fit the female-bias and male-bias logistic models.

    Every profession must appear in ``groups`` with one of the three
    evidence-bearing bias groups; no-evidence professions must be filtered
    out by the caller. Predictors keep raw units.
    """
    usable = []
    for rec in records:
        group = groups.get(rec.profession_id)
        if group is None:
            raise ValueError(f"no bias group for {rec.profession_id}")
        if group is BiasGroup.NO_EVIDENCE:
            raise ValueError(
                f"{rec.profession_id}: no-evidence professions cannot enter "
                "the bias models")
        if rec.hits_male + rec.hits_female == 0:
            continue
        usable.append((rec, group))
    if not usable:
        raise ValueError("fit_bias_models: no usable records")

    X = [[1.0, normalized_difference(r), float(r.hits_male)]
         for r, _ in usable]

    report: dict = {"n": len(usable), "standardized": False}
    for name, positive in (("model_female_bias", BiasGroup.FEMALE_BIAS),
                           ("model_male_bias", BiasGroup.MALE_BIAS)):
        y = [1.0 if g is positive else 0.0 for _, g in usable]
        if min(y) == max(y):
            report[name] = {"skipped": f"outcome {positive.value} has a "
                                       "single class"}
            continue
        fit = stats.logistic_fit(X, y)
        report[name] = dict(model_report(fit, positive.value,
                                         PREDICTOR_NAMES),
                            iterations=fit.iterations)
    return report


def model_report(fit: stats.LogisticFit, outcome: str, predictors) -> dict:
    """Table layout: one row per coefficient, named by ``predictors``,
    with an odds-ratio column. A one-unit predictor increase multiplies
    the odds by exp(coef); the odds ratio is written as null for
    |coef| >= 500, and for every coefficient of a fit that did not
    converge (a separated design, whose coefficients drift without bound,
    so exp(coef) would print digits of arithmetic noise)."""
    rows = []
    for i, name in enumerate(predictors):
        coef = fit.coefficients[i]
        rows.append({
            "predictor": name,
            "coef": coef,
            "std_error": fit.std_errors[i],
            "p": fit.p_values[i],
            "ci95_low": fit.ci95[i][0],
            "ci95_high": fit.ci95[i][1],
            "odds_ratio": (math.exp(coef)
                           if fit.converged and abs(coef) < 500 else None),
        })
    return {
        "outcome": outcome,
        "accuracy": fit.accuracy,
        "pseudo_r2": fit.mcfadden_r2,
        "converged": fit.converged,
        "coefficients": rows,
    }


def write_differences(diffs: dict[str, float],
                      groups: dict[str, BiasGroup], path) -> None:
    """Figure data: per-profession normalized difference with bias group."""
    write_csv(path, ["profession_id", "normalized_difference", "bias_group"],
              [[pid, diffs[pid], groups[pid].value if pid in groups else ""]
               for pid in sorted(diffs)])
