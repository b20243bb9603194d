import math
import random

import numpy as np
import pytest

from profaudit import stats, webhits
from profaudit.redirect_bias import BiasGroup
from profaudit.webhits import HitRecord, normalized_difference


class TestNormalizedDifference:
    def test_equal_hits_zero(self):
        assert normalized_difference(HitRecord("p", 500, 500)) == 0.0

    def test_hebamme_example(self):
        # 100000 male-title hits vs one million female-title hits
        got = normalized_difference(HitRecord("p", 100_000, 1_000_000))
        assert got == pytest.approx((100_000 - 1_000_000) / 1_100_000)
        assert got == pytest.approx(-0.818, abs=0.001)

    def test_extremes(self):
        assert normalized_difference(HitRecord("p", 10, 0)) == 1.0
        assert normalized_difference(HitRecord("p", 0, 10)) == -1.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            normalized_difference(HitRecord("p", 0, 0))

    def test_antisymmetry_and_range(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
            if a + b == 0:
                continue
            d1 = normalized_difference(HitRecord("p", a, b))
            d2 = normalized_difference(HitRecord("p", b, a))
            assert d1 == pytest.approx(-d2)
            assert -1.0 <= d1 <= 1.0
            if b > a:
                assert d1 < 0

    def test_batch_excludes_zero_total(self, caplog):
        records = [HitRecord("a", 1, 1), HitRecord("b", 0, 0)]
        with caplog.at_level("WARNING"):
            diffs, excluded = webhits.compute_differences(records)
        assert diffs == {"a": 0.0}
        assert excluded == ["b"]


class TestLoadHits:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "hits.csv"
        p.write_text("profession_id,hits_male,hits_female\np1,10,20\n",
                     encoding="utf-8")
        got = webhits.load_hits(p)
        assert got == [HitRecord("p1", 10, 20)]

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "hits.csv"
        p.write_text("p1,zehn,20\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            webhits.load_hits(p)

    def test_duplicate_profession_names_both_rows(self, tmp_path):
        # a repeated id used to give two normalized differences
        p = tmp_path / "hits.csv"
        p.write_text("p1,10,20\n# note\np2,1,1\np1,30,40\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^hits row 4: duplicate "
                           r"profession_id 'p1' \(first on row 1\)$"):
            webhits.load_hits(p)


def simulate_records(rng, n=400):
    """Professions whose bias group depends on the hit difference, with
    overlap so the logit stays finite."""
    records, groups = [], {}
    for i in range(n):
        pid = f"p{i:04d}"
        male = rng.randint(1000, 2_000_000)
        female = rng.randint(1000, 2_000_000)
        rec = HitRecord(pid, male, female)
        diff = (male - female) / (male + female)
        noise = rng.gauss(0, 0.8)
        score = 2.0 * diff + noise
        if score < -0.8:
            groups[pid] = BiasGroup.FEMALE_BIAS
        elif score > 0.8:
            groups[pid] = BiasGroup.MALE_BIAS
        else:
            groups[pid] = BiasGroup.NEUTRAL
        records.append(rec)
    return records, groups


class TestBiasModels:
    def test_fit_shapes_and_signs(self):
        rng = random.Random(101)
        records, groups = simulate_records(rng)
        report = webhits.fit_bias_models(records, groups)
        m_f = report["model_female_bias"]
        m_m = report["model_male_bias"]
        assert m_f["outcome"] == "female_bias"
        assert m_f["converged"] and m_m["converged"]
        names = [row["predictor"] for row in m_f["coefficients"]]
        assert names == ["intercept", "normalized_difference", "hits_male"]
        # higher normalized difference must lower female-bias odds and
        # raise male-bias odds
        coef_f = m_f["coefficients"][1]["coef"]
        coef_m = m_m["coefficients"][1]["coef"]
        assert coef_f < 0 < coef_m
        assert 0 <= m_f["accuracy"] <= 1
        for row in m_f["coefficients"]:
            assert row["ci95_low"] <= row["coef"] <= row["ci95_high"]
            assert row["odds_ratio"] == pytest.approx(math.exp(row["coef"]))

    def test_simulated_coefficients_recovered(self):
        # direct simulate-then-fit on the webhits design: y from known betas
        rng = np.random.Generator(np.random.Philox(key=2023))
        n = 10000
        diff = rng.uniform(-1, 1, size=n)
        eta = 0.0 + 2.0 * diff
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        totals = rng.integers(100_000, 2_000_000, size=n)
        records = []
        groups = {}
        for i in range(n):
            pid = f"p{i:05d}"
            total = int(totals[i])
            male = int(round((1 + diff[i]) / 2 * total))
            male = min(max(male, 1), total - 1)
            records.append(HitRecord(pid, male, total - male))
            groups[pid] = BiasGroup.FEMALE_BIAS if y[i] else BiasGroup.NEUTRAL
        report = webhits.fit_bias_models(records, groups)
        rows = {r["predictor"]: r for r in
                report["model_female_bias"]["coefficients"]}
        assert abs(rows["intercept"]["coef"] - 0.0) <= 3 * rows["intercept"]["std_error"]
        assert abs(rows["normalized_difference"]["coef"] - 2.0) <= \
            3 * rows["normalized_difference"]["std_error"]

    def test_single_class_outcome_skipped(self):
        records = [HitRecord("a", 10, 1), HitRecord("b", 1, 10),
                   HitRecord("c", 5, 5), HitRecord("d", 7, 3)]
        groups = {"a": BiasGroup.MALE_BIAS, "b": BiasGroup.NEUTRAL,
                  "c": BiasGroup.NEUTRAL, "d": BiasGroup.MALE_BIAS}
        report = webhits.fit_bias_models(records, groups)
        assert "skipped" in report["model_female_bias"]

    def test_no_evidence_group_rejected(self):
        with pytest.raises(ValueError, match="no-evidence"):
            webhits.fit_bias_models([HitRecord("a", 1, 1)],
                                    {"a": BiasGroup.NO_EVIDENCE})


def fit_with(coefficients):
    k = len(coefficients)
    return stats.LogisticFit(
        coefficients=list(coefficients), std_errors=[1.0] * k,
        p_values=[0.5] * k, ci95=[(c - 2.0, c + 2.0) for c in coefficients],
        accuracy=1.0, mcfadden_r2=0.0, converged=True, iterations=1)


class TestReportIdentities:
    def test_paper_odds_ratios(self):
        # the two caption identities of the regression tables
        table = webhits.model_report(fit_with([2.44, 0.364]), "female_bias",
                                     ("a", "b"))
        rows = table["coefficients"]
        assert [r["predictor"] for r in rows] == ["a", "b"]
        assert abs(rows[0]["odds_ratio"] - 11.48) < 0.01
        assert abs(rows[1]["odds_ratio"] - 1.44) < 0.005

    @pytest.mark.parametrize("coef", [500.0, -500.0, 1e4])
    def test_odds_ratio_null_from_500(self, coef):
        rows = webhits.model_report(fit_with([coef, 499.0]), "x",
                                    ("a", "b"))["coefficients"]
        assert rows[0]["odds_ratio"] is None
        assert rows[1]["odds_ratio"] == math.exp(499.0)

    def test_odds_ratio_null_when_not_converged(self):
        # x separates the outcome, so the coefficients drift without bound
        x = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
        fit = stats.logistic_fit([[1.0, v] for v in x],
                                 [float(v > 0) for v in x])
        assert not fit.converged and all(abs(c) < 500
                                         for c in fit.coefficients)
        table = webhits.model_report(fit, "x", ("a", "b"))
        assert table["converged"] is False
        assert [r["coef"] for r in table["coefficients"]] == fit.coefficients
        assert [r["odds_ratio"] for r in table["coefficients"]] == [None,
                                                                    None]
