import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from profaudit import stats
from oracles import (
    bh_two_stage_direct,
    exact_chi2_perm_p,
    exact_chi2_table_p,
    exact_u_counts,
    exact_wilcoxon_p,
    exact_wilcoxon_p_bruteforce,
    fd_gradient,
    logistic_log_likelihood,
    logistic_score,
    numpy_bh_adjusted,
    numpy_bh_two_stage,
    numpy_fleiss_kappa,
    numpy_logistic_fit,
    numpy_pearson,
    pearson_direct,
)


class TestMidranks:
    def test_no_ties(self):
        assert stats.midranks([10, 20, 30]) == [1, 2, 3]

    def test_tie_midrank(self):
        assert stats.midranks([5, 5]) == [1.5, 1.5]

    def test_rank_sum_identity(self):
        rng = random.Random(42)
        values = [rng.randint(0, 20) for _ in range(100)]
        assert sum(stats.midranks(values)) == pytest.approx(100 * 101 / 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            stats.midranks([1.0, float("nan")])


class TestWilcoxon:
    def test_identical_samples(self):
        x = list(range(50))
        res = stats.wilcoxon_rank_sum(x, x)
        assert abs(res["z"]) < 1e-12
        assert res["p"] == pytest.approx(1.0)

    def test_degenerate_constant(self):
        res = stats.wilcoxon_rank_sum([3, 3, 3], [3, 3])
        assert res["p"] == 1.0

    def test_antisymmetry(self):
        rng = random.Random(7)
        x = [rng.gauss(0, 1) for _ in range(12)]
        y = [rng.gauss(1, 1) for _ in range(9)]
        a = stats.wilcoxon_rank_sum(x, y)
        b = stats.wilcoxon_rank_sum(y, x)
        assert a["z"] == pytest.approx(-b["z"], abs=1e-12)
        assert a["p"] == pytest.approx(b["p"], abs=1e-12)

    def test_scale_invariance(self):
        rng = random.Random(11)
        x = [rng.gauss(0, 1) for _ in range(10)]
        y = [rng.gauss(0.5, 1) for _ in range(10)]
        a = stats.wilcoxon_rank_sum(x, y)
        b = stats.wilcoxon_rank_sum([7.5 * v for v in x], [7.5 * v for v in y])
        assert a["z"] == b["z"]
        assert a["p"] == b["p"]

    def test_oracle_dp_matches_bruteforce(self):
        rng = random.Random(3)
        for n, m in [(2, 3), (4, 3), (5, 5)]:
            x = [rng.random() for _ in range(n)]
            y = [rng.random() for _ in range(m)]
            assert exact_wilcoxon_p(x, y) == pytest.approx(
                exact_wilcoxon_p_bruteforce(x, y))

    def test_normal_approx_vs_exact_enumeration(self):
        # Worst case over every achievable statistic for 5 <= n, m <= 8.
        # Below n or m = 4 the normal approximation itself exceeds the
        # 0.02 band (see test_small_sample_deviation_documented).
        worst = 0.0
        for n in range(5, 9):
            for m in range(5, 9):
                counts = exact_u_counts(n, m)
                total = sum(counts)
                mu = n * m / 2.0
                x = [float(i) for i in range(n)]
                for u in range(n * m + 1):
                    dev = abs(u - mu)
                    p_exact = sum(c for uu, c in enumerate(counts)
                                  if abs(uu - mu) >= dev - 1e-12) / total
                    # reconstruct a sample pair realizing this u: ranks of x
                    # chosen greedily is fiddly, so check the formula path
                    # directly through the implementation internals instead
                    var = n * m * (n + m + 1) / 12.0
                    d = u - mu
                    if d > 0:
                        d -= 0.5
                    elif d < 0:
                        d += 0.5
                    z = d / math.sqrt(var)
                    p_norm = min(1.0, 2.0 * 0.5 * math.erfc(abs(z) / math.sqrt(2)))
                    worst = max(worst, abs(p_norm - p_exact))
        assert worst <= 0.02

    def test_random_samples_vs_exact(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(5, 8)
            m = rng.randint(5, 8)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0.3, 1) for _ in range(m)]
            res = stats.wilcoxon_rank_sum(x, y)
            assert abs(res["p"] - exact_wilcoxon_p(x, y)) <= 0.02

    def test_small_sample_deviation_documented(self):
        # For n=1, m=2 at u=0 the exact two-sided p is 2/3 while the
        # continuity-corrected normal approximation gives ~0.54; the
        # approximation error is inherent, bounded empirically by 0.13.
        res = stats.wilcoxon_rank_sum([0.0], [1.0, 2.0])
        exact = exact_wilcoxon_p([0.0], [1.0, 2.0])
        assert exact == pytest.approx(2.0 / 3.0)
        assert 0.02 < abs(res["p"] - exact) < 0.13


@pytest.fixture()
def sampled(monkeypatch):
    """Every table above the enumeration bound: chi2_mc samples them all."""
    monkeypatch.setattr(stats, "_EXACT_STEPS", 0)


class TestChi2MC:
    @pytest.mark.usefixtures("sampled")
    def test_diagonal_2x3_vs_exhaustive(self):
        table = [[4, 0, 0], [0, 3, 3]]
        p_exact = exact_chi2_perm_p(table)
        assert p_exact == pytest.approx(1 / 210)
        res = stats.chi2_mc(table, b=20000, seed=99)
        assert res["method"] == "chi2_monte_carlo"
        assert abs(res["p"] - p_exact) <= 0.01

    @pytest.mark.usefixtures("sampled")
    def test_identical_rows_p_near_one(self):
        res = stats.chi2_mc([[10, 10, 10], [10, 10, 10]], b=2000, seed=5)
        assert res["method"] == "chi2_monte_carlo"
        assert res["p"] > 0.9

    @pytest.mark.usefixtures("sampled")
    def test_determinism(self):
        table = [[8, 2, 4], [3, 7, 5]]
        a = stats.chi2_mc(table, b=5000, seed=123)
        b = stats.chi2_mc(table, b=5000, seed=123)
        assert a["method"] == "chi2_monte_carlo"
        assert a["p"] == b["p"]
        c = stats.chi2_mc(table, b=5000, seed=124)
        assert c["p"] != a["p"] or c["seed"] != a["seed"]

    @pytest.mark.usefixtures("sampled")
    def test_consistency_with_growing_b(self):
        table = [[6, 1, 2], [2, 5, 1]]
        p_exact = exact_chi2_perm_p(table)
        err_small = abs(stats.chi2_mc(table, b=1000, seed=1)["p"] - p_exact)
        err_large = abs(stats.chi2_mc(table, b=100000, seed=1)["p"]
                        - p_exact)
        assert err_large <= max(err_small, 0.01)

    @pytest.mark.usefixtures("sampled")
    def test_empty_margins_dropped(self):
        # one padded table that reduces to 2x2, one to 2x3
        for padded, reduced in [
                ([[3, 0, 2], [0, 0, 0], [1, 0, 4]], [[3, 2], [1, 4]]),
                ([[3, 0, 2, 1], [0, 0, 0, 0], [1, 0, 4, 2]],
                 [[3, 2, 1], [1, 4, 2]])]:
            padded = stats.chi2_mc(padded, b=3000, seed=8)
            reduced = stats.chi2_mc(reduced, b=3000, seed=8)
            assert padded["method"] == reduced["method"] == "chi2_monte_carlo"
            assert padded["p"] == reduced["p"]
            assert (padded["statistic"]
                    == pytest.approx(reduced["statistic"]))

    @pytest.mark.usefixtures("sampled")
    def test_seeds_do_not_alias(self):
        # a per-chunk key seed ^ chunk made seeds 0 and 1 draw the same
        # two chunks in swapped order, and so the same p
        table = [[8, 5, 3], [4, 7, 6]]
        p0 = stats.chi2_mc(table, b=2 * stats._MC_CHUNK, seed=0)
        p1 = stats.chi2_mc(table, b=2 * stats._MC_CHUNK, seed=1)
        assert p0["method"] == "chi2_monte_carlo"
        assert p0["p"] != p1["p"]

    def test_memory_does_not_grow_with_n(self):
        table = [[100, 120, 90, 110, 150],
                 [80, 95, 130, 105, 140],
                 [120, 110, 100, 130, 120]]
        assert sum(map(sum, table)) == 1700
        tracemalloc.start()
        try:
            res = stats.chi2_mc(table, b=10000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        # a paper-scale table is far above the enumeration bound, so it is
        # sampled: 10 of the 10000 tables drawn at seed 3 reach X2_obs
        assert ((res["method"], res["B"], res["seed"])
                == ("chi2_monte_carlo", 10000, 3))
        assert res["p"] == 11 / 10001

    def test_degenerate_table_rejected(self):
        with pytest.raises(ValueError):
            stats.chi2_mc([[5, 5]])
        with pytest.raises(ValueError):
            stats.chi2_mc([[5], [5]])
        with pytest.raises(ValueError):
            stats.chi2_mc([[5, 5], [0, 0]])

    @pytest.mark.parametrize("b", [0, -5])
    def test_budget_below_one_rejected(self, b):
        with pytest.raises(ValueError, match="b must be >= 1"):
            stats.chi2_mc([[8, 2, 4], [3, 7, 5]], b=b)

    @pytest.mark.parametrize("table", [[[1.5, 2], [3, 4]],
                                       [[1, 2], [float("nan"), 4]],
                                       [[1, 2], [float("inf"), 4]],
                                       [["1", "2"], ["3", "4"]],
                                       [[1, "1"], [3, 4]],
                                       np.array([[1.5, 2.0], [3.0, 4.0]])])
    def test_fractional_counts_rejected(self, table):
        with pytest.raises(ValueError, match="whole numbers"):
            stats.chi2_mc(table)

    @pytest.mark.parametrize("table", [[[1, 2], [3]], [1, 2, 3], 5, [],
                                       [[[1, 2]], [[3, 4]]],
                                       [[1, [2]], [3, 4]],
                                       np.array([1, 2, 3]),
                                       np.ones((2, 2, 2), dtype=int)])
    def test_not_two_dimensional_rejected(self, table):
        with pytest.raises(ValueError, match="two-dimensional"):
            stats.chi2_mc(table)

    @pytest.mark.parametrize("table", [[[1, -2], [3, 4]],
                                       np.array([[1.0, 2.0], [-3.0, 4.0]])])
    def test_negative_counts_rejected(self, table):
        with pytest.raises(ValueError, match="negative counts"):
            stats.chi2_mc(table)

    def test_whole_float_counts_accepted(self):
        assert (stats.chi2_mc([[8.0, 2.0], [3.0, 7.0]])["p"]
                == stats.chi2_mc([[8, 2], [3, 7]])["p"])

    @pytest.mark.parametrize("sample", [False, True])
    def test_numpy_tables_match_lists(self, monkeypatch, sample):
        if sample:
            monkeypatch.setattr(stats, "_EXACT_STEPS", 0)
        table = [[8, 0, 2, 4], [0, 0, 0, 0], [3, 0, 7, 5]]
        want = stats.chi2_mc(table, b=3000, seed=8)
        for same in (np.array(table, dtype=np.int64),
                     np.array(table, dtype=np.float64),
                     [[np.int64(x) for x in row] for row in table],
                     [[np.float64(x) for x in row] for row in table]):
            assert stats.chi2_mc(same, b=3000, seed=8) == want


# small tables whose every fixed-margin table the exact oracle enumerates
_CHI2_GRID = [
    [[3, 1], [1, 3]], [[5, 2], [1, 4]], [[2, 6], [4, 1]],
    [[3, 1, 2], [1, 4, 2]], [[4, 0, 3], [1, 5, 1]], [[2, 2, 2], [1, 3, 5]],
    [[4, 1], [2, 3], [0, 5]], [[3, 2], [3, 2], [1, 6]],
    [[4, 2, 1], [1, 3, 2], [2, 1, 4]], [[3, 0, 1], [1, 3, 0], [0, 1, 3]],
    [[2, 2, 2], [2, 2, 2], [1, 1, 5]],
]


class TestChi2AgainstExact:
    @pytest.mark.parametrize("table", [t for t in _CHI2_GRID if len(t) == 2])
    def test_table_oracle_matches_permutation_oracle(self, table):
        assert exact_chi2_table_p(table) == pytest.approx(
            exact_chi2_perm_p(table), abs=1e-12)

    @pytest.mark.parametrize("table", [t for t in _CHI2_GRID
                                       if len(t) == len(t[0]) == 2])
    def test_2x2_is_exact(self, table):
        res = stats.chi2_mc(table, b=20000, seed=1)
        assert res["method"] == "chi2_exact"
        assert abs(res["p"] - exact_chi2_table_p(table)) <= 1e-12

    @pytest.mark.parametrize("table", [t for t in _CHI2_GRID
                                       if len(t) * len(t[0]) > 4])
    def test_larger_small_table_is_exact(self, table):
        res = stats.chi2_mc(table, b=20000, seed=1)
        assert ((res["method"], res["B"], res["seed"])
                == ("chi2_exact", None, None))
        assert abs(res["p"] - exact_chi2_table_p(table)) <= 1e-12

    @pytest.mark.usefixtures("sampled")
    @pytest.mark.parametrize("index", range(len(_CHI2_GRID)))
    def test_mc_within_monte_carlo_error(self, index):
        table, b = _CHI2_GRID[index], 20000
        p = exact_chi2_table_p(table)
        res = stats.chi2_mc(table, b=b, seed=1000 + index)
        assert res["method"] == "chi2_monte_carlo"
        assert (abs(res["p"] - p)
                <= 4 * math.sqrt(p * (1 - p) / b) + 1 / (b + 1))


def _exact_2x2_p_fraction(table) -> Fraction:
    """Exact 2x2 p-value in integers: hypergeometric weights from math.comb
    and X2 = N (ad - bc)^2 / (R1 R2 C1 C2) as a Fraction, so no tie needs a
    tolerance."""
    (a0, b0), (c0, d0) = table
    r1, r2, c1 = a0 + b0, c0 + d0, a0 + c0
    n = r1 + r2

    def x2(a):
        det = a * (r2 - c1 + a) - (r1 - a) * (c1 - a)
        return Fraction(n * det * det, r1 * r2 * c1 * (n - c1))

    hits = sum(math.comb(c1, a) * math.comb(n - c1, r1 - a)
               for a in range(max(0, c1 - r2), min(r1, c1) + 1)
               if x2(a) >= x2(a0))
    return Fraction(hits, math.comb(n, r1))


class TestChi2Exact:
    @pytest.mark.parametrize("table", [[[3, 1], [1, 3]], [[2, 1], [1, 2]],
                                       [[6, 1], [1, 6]], [[5, 5], [5, 5]],
                                       [[4, 3], [3, 4]]])
    def test_symmetric_margins_tie_mirrored_cells(self, table):
        # equal row totals and equal column totals: a table and its
        # column-swapped mirror tie on X2
        mirrored = [row[::-1] for row in table]
        res = stats.chi2_mc(table)
        assert res["p"] == stats.chi2_mc(mirrored)["p"]
        assert res["p"] == pytest.approx(float(_exact_2x2_p_fraction(table)),
                                      abs=1e-12)
        assert res["p"] == pytest.approx(exact_chi2_table_p(table), abs=1e-12)

    def test_large_n_does_not_underflow(self):
        table = [[2000, 1500], [1400, 2100]]
        # the naive first weight P(a = 0) is far below the smallest double
        lo_weight = Fraction(math.comb(3600, 3500), math.comb(7000, 3500))
        assert float(lo_weight) == 0.0
        want = _exact_2x2_p_fraction(table)
        res = stats.chi2_mc(table)
        assert 0.0 < res["p"]
        assert res["p"] == pytest.approx(float(want), rel=1e-9)

    def test_random_tables_match_oracle(self):
        # a few hundred seeded tables, 2..4 rows and columns, some with an
        # empty row or column; the oracle sees them with those dropped
        rng = random.Random(20240501)
        checked = 0
        while checked < 300:
            r, c = rng.randint(2, 4), rng.randint(2, 4)
            table = [[0] * c for _ in range(r)]
            for _ in range(rng.randint(4, 14 - r * c // 2)):
                table[rng.randrange(r)][rng.randrange(c)] += 1
            reduced = [row for row in table if sum(row)]
            keep = [j for j in range(c) if any(row[j] for row in reduced)]
            reduced = [[row[j] for j in keep] for row in reduced]
            if len(reduced) < 2 or len(keep) < 2:
                continue
            res = stats.chi2_mc(table)
            assert res["method"] == "chi2_exact", table
            assert abs(res["p"] - exact_chi2_table_p(reduced)) <= 1e-12, table
            checked += 1

    def test_fixture_run_tables_match_oracle(self, data_dir, tmp_path,
                                             monkeypatch):
        from profaudit.cli import main
        seen = []
        chi2_mc = stats.chi2_mc

        def recording(table, b=10000, seed=0):
            res = chi2_mc(table, b=b, seed=seed)
            seen.append((table, res))
            return res

        monkeypatch.setattr(stats, "chi2_mc", recording)
        main(["report", "--all", "--config", str(data_dir / "config.json"),
              "--out-dir", str(tmp_path / "out")])
        assert len(seen) > 30
        for table, res in seen:
            reduced = [row for row in table if sum(row)]
            reduced = [list(col) for col in zip(*reduced) if sum(col)]
            assert ((res["method"], res["B"], res["seed"])
                    == ("chi2_exact", None, None))
            assert abs(res["p"] - exact_chi2_table_p(reduced)) <= 1e-12, table

    @pytest.mark.parametrize("table", [[[10, 10, 10], [10, 10, 10]],
                                       [[3, 3], [3, 3]],
                                       [[2, 4, 6], [1, 2, 3]],
                                       [[1, 2], [2, 4], [3, 6]]])
    def test_minimum_statistic_gives_exactly_one(self, table):
        # proportional rows: every table with these margins has X2 >= 0
        res = stats.chi2_mc(table)
        assert res["statistic"] == pytest.approx(0.0, abs=1e-12)
        assert res["p"] == 1.0

    def test_permuted_and_transposed_tables_give_equal_p(self):
        rng = random.Random(77)
        for _ in range(40):
            table = [[rng.randint(0, 3) for _ in range(4)] for _ in range(3)]
            if min(map(sum, table)) == 0 or min(map(sum, zip(*table))) == 0:
                continue
            res = stats.chi2_mc(table)
            assert res["method"] == "chi2_exact"
            p = res["p"]
            assert stats.chi2_mc(table[::-1])["p"] == p
            assert stats.chi2_mc([row[::-1] for row in table])["p"] == p
            assert (stats.chi2_mc([list(col) for col in zip(*table)])["p"]
                    == p)

    def test_paper_scale_table_is_sampled(self):
        rows = [570, 550, 580]
        cols = [300, 325, 350, 345, 380]
        assert min(stats._enumeration_steps(rows, cols),
                   stats._enumeration_steps(cols, rows)) > stats._EXACT_STEPS

    def test_metadata_records_no_budget(self, request):
        keys = {"method", "statistic", "z", "p", "n", "correction", "seed",
                "B"}
        d = stats.chi2_mc([[8, 2], [3, 7]], b=5000, seed=123)
        assert set(d) == keys
        assert ((d["method"], d["z"], d["n"], d["correction"], d["B"],
                 d["seed"]) == ("chi2_exact", None, [20], None, None, None))
        w = stats.wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0, 5.0])
        assert set(w) == keys
        assert ((w["method"], w["statistic"], w["n"], w["correction"],
                 w["B"], w["seed"])
                == ("wilcoxon_rank_sum", 0.0, [2, 3], None, None, None))
        # a sampled test records its budget and seed
        request.getfixturevalue("sampled")
        s = stats.chi2_mc([[8, 2], [3, 7]], b=500, seed=123)
        assert set(s) == keys
        assert ((s["method"], s["z"], s["n"], s["correction"], s["B"],
                 s["seed"]) == ("chi2_monte_carlo", None, [20], None, 500,
                                123))


class TestCorrelations:
    def test_spearman_identity(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        assert stats.spearman(x, x) == pytest.approx(1.0)

    def test_spearman_reversed(self):
        x = [1, 2, 3, 4, 5]
        y = [10, 8, 6, 4, 2]
        assert stats.spearman(x, y) == pytest.approx(-1.0)

    def test_spearman_tied_fixture_hand_computed(self):
        # midranks(x) = [1.5, 1.5, 3, 4.5, 4.5, 6]
        # midranks(y) = [2, 1, 3, 4, 5.5, 5.5]
        x = [1, 1, 2, 3, 3, 4]
        y = [5, 3, 6, 7, 9, 9]
        expected = pearson_direct([1.5, 1.5, 3, 4.5, 4.5, 6],
                                  [2, 1, 3, 4, 5.5, 5.5])
        assert stats.spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = random.Random(17)
        x = [rng.random() for _ in range(20)]
        y = [rng.random() for _ in range(20)]
        base = stats.spearman(x, y)
        assert stats.spearman([math.exp(v) for v in x], y) == pytest.approx(base)
        assert stats.spearman(x, [v ** 3 for v in y]) == pytest.approx(base)

    def test_spearman_constant_rejected(self):
        with pytest.raises(ValueError):
            stats.spearman([1, 1, 1], [1, 2, 3])

    def test_pearson_linear(self):
        x = [0.0, 1.0, 2.0, 3.0]
        assert stats.pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0)
        assert stats.pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_pearson_matches_direct_formula(self):
        rng = random.Random(23)
        x = [rng.gauss(0, 2) for _ in range(30)]
        y = [rng.gauss(1, 3) for _ in range(30)]
        assert stats.pearson(x, y) == pytest.approx(pearson_direct(x, y), abs=1e-12)

    def test_pearson_constant_rejected(self):
        with pytest.raises(ValueError):
            stats.pearson([2, 2, 2], [1, 2, 3])


class TestLogistic:
    def test_intercept_only_balanced(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5)
        fit = stats.logistic_fit(X, y)
        assert abs(fit["coefficients"][0]) < 1e-8
        assert fit["converged"]

    def test_simulate_and_recover(self):
        rng = np.random.Generator(np.random.Philox(key=404))
        n = 10000
        x = rng.normal(size=n)
        beta_true = (-1.0, 3.0)
        p = 1.0 / (1.0 + np.exp(-(beta_true[0] + beta_true[1] * x)))
        y = (rng.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = stats.logistic_fit(X, y)
        assert fit["converged"]
        for est, se, true in zip(fit["coefficients"], fit["std_errors"],
                                 beta_true):
            assert abs(est - true) <= 3 * se
        assert 0 < fit["mcfadden_r2"] < 1
        assert fit["accuracy"] > 0.6

    def test_score_at_mle_is_zero(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        n = 500
        x = rng.normal(size=n)
        p = 1.0 / (1.0 + np.exp(-(0.5 - 1.5 * x)))
        y = (rng.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = stats.logistic_fit(X, y)
        score = logistic_score(X, y, fit["coefficients"])
        assert float(np.abs(score).max()) < 1e-6

    def test_fd_gradient_matches_score(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        n = 200
        x = rng.normal(size=n)
        y = (rng.random(n) < 0.4).astype(float)
        X = np.column_stack([np.ones(n), x])
        beta = [0.3, -0.7]
        analytic = logistic_score(X, y, beta)
        numeric = fd_gradient(lambda b: logistic_log_likelihood(X, y, b),
                              beta, h=1e-6)
        for a, g in zip(analytic, numeric):
            assert abs(a - g) < 1e-4

    def test_perfect_separation_flagged(self):
        x = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(6), x])
        fit = stats.logistic_fit(X, y)
        assert not fit["converged"]

    def test_single_class_rejected(self):
        X = np.ones((5, 1))
        with pytest.raises(ValueError):
            stats.logistic_fit(X, np.ones(5))

    def test_solve_pivots_and_detects_singular(self):
        # a zero leading entry needs a row swap; this solution is exact
        assert stats._solve([[0.0, 2.0], [4.0, 0.0]],
                            [[2.0, 1.0], [8.0, 0.0]]) == [[2.0, 0.0],
                                                          [1.0, 0.5]]
        with pytest.raises(ValueError, match="singular"):
            stats._solve([[1.0, 2.0], [2.0, 4.0]], [[1.0], [1.0]])


class TestFleissKappa:
    def test_perfect_agreement(self):
        counts = [[3, 0], [0, 3], [3, 0], [0, 3]]
        res = stats.fleiss_kappa(counts, 3)
        assert res["kappa"] == pytest.approx(1.0, abs=1e-12)
        assert res["p_bar"] == pytest.approx(1.0)

    def test_hand_matrix(self):
        # P_1 = P_2 = 1, P_3 = 1/3 -> P_bar = 7/9
        # p = (5/9, 4/9) -> P_e = 41/81 -> kappa = (63-41)/(81-41) = 0.55
        counts = [[3, 0], [0, 3], [2, 1]]
        res = stats.fleiss_kappa(counts, 3)
        assert res["kappa"] == pytest.approx(0.55, abs=1e-12)
        assert res["p_bar"] == pytest.approx(7 / 9, abs=1e-12)
        assert res["p_bar_e"] == pytest.approx(41 / 81, abs=1e-12)

    def test_kappa_never_exceeds_one(self):
        rng = random.Random(31)
        for _ in range(50):
            rows = []
            for _ in range(6):
                a = rng.randint(0, 4)
                b = rng.randint(0, 4 - a)
                rows.append([a, b, 4 - a - b])
            try:
                res = stats.fleiss_kappa(rows, 4)
            except ValueError:
                continue
            assert res["kappa"] <= 1.0 + 1e-12

    def test_single_category_rejected(self):
        with pytest.raises(ValueError):
            stats.fleiss_kappa([[3, 0], [3, 0]], 3)

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            stats.fleiss_kappa([[2, 0]], 3)


class TestCorrections:
    def test_bonferroni_paper_value(self):
        assert round(stats.bonferroni(0.05, 3), 4) == 0.0167

    def test_bonferroni_trivial(self):
        assert stats.bonferroni(0.05, 1) == 0.05
        assert stats.bonferroni(0.10, 5) == pytest.approx(0.02)

    def test_bh_all_ones(self):
        res = stats.bh_two_stage([1.0, 1.0, 1.0])
        assert res["reject"] == [False, False, False]

    def test_bh_single_small_p(self):
        res = stats.bh_two_stage([0.01], q=0.05)
        assert res["reject"] == [True]

    def test_bh_matches_direct_definition(self):
        rng = random.Random(55)
        for _ in range(100):
            ps = [round(rng.random(), 3) for _ in range(5)]
            got = stats.bh_two_stage(ps, q=0.05)["reject"]
            assert got == bh_two_stage_direct(ps, 0.05)

    def test_adjusted_p_monotone(self):
        rng = random.Random(77)
        ps = [rng.random() for _ in range(20)]
        adj = stats.bh_adjusted(ps)
        pairs = sorted(zip(ps, adj))
        for (_, a1), (_, a2) in zip(pairs, pairs[1:]):
            assert a1 <= a2 + 1e-15

    def test_bh_empty(self):
        res = stats.bh_two_stage([])
        assert res["reject"] == []
        assert res["adjusted_p"] == []

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5, float("inf")])
    def test_bh_p_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            stats.bh_two_stage([0.001, bad, 0.02])


def _close(got, want):
    """Equal to 1e-9 relative; an absolute 1e-12 for values that cancel
    to about zero, such as the McFadden R2 of an intercept-only model."""
    return got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _fit_values(fit) -> list:
    return [*fit["coefficients"], *fit["std_errors"], *fit["p_values"],
            *(c for ci in fit["ci95"] for c in ci), fit["accuracy"],
            fit["mcfadden_r2"]]


class TestAgainstNumpyOracles:
    """The plain-Python statistics against the numpy versions they
    replaced (tests/oracles.py), on seeded random inputs."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_logistic_fit(self, k):
        rng = random.Random(600 + k)
        converged = 0
        for _ in range(20):
            n = rng.randint(k + 3, 60)
            # intercept, a normal predictor, a large count predictor
            X = [[1.0, rng.gauss(0, 2), float(rng.randint(0, 5000))][:k]
                 for _ in range(n)]
            beta = [rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1e-3)]
            y = [float(rng.random() < 1 / (1 + math.exp(
                -sum(b * x for b, x in zip(beta, row))))) for row in X]
            if min(y) == max(y):
                continue
            got, want = stats.logistic_fit(X, y), numpy_logistic_fit(X, y)
            assert ((got["converged"], got["iterations"])
                    == (want["converged"], want["iterations"]))
            if want["converged"]:  # small samples may separate
                converged += 1
                assert _close(_fit_values(got), _fit_values(want))
        assert converged >= 10

    @pytest.mark.parametrize("k", [2, 3])
    def test_logistic_fit_separated(self, k):
        rng = random.Random(700 + k)
        for _ in range(10):
            n = rng.randint(6, 40)
            xs = sorted(rng.gauss(0, 2) for _ in range(n))
            X = [[1.0, x, float(rng.randint(0, 100))][:k] for x in xs]
            cut = rng.randint(1, n - 1)
            y = [float(i >= cut) for i in range(n)]
            got, want = stats.logistic_fit(X, y), numpy_logistic_fit(X, y)
            assert (got["converged"], got["iterations"]) == (
                False, want["iterations"])
            # a drifting fit stops where the likelihood flattens, so its
            # digits are looser than a converged fit's
            assert got["coefficients"] == pytest.approx(
                want["coefficients"], rel=1e-6)

    @pytest.mark.parametrize("column", [
        lambda row: row[1],  # a duplicated predictor
        lambda row: 0.0])
    def test_logistic_fit_rank_deficient(self, column):
        rng = random.Random(31)
        X = [[1.0, rng.gauss(0, 1)] for _ in range(20)]
        X = [row + [column(row)] for row in X]
        y = [float(i % 3 == 0) for i in range(20)]
        for fit in (stats.logistic_fit, numpy_logistic_fit):
            with pytest.raises(ValueError, match="singular design matrix"):
                fit(X, y)

    def test_pearson(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(2, 40)
            x = [rng.gauss(0, 3) for _ in range(n)]
            y = [rng.gauss(0, 1) + rng.choice([0, 0.5]) * v for v in x]
            assert _close(stats.pearson(x, y), numpy_pearson(x, y))

    def test_fleiss_kappa(self):
        rng = random.Random(43)
        for _ in range(50):
            raters, cats = rng.randint(2, 6), rng.randint(2, 4)
            rows = []
            for _ in range(rng.randint(1, 12)):
                row = [0] * cats
                for _ in range(raters):
                    row[rng.randrange(cats)] += 1
                rows.append(row)
            try:
                want = numpy_fleiss_kappa(rows, raters)
            except ValueError:
                with pytest.raises(ValueError):
                    stats.fleiss_kappa(rows, raters)
                continue
            got = stats.fleiss_kappa(rows, raters)
            assert _close([got["kappa"], got["p_bar"], got["p_bar_e"]],
                          [want["kappa"], want["p_bar"], want["p_bar_e"]])
            sizes = ("n_raters", "n_items", "n_categories")
            assert [got[k] for k in sizes] == [want[k] for k in sizes]

    def test_benjamini_hochberg_with_ties(self):
        rng = random.Random(47)
        for _ in range(100):
            # two decimals, so many p-values tie
            ps = [round(rng.random() ** 3, 2) for _ in range(rng.randint(1, 12))]
            assert stats.bh_adjusted(ps) == numpy_bh_adjusted(ps)
            for q in (0.05, 0.2):
                assert stats.bh_two_stage(ps, q) == numpy_bh_two_stage(ps, q)
