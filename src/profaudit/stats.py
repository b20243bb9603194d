"""Deterministic statistics engine: rank tests, chi-square tests with
fixed-margin p-values, correlations, logistic regression, multi-rater
agreement, and multiple-comparison corrections.

A chi-square p-value is exact, by enumeration over the table's columns,
for every table whose margins bound that enumeration by ``_EXACT_STEPS``
steps (every table the audit tests), and Monte Carlo for larger ones. The
exact path compares the statistic as an integer, so its ties are exact
and need no tolerance.

Everything but the Monte Carlo sampler works on plain Python lists, so
the audit, whose tables are all enumerated, never imports numpy; the
sampler imports it to draw large tables. Results are reproducible
bit-for-bit from a single 64-bit seed, and every method can be checked
against small independent oracles (exhaustive enumeration, direct formula
substitution, simulate-then-fit) in the test suite.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from collections.abc import Iterable
from operator import mul

# z quantile for a two-sided 95% interval
_Z95 = 1.959963984540054

# A table is enumerated when _enumeration_steps bounds its DP by this many
# steps, and sampled otherwise. The bound is an upper bound on the DP's
# work, so an exact test costs at most about as much as sampling the same
# table with the audit's b = 10000. Every image test of the audit is let
# through: the largest, a 3x5 table with N = 33, bounds 3523.
_EXACT_STEPS = 4000

# Monte Carlo tables are simulated this many at a time, so memory stays
# bounded whatever the number of draws; the chunks take consecutive draws
# from one generator.
_MC_CHUNK = 8192

# family-wise alpha of every Bonferroni suite and q of every two-stage
# Benjamini-Hochberg correction
ALPHA = 0.05

# IRLS in logistic_fit: step tolerance, step limit, and the |beta| past
# which a still-improving likelihood is taken for perfect separation
_FIT_TOL = 1e-8
_FIT_MAX_ITER = 100
_SEPARATION_BOUND = 50.0


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _rows(table) -> list[list] | None:
    """The rows of a non-empty two-dimensional table of equal-length rows
    (nested lists or a numpy array), as lists; None for any other shape."""
    try:
        rows = [list(row) for row in table]
    except TypeError:  # a row that is a single value
        return None
    if not rows or len({len(row) for row in rows}) > 1 or any(
            isinstance(x, Iterable) and not isinstance(x, str)
            for row in rows for x in row):
        return None
    return rows


def midranks(values) -> list[float]:
    """Ranks 1..n with ties replaced by the average of their positions."""
    vals = [float(v) for v in values]
    if any(math.isnan(v) for v in vals):
        raise ValueError("midranks: NaN in input")
    n = len(vals)
    order = sorted(range(n), key=lambda i: vals[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_rank_sum(x, y) -> dict:
    """Two-sided Wilcoxon-Mann-Whitney rank-sum test.

    Uses the normal approximation with tie-corrected variance and a 0.5
    continuity correction. The statistic reported is the Mann-Whitney U of
    the first sample. When both samples are a single repeated value the
    test is degenerate and p = 1 is returned. Returns the test's record:
    ``method``, ``statistic``, ``z``, ``p``, ``n`` (the sample sizes), and
    ``correction`` (recorded beside the test), ``seed`` and ``B``, all None.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n1, n2 = len(x), len(y)
    if n1 < 1 or n2 < 1:
        raise ValueError("wilcoxon_rank_sum: both samples must be non-empty")
    combined = x + y
    ranks = midranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    big_n = n1 + n2

    # tie correction: sum over tie groups of t^3 - t
    counts: dict[float, int] = {}
    for v in combined:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in counts.values())

    var = n1 * n2 / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        z, p = 0.0, 1.0
    else:
        mu = n1 * n2 / 2.0
        dev = u1 - mu
        if dev > 0:
            dev -= 0.5
        elif dev < 0:
            dev += 0.5
        z = dev / math.sqrt(var)
        p = min(1.0, 2.0 * _norm_cdf(-abs(z)))
    return {"method": "wilcoxon_rank_sum", "statistic": u1, "z": z, "p": p,
            "n": [n1, n2], "correction": None, "seed": None, "B": None}


def _column_moves(s: tuple, total: int, w: list[int],
                  w_rest: list[int] | None = None) -> list[tuple]:
    """``(s - v, p, dq)`` for each column vector ``v`` that a column of
    ``total`` units can take from row totals ``s``: the node it leads to,
    its probability prod_i comb(s_i, v_i) / comb(sum(s), total), and the
    Q it adds, sum_i v_i^2 w_i, plus sum_i (s_i - v_i)^2 w_rest_i when the
    rest ``s - v`` is the last column.

    The vectors are extended one row at a time, each row taking only
    counts that the rows after it can complete. Per row, log comb(s_i, k)
    is accumulated from the ratio comb(n, k + 1) / comb(n, k) =
    (n - k) / (k + 1), up to a constant; the weights are shifted to a
    maximum of 1 and divided by their sum, which is exactly that
    denominator (Vandermonde's identity). So no weight overflows, none
    that matters underflows, and the cost does not grow with the counts.
    """
    grand = room = sum(s)
    moves = [((), total, 0.0, 0)]  # (s - v so far, units left, log w, dq)
    for n, wi, wr in zip(s, w, w_rest or itertools.repeat(0)):
        room -= n  # what the rows after this one can take
        lo = max(0, total - grand + n)
        log_c = [0.0]  # log comb(n, lo + i) - log comb(n, lo)
        for k in range(lo, min(n, total)):
            log_c.append(log_c[-1] + math.log((n - k) / (k + 1)))
        moves = [(rest + (n - x,), left - x, lw + log_c[x - lo],
                  dq + x * x * wi + (n - x) ** 2 * wr)
                 for rest, left, lw, dq in moves
                 for x in range(max(0, left - room), min(n, left) + 1)]
    top = max(m[2] for m in moves)
    p = [math.exp(m[2] - top) for m in moves]
    norm = sum(p)
    return [(rest, x / norm, dq) for (rest, _, _, dq), x in zip(moves, p)]


def _enumeration_steps(rows: list[int], cols: list[int]) -> int:
    """Upper bound, from the margins alone, on the (state, column vector)
    pairs ``_exact_p`` visits when the DP runs over ``cols``.

    A column of t units has at most prod (min(R_i, t) + 1) vectors, the
    product over every row but the largest (that row takes the rest), and
    at most comb(t + r - 1, r - 1), the ways to split t units into r rows.
    A layer holds at most as many states as there are partial tables of
    the columns placed so far, the product of their vector counts. The
    last two columns are placed together, one step per node and vector of
    the second-largest column. The nodes are at most those states, and at
    most prod (R_i + 1) over the same rows; and since a step also fixes the
    largest column's vector, there are at most as many nodes as that
    column has vectors.
    """
    rest = sorted(rows)[:-1]
    cols = sorted(cols)

    def vectors(t: int) -> int:
        return min(math.prod(min(x, t) + 1 for x in rest),
                   math.comb(t + len(rest), len(rest)))

    steps = states = 1
    for t in cols[:-2]:
        states *= vectors(t)
        steps += states
    nodes = min(states, math.prod(x + 1 for x in rest), vectors(cols[-1]))
    return steps + nodes * vectors(cols[-2])


def _exact_p(table: list[list[int]]) -> float:
    """Exact fixed-margin p-value of the Pearson statistic for a table
    with positive margins, by dynamic programming over its columns.

    A node is the vector ``s`` of row totals not yet placed; taking column
    vector ``v`` from it has the probability of ``_column_moves``. The
    statistic is carried as the integer Q = sum n_ij^2 L / (R_i C_j) with
    L = lcm(R_i C_j), so X2 = N Q / L - N and X2 >= X2_obs exactly when
    Q >= Q_obs: ties are exact and need no tolerance. States with equal
    (node, Q) are merged. Columns are placed by ascending total and the
    last column is forced, so the second-largest is placed against the
    sorted Q values of each node: one bisection per column vector. Rows
    are put in ascending order of their totals too, so the arithmetic
    depends on the sorted margins and Q_obs alone, and tables that differ
    by a permutation of rows or columns, or a transposition, get the same
    p. p is the hit mass over the total mass, both summed the same way, so
    p is exactly 1.0 when every table reaches Q_obs and never exceeds 1.
    """
    table = sorted(table, key=sum)
    rows = [sum(r) for r in table]
    cols = [sum(c) for c in zip(*table)]
    lcm = math.lcm(*(ri * cj for ri in rows for cj in cols))
    w = [[lcm // (ri * cj) for ri in rows] for cj in cols]
    q_obs = sum(x * x * w[j][i] for i, row in enumerate(table)
                for j, x in enumerate(row))
    order = sorted(range(len(cols)), key=cols.__getitem__)

    layer = {tuple(rows): {0: 1.0}}  # node -> {Q so far: probability}
    for j in order[:-2]:
        nxt: dict[tuple, dict[int, float]] = {}
        for s, qs in layer.items():
            for node, p_v, dq in _column_moves(s, cols[j], w[j]):
                child = nxt.setdefault(node, {})
                for q, mass in qs.items():
                    q += dq
                    child[q] = child.get(q, 0.0) + mass * p_v
        layer = nxt

    j, last = order[-2], order[-1]
    hit = total = 0.0
    for s, qs in layer.items():
        keys = sorted(qs)
        # tail[k]: mass of the Q values keys[k:]
        tail = list(itertools.accumulate(qs[q] for q in reversed(keys)))
        tail = tail[::-1] + [0.0]
        for _, p_v, dq in _column_moves(s, cols[j], w[j], w[last]):
            hit += p_v * tail[bisect.bisect_left(keys, q_obs - dq)]
            total += p_v * tail[0]
    return hit / total


def chi2_mc(table, b: int = 10000, seed: int = 0) -> dict:
    """Pearson chi-square independence test with a fixed-margin p-value.

    ``table`` is nested lists or a numpy array of whole-number counts, and
    ``b`` must be at least 1. Empty rows and columns are dropped first. A
    table whose margins bound its enumeration (``_enumeration_steps``, in
    either orientation) by ``_EXACT_STEPS``
    gets the exact conditional p-value of ``_exact_p``, recorded as method
    ``chi2_exact`` with ``B`` and ``seed`` unused (None). That is every
    table of the audit's image tests. There the statistic is compared as
    the integer Q of ``_exact_p``, so exact ties need no tolerance.

    A larger table samples ``b`` tables with both margins fixed and
    reports p = (1 + #{X2_sim >= X2_obs}) / (b + 1), counting float ties
    within 1e-9. Tables are drawn cell by cell (Patefield 1981, AS 159,
    sequential form): given the cells placed so far, a cell is
    hypergeometric in what is left of its row and column totals; the last
    cell of each row and the last row follow from the margins. One Philox
    generator keyed with ``seed`` draws every table. Only this branch
    imports numpy. The record has the keys of ``wilcoxon_rank_sum``, with
    ``z`` None and ``n`` the table's total.
    """
    if b < 1:
        raise ValueError("chi2_mc: b must be >= 1")
    tab = _rows(table)
    if tab is None:
        raise ValueError("chi2_mc: table must be two-dimensional")
    if not all(isinstance(x, numbers.Integral) or (
            isinstance(x, numbers.Real) and math.isfinite(x)
            and float(x).is_integer()) for row in tab for x in row):
        raise ValueError("chi2_mc: counts must be whole numbers")
    tab = [[int(x) for x in row] for row in tab]
    if any(x < 0 for row in tab for x in row):
        raise ValueError("chi2_mc: negative counts")
    # drop empty margins so every expected cell is positive
    tab = [row for row in tab if any(row)]
    keep = [j for j, col in enumerate(zip(*tab)) if any(col)]
    if len(tab) < 2 or len(keep) < 2:
        raise ValueError("chi2_mc: degenerate table (needs >=2 nonzero rows and columns)")
    tab = [[row[j] for j in keep] for row in tab]
    rows = [sum(row) for row in tab]
    cols = [sum(col) for col in zip(*tab)]
    total = sum(rows)
    expected = [[ri * cj / total for cj in cols] for ri in rows]
    x2_obs = sum((x - e) ** 2 / e for row, e_row in zip(tab, expected)
                 for x, e in zip(row, e_row))
    over_cols = _enumeration_steps(rows, cols)
    over_rows = _enumeration_steps(cols, rows)
    if min(over_cols, over_rows) <= _EXACT_STEPS:
        # the cheaper orientation; on a tie, the one with the smaller
        # sorted row totals, so a table and its transpose run the same DP
        if (over_cols, sorted(rows)) > (over_rows, sorted(cols)):
            tab = [list(col) for col in zip(*tab)]
        return {"method": "chi2_exact", "statistic": x2_obs, "z": None,
                "p": _exact_p(tab), "n": [total], "correction": None,
                "seed": None, "B": None}

    import numpy as np  # only sampling a large table needs it

    r, c = len(rows), len(cols)
    row_sums, col_sums, expected = rows, np.array(cols), np.array(expected)
    rng = np.random.Generator(np.random.Philox(key=seed))
    ge = 0
    done = 0
    while done < b:
        k = min(_MC_CHUNK, b - done)
        left = np.tile(col_sums, (k, 1))  # column totals not yet placed
        x2_sim = np.zeros(k)
        for i in range(r - 1):
            need = np.full(k, row_sums[i])  # row total not yet placed
            rest = left.sum(axis=1)
            for j in range(c - 1):
                rest -= left[:, j]  # units left in the columns after j
                cell = rng.hypergeometric(left[:, j], rest, need)
                x2_sim += (cell - expected[i, j]) ** 2 / expected[i, j]
                left[:, j] -= cell
                need -= cell
            x2_sim += (need - expected[i, -1]) ** 2 / expected[i, -1]
            left[:, -1] -= need
        x2_sim += ((left - expected[-1]) ** 2 / expected[-1]).sum(axis=1)
        ge += int((x2_sim >= x2_obs - 1e-9).sum())
        done += k

    return {"method": "chi2_monte_carlo", "statistic": x2_obs, "z": None,
            "p": (1.0 + ge) / (b + 1.0), "n": [total], "correction": None,
            "seed": seed, "B": b}


def pearson(x, y) -> float:
    """Product-moment correlation coefficient."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("pearson: inputs must be 1-d vectors of equal length")
    if len(xs) < 2:
        raise ValueError("pearson: need at least two observations")
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    sx = math.sqrt(sum(map(mul, dx, dx)))
    sy = math.sqrt(sum(map(mul, dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson: correlation undefined for a constant vector")
    return sum(map(mul, dx, dy)) / (sx * sy)


def spearman(x, y) -> float:
    """Spearman rank correlation, tie-corrected via midranks.

    With ties averaged, the Pearson correlation of the midrank vectors is
    exactly the tie-corrected coefficient.
    """
    if len(x) != len(y):
        raise ValueError("spearman: inputs must have equal length")
    if len(x) < 3:
        raise ValueError("spearman: need at least three observations")
    return pearson(midranks(x), midranks(y))


def _etas(X: list[list[float]], beta: list[float]) -> list[float]:
    """The linear predictor of every row, clipped to [-35, 35]."""
    return [min(35.0, max(-35.0, sum(map(mul, row, beta)))) for row in X]


def _log_likelihood(X, y, beta) -> float:
    eta = _etas(X, beta)
    # log(1 + e^eta) computed stably
    return sum(map(mul, y, eta)) - sum(
        max(e, 0.0) + math.log1p(math.exp(-abs(e))) for e in eta)


def _irls_terms(X, y, beta) -> tuple[list, list, list]:
    """Fitted probabilities p, the information X'WX with the weights
    p(1 - p) floored at 1e-10, and the score X'(y - p), at ``beta``."""
    p = [1.0 / (1.0 + math.exp(-e)) for e in _etas(X, beta)]
    w = [max(pi * (1.0 - pi), 1e-10) for pi in p]
    cols = list(zip(*X))
    wcols = [list(map(mul, col, w)) for col in cols]
    resid = [yi - pi for yi, pi in zip(y, p)]
    xtwx = [[sum(map(mul, a, wc)) for wc in wcols] for a in cols]
    return p, xtwx, [sum(map(mul, col, resid)) for col in cols]


def _solve(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """x with a x = b, by Gauss-Jordan elimination with partial pivoting.
    ``b`` has a row per row of ``a`` and a column per right-hand side. An
    exactly zero pivot means ``a`` is singular."""
    k = len(a)
    m = [ra + rb for ra, rb in zip(a, b)]
    for j in range(k):
        top = max(range(j, k), key=lambda i: abs(m[i][j]))
        if m[top][j] == 0.0:
            raise ValueError("logistic_fit: singular design matrix")
        m[j], m[top] = m[top], m[j]
        pivot = m[j][j]
        m[j] = [v / pivot for v in m[j]]
        for i in range(k):
            if i != j:
                f = m[i][j]
                m[i] = [v - f * u for v, u in zip(m[i], m[j])]
    return [row[k:] for row in m]


def logistic_fit(X, y) -> dict:
    """Maximum-likelihood logistic regression via IRLS.

    ``X`` is the full design matrix including the intercept column; ``y``
    is binary. Convergence when max |delta beta| < ``_FIT_TOL`` within
    ``_FIT_MAX_ITER`` steps; each step solves X'WX delta = X'(y - p) by
    ``_solve``. Wald standard errors come from the inverse observed
    information X'WX, the same solve against the identity. Suspected
    perfect separation (|beta| drifting past ``_SEPARATION_BOUND`` while
    the likelihood still improves) yields a result flagged
    converged=False rather than an exception.

    Returns a dict: per coefficient, in column order, lists of
    ``coefficients``, ``std_errors``, ``p_values`` and ``ci95`` (low, high)
    pairs; the in-sample ``accuracy`` at a 0.5 cut, ``mcfadden_r2``,
    ``converged`` and the number of ``iterations``.
    """
    X = _rows(X)
    if X is None:
        raise ValueError("logistic_fit: X must be a non-empty 2-d design matrix")
    X = [[float(v) for v in row] for row in X]
    y = [float(v) for v in y]
    n, k = len(X), len(X[0])
    if len(y) != n:
        raise ValueError("logistic_fit: X and y lengths differ")
    if n <= k:
        raise ValueError("logistic_fit: need more observations than parameters")
    if any(v not in (0.0, 1.0) for v in y):
        raise ValueError("logistic_fit: y must be binary")
    if min(y) == max(y):
        raise ValueError("logistic_fit: y contains a single class")

    beta = [0.0] * k
    ll_prev = _log_likelihood(X, y, beta)
    converged = False
    iterations = 0
    for iterations in range(1, _FIT_MAX_ITER + 1):
        _, xtwx, score = _irls_terms(X, y, beta)
        delta = [d for d, in _solve(xtwx, [[s] for s in score])]
        beta = [b + d for b, d in zip(beta, delta)]
        if max(map(abs, delta)) < _FIT_TOL:
            converged = True
            break
        ll = _log_likelihood(X, y, beta)
        if max(map(abs, beta)) > _SEPARATION_BOUND and ll > ll_prev:
            break
        ll_prev = ll

    p, xtwx, _ = _irls_terms(X, y, beta)
    cov = _solve(xtwx, [[float(i == j) for j in range(k)] for i in range(k)])
    se = [math.sqrt(max(cov[i][i], 0.0)) for i in range(k)]
    pvals = [min(1.0, 2.0 * _norm_cdf(-abs(b / s if s > 0 else math.inf)))
             for b, s in zip(beta, se)]
    ci = [(b - _Z95 * s, b + _Z95 * s) for b, s in zip(beta, se)]
    accuracy = sum((pi >= 0.5) == (yi == 1.0) for pi, yi in zip(p, y)) / n
    ll = _log_likelihood(X, y, beta)
    pbar = sum(y) / n
    ll_null = n * (pbar * math.log(pbar) + (1 - pbar) * math.log(1 - pbar))
    mcfadden = 1.0 - ll / ll_null if ll_null != 0 else float("nan")
    return {
        "coefficients": beta,
        "std_errors": se,
        "p_values": pvals,
        "ci95": ci,
        "accuracy": accuracy,
        "mcfadden_r2": mcfadden,
        "converged": converged,
        "iterations": iterations,
    }


def model_report(fit: dict, outcome: str, predictors) -> dict:
    """Table layout of a ``logistic_fit`` result: one row per
    coefficient, named by ``predictors``, with an odds-ratio column. A
    one-unit predictor increase multiplies the odds by exp(coef); the odds
    ratio is written as null for |coef| >= 500, and for every coefficient
    of a fit that did not converge (a separated design, whose coefficients
    drift without bound, so exp(coef) would print digits of arithmetic
    noise)."""
    rows = []
    for i, name in enumerate(predictors):
        coef = fit["coefficients"][i]
        rows.append({
            "predictor": name,
            "coef": coef,
            "std_error": fit["std_errors"][i],
            "p": fit["p_values"][i],
            "ci95_low": fit["ci95"][i][0],
            "ci95_high": fit["ci95"][i][1],
            "odds_ratio": (math.exp(coef)
                           if fit["converged"] and abs(coef) < 500 else None),
        })
    return {
        "outcome": outcome,
        "accuracy": fit["accuracy"],
        "pseudo_r2": fit["mcfadden_r2"],
        "converged": fit["converged"],
        "coefficients": rows,
    }


def fleiss_kappa(counts, n_raters: int) -> dict:
    """Fleiss' kappa for fixed-size multi-rater categorical agreement.

    ``counts`` has one row per item and one column per category; entry
    (i, j) is the number of raters who put item i in category j. Every
    row must sum to ``n_raters``. Returns a dict of ``kappa``, the mean
    observed and chance agreement ``p_bar`` and ``p_bar_e``, and
    ``n_raters``, ``n_items`` and ``n_categories``.
    """
    tab = _rows(counts)
    if tab is None:
        raise ValueError("fleiss_kappa: counts must be two-dimensional")
    tab = [[float(v) for v in row] for row in tab]
    if n_raters < 2:
        raise ValueError("fleiss_kappa: need at least two raters")
    n_items, n_cats = len(tab), len(tab[0])
    if any(sum(row) != n_raters for row in tab):
        raise ValueError("fleiss_kappa: every row must sum to n_raters")

    n = float(n_raters)
    p_bar = sum((sum(map(mul, row, row)) - n) / (n * (n - 1.0))
                for row in tab) / n_items
    p_bar_e = sum((sum(col) / (n_items * n)) ** 2 for col in zip(*tab))
    if p_bar_e >= 1.0 - 1e-15:
        raise ValueError("fleiss_kappa: undefined, all assignments in one category")
    kappa = (p_bar - p_bar_e) / (1.0 - p_bar_e)
    return {"kappa": kappa, "p_bar": p_bar, "p_bar_e": p_bar_e,
            "n_raters": n_raters, "n_items": n_items, "n_categories": n_cats}


def bonferroni(alpha: float, m: int) -> float:
    """Family-wise corrected significance level alpha / m."""
    if m < 1:
        raise ValueError("bonferroni: m must be >= 1")
    return alpha / m


def _bh_reject(p: list[float], level: float) -> list[bool]:
    """Linear step-up rejections at the given level."""
    m = len(p)
    order = sorted(range(m), key=p.__getitem__)
    kmax = 0
    for rank, idx in enumerate(order, start=1):
        if p[idx] <= rank * level / m:
            kmax = rank
    reject = [False] * m
    for idx in order[:kmax]:
        reject[idx] = True
    return reject


def bh_adjusted(pvals) -> list[float]:
    """Single-stage Benjamini-Hochberg adjusted p-values."""
    p = [float(v) for v in pvals]
    m = len(p)
    order = sorted(range(m), key=p.__getitem__)
    adj = [1.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, p[idx] * m / rank)
        adj[idx] = running
    return adj


def bh_two_stage(pvals, q: float = ALPHA) -> dict:
    """Two-stage Benjamini-Hochberg step-up correction.

    Stage 1 runs the step-up at q/(1+q) to estimate the number of true
    nulls m0 = m - r1; stage 2 reruns the step-up at q*m/m0. When stage 1
    rejects nothing the procedure stops (nothing rejected); when it
    rejects everything, everything stays rejected. Single-stage adjusted
    p-values are emitted alongside for comparison. A p-value outside
    [0, 1], NaN included, is a ValueError.

    Returns a dict: ``reject`` and ``adjusted_p`` per p-value, in input
    order, the estimate ``m0_estimate`` and ``q``.
    """
    p = [float(v) for v in pvals]
    m = len(p)
    if m == 0:
        return {"reject": [], "adjusted_p": [], "m0_estimate": 0, "q": q}
    if not all(0.0 <= v <= 1.0 for v in p):
        raise ValueError("bh_two_stage: p-values must lie in [0, 1]")
    reject = _bh_reject(p, q / (1.0 + q))
    r1 = sum(reject)
    m0 = m - r1
    if 0 < r1 < m:
        reject = _bh_reject(p, q * m / m0)
    return {"reject": reject, "adjusted_p": bh_adjusted(p),
            "m0_estimate": m0, "q": q}


def mark_bh_two_stage(tests: list[dict], q: float) -> dict:
    """Run ``bh_two_stage`` over the tests' ``test["p"]``, mark each test
    dict with ``rejected_two_stage`` and ``adjusted_p_single_stage``, and
    return the dict ``bh_two_stage`` returned."""
    bh = bh_two_stage([t["test"]["p"] for t in tests], q=q)
    for t, flag, adj in zip(tests, bh["reject"], bh["adjusted_p"]):
        t["rejected_two_stage"] = flag
        t["adjusted_p_single_stage"] = adj
    return bh
