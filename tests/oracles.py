"""Independent brute-force oracles used by the unit and acceptance tests.

Each helper re-derives an expected value straight from a definition
(exhaustive enumeration, direct formula) and deliberately shares no code
with the implementation under test.
"""

import itertools
import math
import re
import unicodedata
from functools import lru_cache

import numpy as np

from profaudit.mentions import PersonMention, Source


@lru_cache(maxsize=None)
def exact_u_counts(n: int, m: int) -> tuple:
    """Distribution of the Mann-Whitney U statistic under H0, no ties.

    Returns a tuple c where c[u] is the number of rank assignments (out of
    C(n+m, n)) whose first-sample U equals u. Computed by a subset-sum DP
    over which ranks belong to the first sample.
    """
    big_n = n + m
    max_sum = sum(range(big_n - n + 1, big_n + 1))
    dp = [[0] * (max_sum + 1) for _ in range(n + 1)]
    dp[0][0] = 1
    for r in range(1, big_n + 1):
        for k in range(min(r, n), 0, -1):
            row_k, row_k1 = dp[k], dp[k - 1]
            for s in range(max_sum, r - 1, -1):
                if row_k1[s - r]:
                    row_k[s] += row_k1[s - r]
    base = n * (n + 1) // 2
    counts = [0] * (n * m + 1)
    for s, c in enumerate(dp[n]):
        if c:
            counts[s - base] = c
    return tuple(counts)


def exact_wilcoxon_p(x, y) -> float:
    """Exact two-sided p for tie-free samples: P(|U - mu| >= |u_obs - mu|)."""
    n, m = len(x), len(y)
    combined = sorted(x + y)
    assert len(set(combined)) == len(combined), "oracle requires tie-free data"
    ranks = {v: i + 1 for i, v in enumerate(combined)}
    r1 = sum(ranks[v] for v in x)
    u_obs = r1 - n * (n + 1) / 2.0
    mu = n * m / 2.0
    dev = abs(u_obs - mu)
    counts = exact_u_counts(n, m)
    total = sum(counts)
    hits = sum(c for u, c in enumerate(counts) if abs(u - mu) >= dev - 1e-12)
    return hits / total


def exact_wilcoxon_p_bruteforce(x, y) -> float:
    """Same as exact_wilcoxon_p but via literal itertools enumeration."""
    n, m = len(x), len(y)
    big_n = n + m
    mu = n * m / 2.0
    combined = sorted(x + y)
    ranks = {v: i + 1 for i, v in enumerate(combined)}
    u_obs = sum(ranks[v] for v in x) - n * (n + 1) / 2.0
    dev = abs(u_obs - mu)
    hits = total = 0
    for subset in itertools.combinations(range(1, big_n + 1), n):
        u = sum(subset) - n * (n + 1) / 2.0
        total += 1
        if abs(u - mu) >= dev - 1e-12:
            hits += 1
    return hits / total


def pearson_x2(table) -> float:
    rows = len(table)
    cols = len(table[0])
    row_sums = [sum(table[i]) for i in range(rows)]
    col_sums = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    total = sum(row_sums)
    x2 = 0.0
    for i in range(rows):
        for j in range(cols):
            e = row_sums[i] * col_sums[j] / total
            x2 += (table[i][j] - e) ** 2 / e
    return x2


def exact_chi2_perm_p(table) -> float:
    """Exhaustive fixed-margin permutation p-value for a small 2-row table.

    Enumerates every distinct assignment of column labels to the two row
    blocks and counts how often the Pearson statistic is at least the
    observed one.
    """
    rows = len(table)
    assert rows == 2, "oracle supports two-row tables"
    cols = len(table[0])
    row_sums = [sum(r) for r in table]
    col_sums = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    total = sum(row_sums)
    x2_obs = pearson_x2(table)
    labels = []
    for j, s in enumerate(col_sums):
        labels.extend([j] * s)
    hits = count = 0
    seen_positions = itertools.combinations(range(total), row_sums[0])
    for pos in seen_positions:
        posset = set(pos)
        t = [[0] * cols for _ in range(2)]
        for idx, lab in enumerate(labels):
            t[0 if idx in posset else 1][lab] += 1
        count += 1
        if pearson_x2(t) >= x2_obs - 1e-9:
            hits += 1
    return hits / count


def _tables_with_margins(row_sums, col_sums):
    """Every non-negative integer table with the given margins."""
    if len(row_sums) == 1:
        yield [list(col_sums)]
        return
    first = row_sums[0]
    ranges = [range(min(first, c) + 1) for c in col_sums]
    for row in itertools.product(*ranges):
        if sum(row) != first:
            continue
        rest = [c - x for c, x in zip(col_sums, row)]
        for tail in _tables_with_margins(row_sums[1:], rest):
            yield [list(row)] + tail


def exact_chi2_table_p(table) -> float:
    """Exact fixed-margin p-value of the Pearson statistic for an r x c table.

    Enumerates every table with the observed margins and weights it by its
    multivariate-hypergeometric probability: the number of ways to deal
    the column labels into the row blocks, prod_i R_i! / prod_ij x_ij!,
    out of N! / prod_j C_j!. The weights are summed as integers and checked
    to add up to that total.
    """
    rows = len(table)
    cols = len(table[0])
    row_sums = [sum(r) for r in table]
    col_sums = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    total = sum(row_sums)
    x2_obs = pearson_x2(table)
    row_ways = math.prod(math.factorial(r) for r in row_sums)
    hits = weight_sum = 0
    for t in _tables_with_margins(row_sums, col_sums):
        ways = row_ways // math.prod(math.factorial(x) for r in t for x in r)
        weight_sum += ways
        if pearson_x2(t) >= x2_obs - 1e-9:
            hits += ways
    labelings = math.factorial(total) // math.prod(
        math.factorial(c) for c in col_sums)
    assert weight_sum == labelings, "tables do not cover every labeling"
    return hits / labelings


def bh_reject_direct(pvals, level) -> list:
    """Literal linear step-up scan at the given level."""
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    kmax = 0
    for k in range(1, m + 1):
        if pvals[order[k - 1]] <= k * level / m:
            kmax = k
    reject = [False] * m
    for i in range(kmax):
        reject[order[i]] = True
    return reject


def bh_two_stage_direct(pvals, q) -> list:
    """Direct-definition evaluation of the two-stage step-up."""
    m = len(pvals)
    stage1 = bh_reject_direct(pvals, q / (1.0 + q))
    r1 = sum(stage1)
    if r1 == 0 or r1 == m:
        return stage1
    return bh_reject_direct(pvals, q * m / (m - r1))


def fd_gradient(f, beta, h=1e-6) -> list:
    """Central finite-difference gradient of a scalar function."""
    grad = []
    beta = list(beta)
    for i in range(len(beta)):
        up = list(beta)
        dn = list(beta)
        up[i] += h
        dn[i] -= h
        grad.append((f(up) - f(dn)) / (2.0 * h))
    return grad


def _logistic_p(X, beta) -> np.ndarray:
    eta = np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    return 1.0 / (1.0 + np.exp(-eta))


def logistic_log_likelihood(X, y, beta) -> float:
    """Bernoulli log-likelihood, sum of y log p + (1 - y) log(1 - p)."""
    p = _logistic_p(X, beta)
    y = np.asarray(y, dtype=float)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def logistic_score(X, y, beta) -> np.ndarray:
    """Analytic gradient of the log-likelihood, X'(y - p)."""
    return np.asarray(X, dtype=float).T @ (np.asarray(y, dtype=float)
                                           - _logistic_p(X, beta))


def pearson_direct(x, y) -> float:
    """Definitional product-moment correlation, plain Python."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


# Reference gazetteer: the regex scan over the whole text that
# profaudit.mentions used before its one-pass tokenizer, kept unchanged.
# It shares only the PersonMention record type, so results compare with ==.

def nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*", re.UNICODE)


def _capitalized_runs(text: str) -> list[str]:
    """Maximal runs of >=2 capitalized tokens separated only by blanks."""
    tokens = [(m.group(0), m.start(), m.end()) for m in _WORD_RE.finditer(text)]
    runs: list[str] = []
    current: list[tuple[str, int, int]] = []

    def flush():
        if len(current) >= 2:
            runs.append(" ".join(t[0] for t in current))

    for tok in tokens:
        word, start, _ = tok
        if not word[0].isupper():
            flush()
            current = []
            continue
        if current:
            gap = text[current[-1][2]:start]
            if gap.strip() != "":
                flush()
                current = []
        current.append(tok)
    flush()
    return runs


def extract_text_mentions(article_title: str, plain_text: str,
                          lexicon: dict) -> list[PersonMention]:
    """Gazetteer pass over plain text.

    Within each run of capitalized tokens, the mention starts at the first
    token that is a lexicon first name and must be followed by at least
    one more capitalized token (German capitalizes all nouns, so runs
    often begin with non-name words like "Die Reporterin"). A two-token
    lexicon entry wins over the single token (compound first names).
    Identical surface names are emitted once per article.
    """
    mentions: list[PersonMention] = []
    seen: set[str] = set()
    for run in _capitalized_runs(nfc(plain_text)):
        tokens = run.split()
        for i in range(len(tokens) - 1):
            first_name = None
            two = " ".join(tokens[i:i + 2])
            if two in lexicon:
                first_name = two
            elif tokens[i] in lexicon:
                first_name = tokens[i]
            if first_name is None:
                continue
            surface = " ".join(tokens[i:])
            if surface not in seen:
                seen.add(surface)
                mentions.append(PersonMention(
                    article_title=article_title,
                    surface_name=surface,
                    first_name=first_name,
                    gender=lexicon[first_name],
                    source=Source.NAME_MATCH,
                ))
            break  # one person per run suffix; avoid re-matching the rest
    return mentions
