"""Independent brute-force oracles used by the unit and acceptance tests.

Each helper re-derives an expected value straight from a definition
(exhaustive enumeration, direct formula) and deliberately shares no code
with the implementation under test.
"""

import itertools
import json
import math
import re
import unicodedata
from functools import lru_cache

import numpy as np

from profaudit import mentions
from profaudit.artifacts import dump_json, write_csv
from profaudit.corpus import ArticleRecord, ImageRef, build_snapshot
from profaudit.mentions import Gender, PersonMention, Source


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


# Reference numpy statistics: logistic_fit, pearson, fleiss_kappa,
# bh_adjusted and bh_two_stage as profaudit.stats implemented them on numpy
# arrays before it moved to plain Python, kept unchanged. They share only
# the result record types.

_Z95 = 1.959963984540054
_FIT_TOL = 1e-8
_FIT_MAX_ITER = 100
_SEPARATION_BOUND = 50.0


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def numpy_pearson(x, y) -> float:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson: inputs must be 1-d vectors of equal length")
    if len(xa) < 2:
        raise ValueError("pearson: need at least two observations")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson: correlation undefined for a constant vector")
    return float(dx @ dy) / (sx * sy)


def _numpy_log_likelihood(X: np.ndarray, y: np.ndarray,
                          beta: np.ndarray) -> float:
    eta = np.clip(X @ beta, -35.0, 35.0)
    # log(1 + e^eta) computed stably
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def numpy_logistic_fit(X, y) -> dict:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("logistic_fit: X must be a non-empty 2-d design matrix")
    n, k = X.shape
    if len(y) != n:
        raise ValueError("logistic_fit: X and y lengths differ")
    if n <= k:
        raise ValueError("logistic_fit: need more observations than parameters")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("logistic_fit: y must be binary")
    if y.min() == y.max():
        raise ValueError("logistic_fit: y contains a single class")

    beta = np.zeros(k)
    ll_prev = _numpy_log_likelihood(X, y, beta)
    converged = False
    iterations = 0
    for iterations in range(1, _FIT_MAX_ITER + 1):
        eta = np.clip(X @ beta, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(p * (1.0 - p), 1e-10)
        xtwx = X.T @ (X * w[:, None])
        score = X.T @ (y - p)
        try:
            delta = np.linalg.solve(xtwx, score)
        except np.linalg.LinAlgError as exc:
            raise ValueError("logistic_fit: singular design matrix") from exc
        beta = beta + delta
        if float(np.abs(delta).max()) < _FIT_TOL:
            converged = True
            break
        ll = _numpy_log_likelihood(X, y, beta)
        if float(np.abs(beta).max()) > _SEPARATION_BOUND and ll > ll_prev:
            converged = False
            break
        ll_prev = ll

    eta = np.clip(X @ beta, -35.0, 35.0)
    p = 1.0 / (1.0 + np.exp(-eta))
    w = np.maximum(p * (1.0 - p), 1e-10)
    xtwx = X.T @ (X * w[:, None])
    try:
        cov = np.linalg.inv(xtwx)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(xtwx)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        zvals = np.where(se > 0, beta / se, np.inf)
    pvals = [min(1.0, 2.0 * _norm_cdf(-abs(float(zv)))) for zv in zvals]
    ci = [(float(b - _Z95 * s), float(b + _Z95 * s)) for b, s in zip(beta, se)]
    accuracy = float(((p >= 0.5) == (y == 1)).mean())
    ll = _numpy_log_likelihood(X, y, beta)
    pbar = float(y.mean())
    ll_null = n * (pbar * math.log(pbar) + (1 - pbar) * math.log(1 - pbar))
    mcfadden = 1.0 - ll / ll_null if ll_null != 0 else float("nan")
    return {
        "coefficients": [float(v) for v in beta],
        "std_errors": [float(v) for v in se],
        "p_values": pvals,
        "ci95": ci,
        "accuracy": accuracy,
        "mcfadden_r2": float(mcfadden),
        "converged": converged,
        "iterations": iterations,
    }


def numpy_fleiss_kappa(counts, n_raters: int) -> dict:
    tab = np.asarray(counts, dtype=float)
    if tab.ndim != 2:
        raise ValueError("fleiss_kappa: counts must be two-dimensional")
    if n_raters < 2:
        raise ValueError("fleiss_kappa: need at least two raters")
    n_items, n_cats = tab.shape
    if n_items < 1:
        raise ValueError("fleiss_kappa: no items")
    row_sums = tab.sum(axis=1)
    if not np.all(row_sums == n_raters):
        raise ValueError("fleiss_kappa: every row must sum to n_raters")

    n = float(n_raters)
    p_i = ((tab ** 2).sum(axis=1) - n) / (n * (n - 1.0))
    p_bar = float(p_i.mean())
    p_j = tab.sum(axis=0) / (n_items * n)
    p_bar_e = float((p_j ** 2).sum())
    if p_bar_e >= 1.0 - 1e-15:
        raise ValueError("fleiss_kappa: undefined, all assignments in one category")
    kappa = (p_bar - p_bar_e) / (1.0 - p_bar_e)
    return {"kappa": kappa, "p_bar": p_bar, "p_bar_e": p_bar_e,
            "n_raters": n_raters, "n_items": n_items, "n_categories": n_cats}


def _numpy_bh_reject(pvals: np.ndarray, level: float) -> np.ndarray:
    m = len(pvals)
    order = np.argsort(pvals, kind="stable")
    kmax = 0
    for rank, idx in enumerate(order, start=1):
        if pvals[idx] <= rank * level / m:
            kmax = rank
    reject = np.zeros(m, dtype=bool)
    reject[order[:kmax]] = True
    return reject


def numpy_bh_adjusted(pvals) -> list[float]:
    p = np.asarray(pvals, dtype=float)
    m = len(p)
    if m == 0:
        return []
    order = np.argsort(p, kind="stable")
    adj = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, p[idx] * m / rank)
        adj[idx] = running
    return [float(v) for v in adj]


def numpy_bh_two_stage(pvals, q: float = 0.05) -> dict:
    p = np.asarray(pvals, dtype=float)
    m = len(p)
    if m == 0:
        return {"reject": [], "adjusted_p": [], "m0_estimate": 0, "q": q}
    if ((p < 0) | (p > 1)).any():
        raise ValueError("bh_two_stage: p-values must lie in [0, 1]")
    stage1 = _numpy_bh_reject(p, q / (1.0 + q))
    r1 = int(stage1.sum())
    if r1 == 0:
        reject = stage1
        m0 = m
    elif r1 == m:
        reject = stage1
        m0 = 0
    else:
        m0 = m - r1
        reject = _numpy_bh_reject(p, q * m / m0)
    return {
        "reject": [bool(v) for v in reject],
        "adjusted_p": numpy_bh_adjusted(p),
        "m0_estimate": m0,
        "q": q,
    }


def naive_lev(a, b):
    """Full-matrix dynamic programming reference."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[n][m]


def lev_ratio(a: str, b: str) -> float:
    """Match proportion 1 - distance / max(len(a), len(b)), in [0, 1]."""
    longest = max(len(a), len(b))
    if longest == 0:
        raise ValueError("lev_ratio: undefined for two empty strings")
    return 1.0 - naive_lev(a, b) / longest


# Reference gazetteer: the regex scan over the whole text that
# profaudit.mentions used before its one-pass tokenizer, kept unchanged.
# It shares only the PersonMention record type, so results compare by
# mention_to_dict.

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


# Reference snapshot loader: profaudit.corpus.load_snapshot as it was when
# it called json.loads on each line, with each record built straight from
# the snapshot format. It checks none of the record invariants, so compare
# it on valid snapshots only. It shares the record types and
# build_snapshot, so results compare by ArticleRecord.to_dict().

def load_snapshot_json_loads(path):
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            target = data.get("redirect_target")
            rec = ArticleRecord(
                title=nfc(data["title"]),
                exists=data.get("exists", True),
                redirect_target=nfc(target) if target else None,
                categories={nfc(c) for c in data.get("categories") or []},
                outlinks=[nfc(o) for o in data.get("outlinks") or []],
                images=[ImageRef(nfc(i["filename"]), int(i["width"]),
                                 str(i["media_format"]).lower())
                        for i in data.get("images") or []],
                plain_text=data.get("plain_text") or "")
            records[rec.title] = rec
    return build_snapshot(records)


# Reference mention record: PersonMention.to_dict as it was before
# PersonMention.json_line wrote each line of mentions.jsonl directly. The
# line it stands for is json.dumps(mention_to_dict(m), ensure_ascii=False,
# sort_keys=True) + "\n".

def mention_to_dict(m: PersonMention) -> dict:
    return {
        "article_title": m.article_title,
        "surface_name": m.surface_name,
        "first_name": m.first_name,
        "gender": m.gender.value,
        "source": m.source.value,
        "linked_page": m.linked_page,
        "birth_year": m.birth_year,
    }


# Reference mentions stage: profaudit.pipeline.stage_mentions as it was
# before it handled one article at a time. It holds every merged mention
# in one list, then gives them birth years, filters and writes them, and
# counts ratios over the whole list. Each text it reads, an article's or a
# linked page's, it reads on its own through CorpusSnapshot.texts, as the
# stage reads texts, and it parses a linked page's text for every mention
# of the page the index has no year for. It takes the same Run and writes
# the same three files.

def stage_mentions_lists(run) -> None:
    cfg = run.cfg
    gender_lexicon = mentions.load_gender_lexicon(run.inputs["gender_lexicon"])
    birth_index: dict[str, int] = {}
    if "birth_years" in run.inputs:
        birth_index = mentions.load_birth_years(run.inputs["birth_years"])

    firsts = mentions.first_words(gender_lexicon)
    snapshot = run.snapshot
    all_mentions: list[PersonMention] = []
    total = mentions.merge([], [])[1]  # every count 0
    skipped_outlinks = 0
    # article_map.csv is sorted by title
    for title, _pid, _role in run.rows("article_map"):
        [(record, text)] = snapshot.texts([snapshot.records[title]])
        link_ms, skipped = mentions.extract_link_mentions(record, snapshot)
        text_ms = mentions.extract_text_mentions(title, text, gender_lexicon,
                                                 firsts)
        merged, report = mentions.merge(link_ms, text_ms)
        all_mentions.extend(merged)
        for key, value in report.items():
            total[key] += value
        skipped_outlinks += skipped

    for m in all_mentions:
        if m.linked_page is None:
            continue
        m.birth_year = birth_index.get(m.linked_page)
        page = snapshot.records.get(m.linked_page)
        if (m.birth_year is None and page is not None and page.exists
                and not page.is_redirect):
            [(_, text)] = snapshot.texts([page])
            m.birth_year = mentions.parse_birth_year(text)
    filtered, unknown, too_old = mentions.filter_by_birth(
        all_mentions, cfg.birth_cutoff)

    with open(run.out("mentions.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(m.json_line() for m in all_mentions)

    # per article, by title, the counts over gendered mentions; an article
    # with none gets no row
    ratio_rows = []
    for variant, subset in (("all", all_mentions),
                            ("born_after_cutoff", filtered)):
        counts: dict[str, list[int]] = {}
        for m in subset:
            men_women = counts.setdefault(m.article_title, [0, 0])
            if m.gender is Gender.M:
                men_women[0] += 1
            elif m.gender is Gender.F:
                men_women[1] += 1
        for title in sorted(counts):
            men, women = counts[title]
            if men + women:
                ratio, cls = mentions.male_ratio_and_class(
                    men, women, cfg.equality_band)
                ratio_rows.append([variant, title, men, women, ratio,
                                   cls.value])
    write_csv(run.out("ratios.csv"),
              ["variant", "article_title", "n_men", "n_women", "male_ratio",
               "bias_class"], ratio_rows)

    dump_json(dict(
        total, disagreement_rate=mentions.disagreement_rate(total),
        skipped_outlinks=skipped_outlinks, n_merged=len(all_mentions),
        n_men=sum(1 for m in all_mentions if m.gender is Gender.M),
        n_women=sum(1 for m in all_mentions if m.gender is Gender.F),
        birth_filter={
            "cutoff": cfg.birth_cutoff, "kept": len(filtered),
            "dropped_unknown_year": unknown,
            "dropped_at_or_before_cutoff": too_old,
        }), run.out("merge_report.json"))
