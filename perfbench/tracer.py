"""Span tracing of one audit process, installed from outside the package.

``install()`` replaces public functions of the ``profaudit`` modules with
wrappers that record a span (name, start, end, parent) or bump a counter.
Each name is patched where the caller looks it up: ``pipeline`` imports
``sha256_file``, ``write_csv`` and ``dump_json`` by name, so those are
patched on ``pipeline``; stage functions are reached through
``pipeline._STAGE_FUNCS``. Spans stay in memory and are written once, when
the process ends. ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter, defaultdict

_now = time.perf_counter


def _table_total(table) -> int:
    return sum(sum(int(v) for v in row) for row in table)


# (module, attribute, observer) for every span; the span is named
# "<module>.<attribute>". Observers add counts taken from the arguments and
# the result, at the same boundary as the span.
SPANS = (
    ("lexicon", "parse_file", None),
    ("matcher", "match", lambda c, a, kw, r: (
        c.update({"matcher.pairs": len(a[0]) * len(set(a[1])),
                  "matcher.candidates": len(r)}))),
    ("corpus", "load_snapshot", lambda c, a, kw, r: (
        c.update({"corpus.load_snapshot.records": len(r.records)}))),
    ("corpus", "category_closure", None),
    ("redirect_bias", "build_presence", None),
    ("webhits", "fit_bias_models", None),
    ("mentions", "extract_link_mentions", None),
    ("mentions", "extract_text_mentions", lambda c, a, kw, r: (
        c.update({"mentions.text_chars": len(a[1])}))),
    ("mentions", "merge", None),
    ("images", "score_workers", lambda c, a, kw, r: (
        c.update({"images.responses": len(a[0])}))),
    ("images", "aggregate_all", None),
    ("images", "kappa_from_responses", None),
    ("images", "distributions", None),
    ("labor", "assign", None),
    ("labor", "join", None),
    ("stats", "chi2_mc", lambda c, a, kw, r: (
        c.update({"stats.chi2_mc.draws":
                  kw.get("b", a[1] if len(a) > 1 else 10000)
                  * _table_total(a[0])}))),
    ("stats", "wilcoxon_rank_sum", None),
    ("stats", "logistic_fit", None),
    ("stats", "spearman", None),
)
# artifact writers as bound in pipeline; spans are named after their module
ARTIFACT_SPANS = (
    ("sha256_file", lambda c, a, kw, r: (
        c.update({"artifacts.sha256_file.bytes": os.path.getsize(a[0])}))),
    ("write_csv", None),
    ("dump_json", None),
)
# calls counted without a span: too frequent for one span each
COUNTED = (("matcher", "lev_distance", "matcher.dp_calls"),)
# spans whose peak traced allocation is recorded
MEMORY = ("stats.chi2_mc",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []

    def spanned(self, name: str, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        memory = name in MEMORY

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0), peak)
            counts[name + ".calls"] += 1
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        from profaudit import pipeline

        for module_name, attr, observe in SPANS:
            module = importlib.import_module("profaudit." + module_name)
            setattr(module, attr, self.spanned(f"{module_name}.{attr}",
                                               getattr(module, attr), observe))
        for attr, observe in ARTIFACT_SPANS:
            setattr(pipeline, attr, self.spanned(
                f"artifacts.{attr}", getattr(pipeline, attr), observe))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module("profaudit." + module_name)
            setattr(module, attr, self.counted(key, getattr(module, attr)))
        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            pipeline._STAGE_FUNCS[stage] = self.spanned(f"stage.{stage}", fn)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "peaks": self.peaks}


def self_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name. Self time is a span's duration
    minus the durations of its direct children (one thread, so children
    never overlap)."""
    total: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        own[name] += end - start - inner
    return dict(total), dict(own)


STAGES = ("lexicon", "match", "classify", "webhits", "mentions", "images",
          "labor", "report")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced audit (without trace.overhead_s)."""
    total, own = self_times(trace["spans"])
    counts = Counter(trace["counts"])

    def s(name: str) -> float:
        return total.get(name, 0.0)

    out = {f"stage.{st}.s": s(f"stage.{st}") for st in STAGES}
    pairs = counts["matcher.pairs"]
    dp_calls = counts["matcher.dp_calls"]
    out.update({
        "matcher.match.s": s("matcher.match"),
        "matcher.pairs": pairs,
        "matcher.dp_calls": dp_calls,
        "matcher.candidates": counts["matcher.candidates"],
        "matcher.us_per_pair": s("matcher.match") / pairs * 1e6 if pairs else 0.0,
        "matcher.useful_ratio": (counts["matcher.candidates"] / dp_calls
                                 if dp_calls else 0.0),
        "stats.chi2_mc.calls": counts["stats.chi2_mc.calls"],
        "stats.chi2_mc.s": s("stats.chi2_mc"),
        "stats.chi2_mc.draws": counts["stats.chi2_mc.draws"],
        "stats.chi2_mc.peak_mb": trace["peaks"].get("stats.chi2_mc", 0) / 2**20,
        "stats.wilcoxon_rank_sum.s": s("stats.wilcoxon_rank_sum"),
        "stats.logistic_fit.s": s("stats.logistic_fit"),
        "stats.spearman.s": s("stats.spearman"),
        "corpus.load_snapshot.calls": counts["corpus.load_snapshot.calls"],
        "corpus.load_snapshot.s": s("corpus.load_snapshot"),
        "corpus.load_snapshot.records": counts["corpus.load_snapshot.records"],
        "corpus.category_closure.calls":
            counts["corpus.category_closure.calls"],
        "corpus.category_closure.s": s("corpus.category_closure"),
        "mentions.extract_link_mentions.s": s("mentions.extract_link_mentions"),
        "mentions.extract_text_mentions.s": s("mentions.extract_text_mentions"),
        "mentions.merge.s": s("mentions.merge"),
        "mentions.text_chars": counts["mentions.text_chars"],
        "images.score_workers.s": s("images.score_workers"),
        "images.aggregate_all.s": s("images.aggregate_all"),
        "images.kappa_from_responses.s": s("images.kappa_from_responses"),
        "images.distributions.self_s": own.get("images.distributions", 0.0),
        "images.responses": counts["images.responses"],
        "redirect_bias.build_presence.s": s("redirect_bias.build_presence"),
        "lexicon.parse_file.s": s("lexicon.parse_file"),
        "labor.assign.s": s("labor.assign"),
        "labor.join.s": s("labor.join"),
        "webhits.fit_bias_models.s": s("webhits.fit_bias_models"),
        "artifacts.sha256_file.calls": counts["artifacts.sha256_file.calls"],
        "artifacts.sha256_file.bytes": counts["artifacts.sha256_file.bytes"],
        "artifacts.sha256_file.s": s("artifacts.sha256_file"),
        "artifacts.write_csv.s": s("artifacts.write_csv"),
        "artifacts.dump_json.s": s("artifacts.dump_json"),
    })
    return out
