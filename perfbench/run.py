"""Standing benchmark of the batch audit.

    python3 perfbench/run.py --workload titles --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (not timed), checks the
program's outputs, then runs the unmodified ``audit report --all`` in fresh
processes for ``--seconds`` seconds. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  end-to-end metrics, untraced: each iteration is a cold run into
           an empty output directory, then a rerun into the same directory
           after one annotation row was edited.
--trace 1  per-layer metrics: untraced and traced cold runs alternate; the
           traced run of median time gives per-layer times and counts, the
           median traced time minus the median untraced one gives
           trace.overhead_s.

Every time is the median of the run's samples, each in reference seconds
(see ``calibrate``); comparisons across runs take the median of that.

Output checks, before anything is timed:
  * the frozen fixture (tests/data/config.json) reproduces tests/data/golden/
    byte for byte;
  * the workload's first cold run (the reference tree) makes every layer do
    real work and agrees with the ground truth the generator planted.
Every timed run must then reproduce its reference tree byte for byte
(reruns: the tree of a cold run on the same edited inputs); a run that does
not, or exits non-zero, counts as failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

WORK = ROOT / ".perfbench_work"
FIXTURE = ROOT / "tests" / "data"
CHILD = HERE / "child.py"
# a run of the benchmark must end within 180 s; stop starting iterations
# well before that, whatever --seconds asks for
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"audit_s": "s", "rerun_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER_UNITS = {"s": "s", "self_s": "s", "us_per_pair": "us",
                   "useful_ratio": "ratio", "peak_mb": "MB", "bytes": "bytes",
                   "text_chars": "chars", "overhead_s": "s"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


# Wall time of ``calibrate`` on a host running at reference speed; times are
# reported as if the host ran at that speed.
CALIBRATION_REF_S = 0.099
# the audit runs single-threaded: no BLAS thread pool beside it, nor beside
# the calibration's numpy (set before numpy is first imported)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Wall time of a fixed workload, taken between audits.

    On a shared virtual machine the CPU speed can drift by a factor of two
    for minutes at a time (on a 2-vCPU x86-64 guest, the same ``titles``
    audit run back to back for seven minutes took from 1.19 s to 2.24 s), so
    a whole run can sit in a slow spell. Each audit's times are therefore
    scaled by ``CALIBRATION_REF_S`` over the mean of the calibrations just
    before and just after it, which saw the same spell, and a run reports
    the median of the scaled samples: the ratio follows the program and not
    the host, and the median drops the samples where a spell began or ended
    mid-audit.

    The workload has three kinds of work the audit does, in about equal
    parts, because a spell slows them by different amounts: interpreted
    arithmetic and dict updates; a JSON round trip of page-like records (as
    in snapshot parsing); and row-wise permutations of a label table a few
    megabytes large (as in the Monte Carlo tests), which, unlike the other
    two, depends on the memory caches. It uses nothing from the package, so
    a change to the program moves the audit and not the calibration.
    """
    import numpy as np

    start = _clock()
    x = 0
    table: dict[int, int] = {}
    for i in range(400_000):
        x += i * i
    for i in range(100_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    pages = [{"title": f"Seite {i}", "categories": ["Frau", f"Geboren {i}"],
              "outlinks": [f"Link {k}" for k in range(8)],
              "plain_text": "Sie lebte in der Stadt. " * 4} for i in range(400)]
    for _ in range(12):
        text = "\n".join(json.dumps(page) for page in pages)
        [json.loads(line) for line in text.splitlines()]
    rng = np.random.default_rng(0)
    labels = np.tile(np.arange(160) % 5, (8192, 1))
    for _ in range(2):
        perm = rng.permuted(labels, axis=1)
        (perm[:, :64] == 1).sum(axis=1)
    return _clock() - start


@dataclass
class Run:
    ok: bool
    wall_s: float
    # reference seconds per wall second, from the calibrations around the run
    scale: float = 1.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    trace: dict | None = None
    error: str = ""
    tree: dict = field(default_factory=dict)


def audit(config: Path, out_dir: Path, result: Path, trace: bool = False) -> Run:
    """One ``audit report --all`` in a fresh process, timed from outside."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    cmd += ["--", "report", "--all", "--config", str(config),
            "--out-dir", str(out_dir)]
    start = _clock()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Run(ok=False, wall_s=_clock() - start, error="timed out")
    wall = _clock() - start
    if proc.returncode != 0 or not result.exists():
        return Run(ok=False, wall_s=wall,
                   error=f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    return Run(ok=True, wall_s=wall, setup_s=data["first_stage"] - start,
               rss_mb=data["maxrss_kb"] / 1024.0, trace=data.get("trace"),
               tree=tree_digest(out_dir))


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_diff(got: dict, want: dict) -> str:
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return ", ".join(changed[:5]) + (" ..." if len(changed) > 5 else "")


# ------------------------------------------------------------ output checks

def _json(out: Path, rel: str):
    return json.loads((out / rel).read_text(encoding="utf-8"))


def _csv_rows(out: Path, rel: str) -> list[dict]:
    with open(out / rel, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _has_test(dist: dict) -> bool:
    return bool(dist.get("overall_test") or dist.get("pairwise_tests")
                or dist.get("posthoc_tests"))


def coverage_problems(out: Path) -> list[str]:
    """Reasons the workload skipped a layer; empty when every layer worked.

    The ``overall`` image grouping has a single group by construction and so
    never runs a test; every other grouping must.
    """
    problems = []
    match = _json(out, "match/summary.json")
    if not match["exact"]:
        problems.append("matcher found no exact candidate")
    if not (match["confirmed"] + match["rejected"] + match["pending_fuzzy"]):
        problems.append("matcher found no fuzzy candidate")
    if not (match["confirmed"] and match["rejected"]):
        problems.append("match decisions did not both confirm and reject")
    groups = _json(out, "classify/summary.json")["bias_groups"]
    missing = [g for g, n in groups.items() if not n]
    if missing:
        problems.append(f"classify yields no {', '.join(missing)}")
    dists = _json(out, "images/distributions.json")
    for grouping in ("title_gender", "redirect_bias"):
        if not _has_test(dists[grouping]):
            problems.append(f"images grouping {grouping} ran no chi-square test")
    labor_dists = _json(out, "report/image_labor_distributions.json")
    for grouping in ("labor_majority", "labor_dominated"):
        if not _has_test(labor_dists[grouping]):
            problems.append(f"report grouping {grouping} ran no chi-square test")
    merge = _json(out, "mentions/merge_report.json")
    if not (merge["n_link"] and merge["n_text"]):
        problems.append("mentions lacks link or text mentions")
    majority = {row["majority"] for row in _csv_rows(out, "labor/joined.csv")}
    if not {"female_majority", "male_majority"} <= majority:
        problems.append("labor lacks a majority group")
    models = _json(out, "webhits/models.json")
    if any("coefficients" not in models.get(m, {})
           for m in ("model_female_bias", "model_male_bias")):
        problems.append("webhits fitted no bias model")
    return problems


def truth_problems(out: Path, truth: gen.Truth, edited: bool) -> list[str]:
    """Disagreements with the ground truth the generator planted."""
    problems = []
    got = {row["profession_id"]: row["bias_group"]
           for row in _csv_rows(out, "classify/classifications.csv")}
    wrong = sorted(pid for pid, group in truth.bias_groups.items()
                   if got.get(pid) != group)
    if wrong:
        problems.append(f"bias group differs from the planted one for "
                        f"{', '.join(wrong[:5])}")
    want = truth.pivot_after if edited else truth.pivot_before
    cats = {row["category"] for row in _csv_rows(out, "images/categories.csv")
            if row["image_id"] == truth.pivot_image}
    if cats != {want}:
        problems.append(f"pivot image {truth.pivot_image} is {sorted(cats)}, "
                        f"expected {want}")
    return problems


# -------------------------------------------------------------------- main

class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.inputs = work / "inputs"
        self.config = self.inputs / "config.json"
        self.result = work / "child.json"
        self.truth = gen.generate(workload, seed, self.inputs)
        self.base_annotations = (self.inputs / "annotations.csv").read_text(
            encoding="utf-8")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        # the calibration after the last timed run is the next one's before
        self.last_calibration: float | None = None
        calibrate()  # warm-up: the first call also imports numpy

    def run(self, out: Path, trace: bool = False, fresh: bool = True,
            config: Path | None = None) -> Run:
        if fresh and out.exists():
            shutil.rmtree(out)
        return audit(config or self.config, out, self.result, trace)

    def annotate(self, edited: bool) -> None:
        text = (self.truth.edited_annotations if edited
                else self.base_annotations)
        (self.inputs / "annotations.csv").write_text(text, encoding="utf-8")

    def reference(self, name: str, edited: bool) -> dict:
        """Untimed cold run whose tree later runs must reproduce."""
        self.annotate(edited)
        out = self.work / name
        ref = self.run(out)
        if not ref.ok:
            self.problems.append(f"{name} run failed: {ref.error}")
            return {}
        if not edited:
            self.problems += coverage_problems(out)
        self.problems += truth_problems(out, self.truth, edited)
        return ref.tree

    def check_fixture(self) -> None:
        out = self.work / "fixture"
        run = self.run(out, config=FIXTURE / "config.json")
        golden = tree_digest(FIXTURE / "golden")
        if not run.ok:
            self.problems.append(f"fixture run failed: {run.error}")
        elif run.tree != golden:
            self.problems.append("fixture differs from tests/data/golden: "
                                 + tree_diff(run.tree, golden))

    def timed(self, out: Path, want: dict, trace: bool = False,
              fresh: bool = True) -> Run:
        before = self.last_calibration or calibrate()
        run = self.run(out, trace=trace, fresh=fresh)
        self.last_calibration = calibrate()
        run.scale = 2 * CALIBRATION_REF_S / (before + self.last_calibration)
        self.attempted += 1
        if not run.ok:
            self.failed += 1
            print(f"failed run: {run.error}", file=sys.stderr)
        elif run.tree != want:
            self.failed += 1
            print(f"run differs from its reference: "
                  f"{tree_diff(run.tree, want)}", file=sys.stderr)
        return run


def ok_runs(runs: list[Run]) -> list[Run]:
    """The runs that succeeded. A failed run has no figures; it already
    makes the result incorrect, so the figures come from the others."""
    return [r for r in runs if r.ok] or runs


def median_ref(runs: list[Run], attr: str = "wall_s") -> float:
    """Median of a time of the runs, in reference seconds."""
    return statistics.median(getattr(r, attr) * r.scale for r in ok_runs(runs))


def typical(runs: list[Run]) -> Run:
    """The run whose time in reference seconds is the (lower) median."""
    ranked = sorted(ok_runs(runs), key=lambda r: r.wall_s * r.scale)
    return ranked[(len(ranked) - 1) // 2]


def measure_end_to_end(bench: Bench, seconds: float, started: float) -> dict:
    ref = bench.reference("ref", edited=False)
    ref_edit = bench.reference("ref_edit", edited=True)
    if ref and ref == ref_edit:
        bench.problems.append("the rerun edit left the output unchanged")
    out = bench.work / "out"
    cold: list[Run] = []
    rerun: list[Run] = []
    t0 = _clock()
    while not cold or (_clock() - t0 < seconds
                       and _clock() - started < DEADLINE_S):
        bench.annotate(edited=False)
        cold.append(bench.timed(out, ref))
        bench.annotate(edited=True)
        rerun.append(bench.timed(out, ref_edit, fresh=False))
    bench.annotate(edited=False)
    return {
        "audit_s": median_ref(cold),
        "rerun_s": median_ref(rerun),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok_runs(cold)),
        "setup_s": median_ref(cold + rerun, "setup_s"),
    }


def measure_per_layer(bench: Bench, seconds: float, started: float) -> dict:
    ref = bench.reference("ref", edited=False)
    out = bench.work / "out"
    plain: list[Run] = []
    traced: list[Run] = []
    t0 = _clock()
    while not traced or (_clock() - t0 < seconds
                         and _clock() - started < DEADLINE_S):
        plain.append(bench.timed(out, ref))
        traced.append(bench.timed(out, ref, trace=True))
    mid = typical(traced)
    metrics = tracer.layer_metrics(mid.trace) if mid.ok else {}
    for name in metrics:
        if per_layer_unit(name) in ("s", "us"):
            metrics[name] *= mid.scale
    metrics["trace.overhead_s"] = median_ref(traced) - median_ref(plain)
    if mid.ok:
        _, own = tracer.self_times(mid.trace["spans"])
        print("self time, median traced run:", file=sys.stderr)
        for name, value in sorted(own.items(), key=lambda kv: -kv[1])[:6]:
            print(f"  {name:36s} {value * mid.scale:8.3f} s "
                  f"{value / mid.wall_s:6.1%}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = _clock()

    missing = [p for p in (ROOT / "src" / "profaudit" / "cli.py",
                           FIXTURE / "config.json", FIXTURE / "golden")
               if not p.exists()]
    if missing:
        print(f"error: not a profaudit checkout, missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.check_fixture()
        if args.trace:
            values = measure_per_layer(bench, args.seconds, started)
            metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                       for name, value in values.items()}
        else:
            values = measure_end_to_end(bench, args.seconds, started)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not bench.problems and bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
