"""The ``BENCH_*.json`` trajectory files at the repository root keep the
format ROADMAP item 1 documents, with the workload and metric names of
``BENCHMARK.json``."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
KEYS = {"side", "commit", "parent", "source_sha256", "workload", "seed",
        "seconds", *METRICS}


def test_files_name_benchmark_workloads():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert BENCH_FILES
    assert {p.stem.removeprefix("BENCH_") for p in BENCH_FILES} <= workloads


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_result_lines(path):
    results = json.loads(path.read_text(encoding="utf-8"))
    assert type(results) is list and results
    workload = path.stem.removeprefix("BENCH_")
    for result in results:
        assert type(result) is dict and set(result) == KEYS, result
        assert result["side"] in ("before", "after")
        assert re.fullmatch(r"[0-9a-f]{64}", result["source_sha256"])
        assert result["workload"] == workload
        assert type(result["seed"]) is int
        for metric in METRICS:
            assert type(result[metric]) in (int, float), (metric, result)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_after_lines_follow_their_before_lines(path):
    # each after line measures the child of the commit the line before it
    # measured, on the same workload, seed and run length
    results = json.loads(path.read_text(encoding="utf-8"))
    for before, after in zip([None, *results], results):
        if after["side"] != "after":
            continue
        assert before is not None and before["side"] == "before", after
        for key in ("workload", "seed", "seconds"):
            assert before[key] == after[key], (key, before, after)
        assert before["commit"] == after["parent"], (before, after)
