"""Self-tests of the benchmark itself (not of the audit program).

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection, so these
audit runs never slow the package's own test suite.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKDIR = run.WORK / "selftest"


def _files(root: Path) -> dict[str, bytes]:
    return {name: (root / name).read_bytes() for name in gen.INPUT_FILES}


class BenchTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def test_generator_is_deterministic(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                a, b, c = (WORKDIR / workload / x for x in "abc")
                gen.generate(workload, 7, a)
                gen.generate(workload, 7, b)
                gen.generate(workload, 8, c)
                self.assertEqual(_files(a), _files(b))
                self.assertNotEqual(_files(a)["snapshot.jsonl"],
                                    _files(c)["snapshot.jsonl"])
                self.assertNotEqual(_files(a)["annotations.csv"],
                                    _files(c)["annotations.csv"])

    def test_config_is_accepted(self):
        from profaudit.config import AuditConfig

        gen.generate("titles", 3, WORKDIR)
        cfg = AuditConfig.from_file(WORKDIR / "config.json")
        cfg.validate_thresholds()
        self.assertEqual(cfg.mc_iterations, 10000)
        for key in AuditConfig._PATH_KEYS:
            if key != "out_dir" and cfg.path(key) is not None:
                self.assertTrue(cfg.path(key).is_file(), key)

    def test_metric_names(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        end_to_end = [m["name"] for m in spec["end_to_end"]]
        per_layer = [m["name"] for m in spec["per_layer"]]
        for name in end_to_end + per_layer + [w["name"]
                                              for w in spec["workloads"]]:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(end_to_end, list(run.END_TO_END))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(gen.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        # every per-layer metric the tracer emits is declared, with its unit
        emitted = set(tracer.layer_metrics(
            {"spans": [], "counts": {}, "peaks": {}})) | {"trace.overhead_s"}
        self.assertEqual(emitted, set(per_layer))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]),
                             m["name"])

    def test_tracing_leaves_outputs_unchanged(self):
        config = run.FIXTURE / "config.json"
        result = WORKDIR / "child.json"
        plain = run.audit(config, WORKDIR / "plain", result)
        traced = run.audit(config, WORKDIR / "traced", result, trace=True)
        self.assertTrue(plain.ok, plain.error)
        self.assertTrue(traced.ok, traced.error)
        self.assertEqual(plain.tree, traced.tree)
        self.assertEqual(plain.tree, run.tree_digest(run.FIXTURE / "golden"))
        names = {span[0] for span in traced.trace["spans"]}
        for stage in tracer.STAGES:
            self.assertIn(f"stage.{stage}", names)
        self.assertIn("stats.chi2_mc", names)
        self.assertIn("artifacts.sha256_file", names)
        self.assertGreater(traced.trace["counts"]["matcher.dp_calls"], 0)

    def test_self_time_excludes_children(self):
        spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                 ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
        total, own = tracer.self_times(spans)
        self.assertEqual(total, {"outer": 10.0, "inner": 4.0, "leaf": 1.0})
        self.assertEqual(own, {"outer": 6.0, "inner": 3.0, "leaf": 1.0})

    def test_tree_mismatch_is_detected(self):
        golden = run.tree_digest(run.FIXTURE / "golden")
        shutil.copytree(run.FIXTURE / "golden", WORKDIR / "copy")
        path = WORKDIR / "copy" / "match" / "summary.json"
        path.write_bytes(path.read_bytes() + b" ")
        copy = run.tree_digest(WORKDIR / "copy")
        self.assertNotEqual(copy, golden)
        self.assertEqual(run.tree_diff(copy, golden), "match/summary.json")


if __name__ == "__main__":
    unittest.main()
