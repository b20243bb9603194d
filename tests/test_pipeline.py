import ast
import atexit
import csv
import gc
import hashlib
import importlib.util
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from profaudit import corpus, images, mentions, pipeline, redirect_bias, stats
from profaudit.artifacts import sha256_file, write_jsonl
from profaudit.cli import main
from profaudit.config import AuditConfig
from profaudit.images import ImageCategory
from profaudit.pipeline import PipelineError


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def fixture_config(data_dir, tmp_path):
    cfg = AuditConfig.from_file(data_dir / "config.json")
    cfg.out_dir = str(tmp_path / "out")
    return cfg


class TestConfig:
    def test_relative_paths_resolve_against_config_dir(self, data_dir):
        cfg = AuditConfig.from_file(data_dir / "config.json")
        assert cfg.path("snapshot") == data_dir / "snapshot.jsonl"
        assert cfg.path("snapshot").exists()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"no_such_key": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="no_such_key"):
            AuditConfig.from_file(p)

    @pytest.mark.parametrize("text", ["[]", "5"])
    def test_non_object_config_names_file(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text, encoding="utf-8")
        rc = run_cli("report", "--all", "--config", p, "--out-dir",
                     tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(p) in err[0] and "JSON object" in err[0]

    @pytest.mark.parametrize("key, value", [
        ("mc_iterations", "100"), ("snapshot", 5), ("d_max", 2.5),
        ("seed", True), ("r_min", "0.8"), ("r_min", False),
        ("hits", ["hits.csv"]), ("closure_depth", None)])
    def test_wrong_type_names_key(self, data_dir, tmp_path, capsys, key,
                                  value):
        config = json.loads((data_dir / "config.json").read_text(
            encoding="utf-8"))
        config[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", p, "--out-dir", out_dir)
        assert rc == 1
        assert repr(key) in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_out_dir_named_before_any_stage(self, data_dir, tmp_path,
                                                  capsys, value):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        config = json.loads((work / "config.json").read_text(
            encoding="utf-8"))
        config["out_dir"] = value
        (work / "config.json").write_text(json.dumps(config),
                                          encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        rc = run_cli("report", "--all", "--config", work / "config.json")
        assert rc == 1
        assert "'out_dir'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_int_for_float_and_null_path_accepted(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"r_min": 1, "worker_accuracy": 0.75, "hits": null}',
                     encoding="utf-8")
        cfg = AuditConfig.from_file(p)
        assert (cfg.r_min, cfg.worker_accuracy, cfg.hits) == (1, 0.75, None)

    def test_declared_keys_round_trip_and_are_checked(self, data_dir,
                                                      tmp_path):
        cfg = AuditConfig.from_file(data_dir / "config.json")
        cfg.r_min, cfg.hits, cfg.seed = 0.75, None, 7
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert AuditConfig.from_file(p).to_dict() == cfg.to_dict()
        assert AuditConfig._PATH_KEYS == (
            "snapshot", "professions", "abbreviations", "manual_assignments",
            "match_decisions", "hits", "labor_stats", "labor_classifier",
            "gender_lexicon", "birth_years", "annotations", "gold_labels",
            "out_dir")
        bool_for_int = dict(cfg.to_dict(), min_judgments=True)
        unknown_key = dict(cfg.to_dict(), no_such_key=1)
        for data, named in ((bool_for_int, "'min_judgments' must be an "
                                           "integer, got True"),
                            (unknown_key, r"unknown keys \['no_such_key'\]")):
            p.write_text(json.dumps(data), encoding="utf-8")
            with pytest.raises(ValueError, match=named):
                AuditConfig.from_file(p)

    def test_missing_file_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"professions": "fehlt.txt"}', encoding="utf-8")
        cfg = AuditConfig.from_file(p)
        with pytest.raises(ValueError, match="fehlt.txt"):
            cfg.require("professions")

    def test_threshold_validation(self, data_dir):
        cfg = AuditConfig.from_file(data_dir / "config.json")
        cfg.r_min = 1.5
        with pytest.raises(ValueError, match="r_min"):
            cfg.validate_thresholds()

    def test_majority_threshold_below_half_rejected(self, data_dir):
        # below 0.5 both genders could reach the threshold
        cfg = AuditConfig.from_file(data_dir / "config.json")
        cfg.majority_threshold = 0.4
        with pytest.raises(ValueError, match=r"majority_threshold in \[0\.5"):
            cfg.validate_thresholds()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, data_dir, seed):
        cfg = AuditConfig.from_file(data_dir / "config.json")
        cfg.seed = seed
        with pytest.raises(ValueError, match="seed"):
            cfg.validate_thresholds()

    def test_negative_seed_fails_before_any_stage(self, data_dir, tmp_path,
                                                  capsys):
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", data_dir / "config.json",
                     "--out-dir", out_dir, "--seed", -1)
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_min_image_width_fails_before_any_stage(
            self, data_dir, tmp_path, capsys):
        config = json.loads((data_dir / "config.json").read_text(
            encoding="utf-8"))
        config["min_image_width"] = -5
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", p, "--out-dir", out_dir)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "min_image_width >= 0" in err[0]
        assert not out_dir.exists()

    def test_min_image_width_takes_effect(self, fixture_config):
        fixture_config.min_image_width = 10**9
        pipeline.run_all(fixture_config)
        categories = (Path(fixture_config.out_dir) / "images" /
                      "categories.csv").read_text(encoding="utf-8")
        assert categories.splitlines() == [
            "image_id,article_title,profession_id,title_role,bias_group,"
            "category"]


def _fresh_process(code: str) -> str:
    """The last line ``code`` prints, run in a new interpreter that imports
    the package from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(pipeline.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.splitlines()[-1]


def test_audit_imports_neither_numpy_nor_fetcher(data_dir, tmp_path):
    # a fresh process, since this one has imported numpy for the oracles,
    # and pytest has imported hashlib; dataclasses, and the inspect it
    # imports, cost milliseconds of start-up, and hashlib loads OpenSSL's
    # libcrypto, about 3.5 MB, which the audit's BLAKE2b does not need
    absent = ("numpy", "concurrent.futures", "urllib.request",
              "profaudit.mediawiki", "dataclasses", "inspect", "hashlib",
              "_hashlib")
    code = ("import sys; from profaudit.cli import main; "
            f"rc = main(['report', '--all', '--config', "
            f"{str(data_dir / 'config.json')!r}, '--out-dir', "
            f"{str(tmp_path / 'out')!r}]); "
            f"print(rc, [m for m in {absent!r} if m in sys.modules])")
    assert _fresh_process(code) == "0 []"
    assert (tmp_path / "out" / "report" / "bundle_manifest.json").exists()


def test_a_snapshot_of_megabytes_loads_no_openssl(data_dir, tmp_path):
    """A snapshot padded past 1 MiB with pages no stage reaches is hashed
    without ``_hashlib``, OpenSSL's, and every artifact but the manifests,
    which record the snapshot's digest, equals ``golden/``."""
    work = tmp_path / "fixture"
    shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
        "golden", "out"))
    # outside the closure, linked from no article, the target of no redirect
    with open(work / "snapshot.jsonl", "a", encoding="utf-8") as fh:
        for i in range(40):
            fh.write(json.dumps({
                "categories": ["Dekoration"], "exists": True, "images": [],
                "outlinks": [], "redirect_target": None,
                "plain_text": "Ein Gartenzwerg steht im Garten. " * 1000,
                "title": f"Gartenzwerg {i}"}, ensure_ascii=False) + "\n")
    assert (work / "snapshot.jsonl").stat().st_size > 1 << 20
    out = tmp_path / "out"
    code = ("import sys; from profaudit.cli import main; "
            f"rc = main(['report', '--all', '--config', "
            f"{str(work / 'config.json')!r}, '--out-dir', {str(out)!r}]); "
            "print(rc, '_hashlib' in sys.modules)")
    assert _fresh_process(code) == "0 False"
    golden = data_dir / "golden"
    assert ({k: v for k, v in _tree(out).items()
             if not k.endswith("manifest.json")}
            == {k: v for k, v in _tree(golden).items()
                if not k.endswith("manifest.json")})


class TestImportBoundary:
    """A process loads the code of the stages it runs and no other, and
    the stages that run while the snapshot is held load theirs before
    it. Each check runs in a fresh process, since this one has imported
    every module."""

    def test_cli_loads_no_analysis_module(self):
        code = ("import sys, profaudit.cli; print(sorted("
                "m for m in sys.modules if m.startswith('profaudit')))")
        assert _fresh_process(code) == str([
            "profaudit", "profaudit.artifacts", "profaudit.cli",
            "profaudit.config", "profaudit.labels", "profaudit.pipeline"])

    def test_annotation_rerun_loads_no_extraction_module(self, work):
        # the rerun runs lexicon, images and report only
        _edit_annotation(work)
        unused = ["profaudit." + m for m in ("matcher", "corpus", "mentions",
                                             "redirect_bias", "labor",
                                             "webhits")]
        code = ("import sys; from profaudit.cli import main; "
                f"rc = main(['report', '--all', '--config', "
                f"{str(work / 'fixture' / 'config.json')!r}, '--out-dir', "
                f"{str(work / 'out')!r}]); "
                f"print(rc, [m for m in {unused!r} if m in sys.modules])")
        assert _fresh_process(code) == "0 []"

    def test_a_single_stage_loads_no_module_of_another(self, work):
        # match reads the snapshot, but only run_all runs other stages
        # while it is held
        unused = ["profaudit." + m for m in ("mentions", "redirect_bias",
                                             "webhits", "stats")]
        code = ("import sys; from profaudit.cli import main; "
                f"rc = main(['match', '--config', "
                f"{str(work / 'fixture' / 'config.json')!r}, '--out-dir', "
                f"{str(work / 'out')!r}]); "
                f"print(rc, [m for m in {unused!r} if m in sys.modules])")
        assert _fresh_process(code) == "0 []"

    def test_no_module_first_imported_while_the_snapshot_is_held(
            self, data_dir, tmp_path):
        code = f"""
import sys
import time
from profaudit import cli, corpus, pipeline
load, drop = corpus.load_snapshot, pipeline.Run.drop_snapshot
loaded = []  # the modules at the load, then at the drop

def load_snapshot(path):
    snapshot = load(path)
    loaded.append(set(sys.modules))
    return snapshot

def drop_snapshot(run):
    if run._snapshot is not None:
        loaded.append(set(sys.modules))
    drop(run)

corpus.load_snapshot = load_snapshot
pipeline.Run.drop_snapshot = drop_snapshot
rc = cli.main(['report', '--all', '--config',
               {str(data_dir / 'config.json')!r},
               '--out-dir', {str(tmp_path / 'out')!r}])
print(rc, len(loaded), sorted(m for m in loaded[1] - loaded[0]
                              if m.startswith('profaudit')))
"""
        assert _fresh_process(code) == "0 2 []"


def test_source_parses_as_python_3_10():
    """Every package module is Python 3.10 syntax, as ``requires-python``
    declares. This checks syntax only: a call to a library function that
    3.10 lacks still passes."""
    with pytest.raises(SyntaxError):  # the check itself: 3.11 syntax fails
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    sources = sorted(Path(pipeline.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


class TestStageOrdering:
    def test_missing_upstream_names_stage(self, fixture_config):
        with pytest.raises(PipelineError, match="run stage 'lexicon' first"):
            pipeline.run_stage("match", fixture_config)

    def test_classify_needs_match(self, fixture_config):
        pipeline.run_stage("lexicon", fixture_config)
        with pytest.raises(PipelineError, match="run stage 'match' first"):
            pipeline.run_stage("classify", fixture_config)

    def test_unknown_stage(self, fixture_config):
        with pytest.raises(PipelineError, match="unknown stage"):
            pipeline.run_stage("plots", fixture_config)

    def test_single_stage_contract(self, fixture_config):
        outputs = pipeline.run_stage("lexicon", fixture_config)
        names = {p.name for p in outputs}
        assert names == {"entries.jsonl", "review.csv", "summary.json"}
        manifest = json.loads(
            (Path(fixture_config.out_dir) / "lexicon" / "manifest.json")
            .read_text(encoding="utf-8"))
        assert manifest["stage"] == "lexicon"
        assert set(manifest["outputs"]) == names


class TestGoldenRun:
    def test_full_run_matches_frozen_golden(self, data_dir, tmp_path):
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", data_dir / "config.json",
                     "--out-dir", out_dir)
        assert rc == 0
        golden_root = data_dir / "golden"
        golden_files = sorted(p.relative_to(golden_root)
                              for p in golden_root.rglob("*") if p.is_file())
        assert golden_files, "golden directory must not be empty"
        for rel in golden_files:
            produced = out_dir / rel
            assert produced.exists(), f"missing output {rel}"
            assert produced.read_bytes() == (golden_root / rel).read_bytes(), \
                f"output differs from golden: {rel}"
        produced_files = sorted(p.relative_to(out_dir)
                                for p in out_dir.rglob("*") if p.is_file())
        assert produced_files == golden_files

    def test_inputs_with_a_byte_order_mark(self, data_dir, tmp_path):
        # a mark, as spreadsheet exports write, on the config, the
        # profession list and two CSV inputs changes no artifact
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        for name in ("config.json", "professions.txt", "gender_lexicon.csv",
                     "labor_classifier.csv"):
            (work / name).write_bytes(b"\xef\xbb\xbf"
                                      + (work / name).read_bytes())
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", out_dir)
        assert rc == 0
        golden_root = data_dir / "golden"
        for path in golden_root.rglob("*.*"):
            if "manifest" not in path.name:  # manifests hash the inputs
                rel = path.relative_to(golden_root)
                assert (out_dir / rel).read_bytes() == path.read_bytes(), rel

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_dir)
        first = {p.relative_to(out_dir): p.read_bytes()
                 for p in out_dir.rglob("*") if p.is_file()}
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_dir)
        second = {p.relative_to(out_dir): p.read_bytes()
                  for p in out_dir.rglob("*") if p.is_file()}
        assert first == second

    def test_seed_override_changes_mc_results(self, data_dir, tmp_path,
                                              monkeypatch):
        # every fixture table is small enough to enumerate, and an exact
        # test uses no seed; with none enumerated, every test is sampled
        monkeypatch.setattr(stats, "_EXACT_STEPS", 0)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_a)
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_b, "--seed", 99)
        dist_a = (out_a / "images" / "distributions.json").read_bytes()
        dist_b = (out_b / "images" / "distributions.json").read_bytes()
        assert dist_a != dist_b

    def test_mc_iterations_sets_the_sampled_budget(self, fixture_config,
                                                   monkeypatch):
        monkeypatch.setattr(stats, "_EXACT_STEPS", 0)
        fixture_config.mc_iterations = 321
        pipeline.run_all(fixture_config)
        dist = json.loads((Path(fixture_config.out_dir) / "images" /
                           "distributions.json").read_text(encoding="utf-8"))
        tests = [t["test"] for d in dist.values() for t in d["posthoc_tests"]]
        assert tests
        assert {(t["method"], t["B"]) for t in tests} == {
            ("chi2_monte_carlo", 321)}

    def test_bundle_manifest_covers_every_file(self, data_dir, tmp_path):
        out_dir = tmp_path / "out"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_dir)
        bundle = json.loads((out_dir / "report" / "bundle_manifest.json")
                            .read_text(encoding="utf-8"))
        listed = set(bundle["outputs"])
        on_disk = {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
                   if p.is_file()}
        on_disk -= {"report/manifest.json", "report/bundle_manifest.json"}
        assert listed == on_disk
        # what `b2sum -l 256` prints for each file
        assert bundle["digest"] == "blake2b-256"
        assert all(digest == hashlib.blake2b(
            (out_dir / name).read_bytes(), digest_size=32).hexdigest()
            for name, digest in bundle["outputs"].items())

    def test_no_data_markers_when_inputs_empty(self, data_dir, tmp_path):
        # strip every annotation: image reports must stay present but empty
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns("golden",
                                                                      "out"))
        (work / "annotations.csv").write_text(
            "worker_id,image_id,timestamp,count_answer,gender_answer\n",
            encoding="utf-8")
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", out_dir)
        assert rc == 0
        kappa = json.loads((out_dir / "images" / "kappa.json")
                           .read_text(encoding="utf-8"))
        assert "error" in kappa
        dist = json.loads((out_dir / "images" / "distributions.json")
                          .read_text(encoding="utf-8"))
        assert dist["overall"]["groups"] == []

    def test_no_professions_gives_zero_tables_and_header_only_figures(
            self, fixture_config, tmp_path):
        (tmp_path / "professions.txt").write_text("", encoding="utf-8")
        fixture_config.professions = str(tmp_path / "professions.txt")
        fixture_config.manual_assignments = None
        fixture_config.match_decisions = None
        for stage in ("lexicon", "match", "classify"):
            pipeline.run_stage(stage, fixture_config)
        out = Path(fixture_config.out_dir) / "classify"
        for name in ("figure4", "figure5"):
            assert (out / f"{name}.csv").read_text(encoding="utf-8") == \
                ",".join(redirect_bias.TABLES[name]) + "\n"
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        for name in ("table_1a", "table_1b", "table_1c"):
            lines = (out / f"{name}.csv").read_text(encoding="utf-8")
            assert lines.splitlines()[1:] == [
                role + ",0" * (len(redirect_bias.TABLES[name]) - 1)
                for role in redirect_bias.ROLES]
            assert set(summary[name]) == set(redirect_bias.ROLES)
            assert all(v == 0 for row in summary[name].values()
                       for v in row.values())
        assert set(summary["bias_groups"].values()) == {0}


class TestModelTables:
    @pytest.mark.parametrize("coef", [600.0, -600.0])
    def test_huge_coefficient_written_as_null_odds_ratio(
            self, fixture_config, monkeypatch, coef):
        real_fit = stats.logistic_fit

        def fit_with_huge_slope(X, y):
            fit = real_fit(X, y)
            fit["coefficients"][1] = coef
            return fit

        monkeypatch.setattr(stats, "logistic_fit", fit_with_huge_slope)
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        models = json.loads((out / "webhits" / "models.json").read_text(
            encoding="utf-8"))
        labor = json.loads((out / "report" / "labor_tests.json").read_text(
            encoding="utf-8"))
        tables = [models["model_female_bias"], models["model_male_bias"],
                  labor["regression"]]
        for table in tables:
            intercept, slope = table["coefficients"][:2]
            assert slope["coef"] == coef and slope["odds_ratio"] is None
            assert intercept["odds_ratio"] == pytest.approx(
                math.exp(intercept["coef"]), rel=1e-5, abs=1e-5)


def _fixture_copy(data_dir: Path, root: Path) -> Path:
    work = root / "fixture"
    shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
        "golden", "out"))
    return work


def _edit_csv(path: Path, edit) -> None:
    """Rewrite the data rows of a CSV file through ``edit(rows)``."""
    header, *rows = csv.reader(path.read_text(encoding="utf-8")
                               .splitlines())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + edit(rows))


class TestModelsThatCannotBeFitted:
    """A design that ``stats.logistic_fit`` rejects is recorded as skipped
    with its reason, and the audit goes on."""

    @pytest.mark.parametrize("name, edit, artifact, models", [
        ("hits.csv", lambda rows: [[pid, male, "0"] for pid, male, _ in rows],
         "webhits/models.json", ("model_female_bias", "model_male_bias")),
        ("hits.csv", lambda rows: [r for r in rows
                                   if r[0] in ("L0005", "L0023", "L0031")],
         "webhits/models.json", ("model_female_bias", "model_male_bias")),
        ("labor_stats.csv",
         lambda rows: [[code, label, "100", "300"]
                       for code, label, _men, _women in rows],
         "report/labor_tests.json", ("regression",)),
        ("labor_stats.csv", lambda rows: [], "report/labor_tests.json",
         ("regression",)),
    ], ids=["no_female_hits", "three_hit_rows", "one_labor_share",
            "no_labor_rows"])
    def test_audit_completes(self, data_dir, tmp_path, capsys, name, edit,
                             artifact, models):
        work = _fixture_copy(data_dir, tmp_path)
        _edit_csv(work / name, edit)
        out_dir = tmp_path / "out"
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", out_dir)
        assert rc == 0, capsys.readouterr().err
        report = json.loads((out_dir / artifact).read_text(encoding="utf-8"))
        for model in models:
            assert report[model]["skipped"].startswith("logistic_fit:")


def _swap(pairs):
    """The function that exchanges the two values of each pair."""
    table = dict(pairs + [(b, a) for a, b in pairs])
    return lambda value: table.get(value, value)


def _p_values(obj) -> list:
    """Every value of a ``p`` key under ``obj``."""
    if isinstance(obj, list):
        return [p for v in obj for p in _p_values(v)]
    if isinstance(obj, dict):
        return [p for key, v in obj.items()
                for p in ([v] if key == "p" else _p_values(v))]
    return []


class TestGenderSwap:
    """Swapping every gender label of the fixture's inputs mirrors the
    outputs: counts swap, shares become 1 - r, classes and groups flip, and
    the two-sided p-values stay the same. The swapped run is compared with
    the golden tree."""

    @pytest.fixture(scope="class")
    def swapped(self, data_dir, tmp_path_factory) -> Path:
        work = _fixture_copy(data_dir, tmp_path_factory.mktemp("swap"))
        _edit_csv(work / "gender_lexicon.csv", lambda rows: [
            [name, _swap([("m", "f")])(g)] for name, g in rows])
        answer = _swap([("male", "female"), ("only_male", "only_female"),
                        ("mixed_mostly_male", "mixed_mostly_female")])
        _edit_csv(work / "annotations.csv",
                  lambda rows: [r[:4] + [answer(r[4])] for r in rows])
        _edit_csv(work / "gold_labels.csv", lambda rows: [
            [image, _swap([("men", "women")])(c)] for image, c in rows])
        _edit_csv(work / "labor_stats.csv", lambda rows: [
            [code, label, women, men] for code, label, men, women in rows])
        category = _swap([("Frau", "Mann")])
        lines = []
        for line in (work / "snapshot.jsonl").read_text(
                encoding="utf-8").splitlines():
            record = json.loads(line)
            record["categories"] = list(map(category, record["categories"]))
            lines.append(json.dumps(record, ensure_ascii=False) + "\n")
        (work / "snapshot.jsonl").write_text("".join(lines), encoding="utf-8")
        out_dir = work.parent / "out"
        assert run_cli("report", "--all", "--config", work / "config.json",
                       "--out-dir", out_dir) == 0
        return out_dir

    @staticmethod
    def _rows(root: Path, name: str) -> list[list[str]]:
        with open(root / name, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))[1:]

    def test_mention_ratios_mirror(self, data_dir, swapped):
        cls = _swap([("male_biased", "female_biased")])
        golden = self._rows(data_dir / "golden", "mentions/ratios.csv")
        rows = self._rows(swapped, "mentions/ratios.csv")
        assert len(rows) == len(golden)
        for (variant, title, men, women, ratio, bias), row in zip(golden,
                                                                   rows):
            assert row[:4] == [variant, title, women, men]
            assert float(row[4]) == pytest.approx(1 - float(ratio), abs=1e-6)
            assert row[5] == cls(bias)

    def test_image_categories_mirror(self, data_dir, swapped):
        category = _swap([("men", "women")])
        assert self._rows(swapped, "images/categories.csv") == [
            row[:5] + [category(row[5])] for row in
            self._rows(data_dir / "golden", "images/categories.csv")]

    def test_labor_groups_mirror(self, data_dir, swapped):
        group = _swap([("female_majority", "male_majority"),
                       ("female_dominated", "male_dominated")])
        golden = self._rows(data_dir / "golden", "labor/joined.csv")
        rows = self._rows(swapped, "labor/joined.csv")
        assert len(rows) == len(golden)
        for (pid, code, kind, men, women, pct, majority, dominated), row \
                in zip(golden, rows):
            assert row[:5] == [pid, code, kind, women, men]
            assert float(row[5]) == pytest.approx(1 - float(pct), abs=1e-6)
            assert row[6:] == [group(majority), group(dominated)]

    @pytest.mark.parametrize("name", [
        "report/mention_tests.json", "report/labor_tests.json",
        "images/distributions.json",
        "report/image_labor_distributions.json"])
    def test_p_values_equal(self, data_dir, swapped, name):
        golden, report = (json.loads((root / name).read_text(
            encoding="utf-8")) for root in (data_dir / "golden", swapped))
        if name == "report/labor_tests.json":
            # the labor model's predictor becomes 100 - x, which moves its
            # intercept; only the slope's test is a mirror quantity
            for tree in (golden, report):
                del tree["regression"]["coefficients"][0]
        assert sorted(_p_values(report)) == sorted(_p_values(golden))
        assert _p_values(golden)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector enabled or disabled for the test; afterwards its old
    state is restored and nothing is left frozen."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
    gc.unfreeze()


class TestCollectorPolicy:
    """The snapshot loads with the collector paused and stays frozen only
    while the run holds it."""

    @pytest.fixture()
    def seen(self, monkeypatch):
        """Whether the collector ran while the snapshot loaded, and the
        freeze count at the end of each stage function."""
        seen = {}
        load = corpus.load_snapshot

        def load_snapshot(path):
            seen["enabled_in_load"] = gc.isenabled()
            return load(path)

        monkeypatch.setattr(corpus, "load_snapshot", load_snapshot)
        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            def wrapper(run, _stage=stage, _fn=fn):
                result = _fn(run)
                seen[_stage] = gc.get_freeze_count()
                return result

            monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, wrapper)
        return seen

    def test_run_all(self, fixture_config, collector, seen):
        pipeline.run_all(fixture_config)
        assert seen.pop("enabled_in_load") is False
        # frozen from the first stage that reads the snapshot until the
        # last, mentions, frees it before its first article
        assert [s for s in pipeline.STAGES if seen[s]] == [
            "match", "classify", "webhits"]
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_run_stage(self, fixture_config, collector, seen):
        pipeline.run_all(fixture_config)
        seen.clear()
        pipeline.run_stage("classify", fixture_config)
        assert seen["enabled_in_load"] is False and seen["classify"] > 0
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector
        seen.clear()
        pipeline.run_stage("mentions", fixture_config)
        assert seen["enabled_in_load"] is False and seen["mentions"] == 0
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_failed_load(self, data_dir, tmp_path, collector):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        with open(work / "snapshot.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        cfg = AuditConfig.from_file(work / "config.json")
        cfg.out_dir = str(tmp_path / "out")
        with pytest.raises(corpus.SnapshotError, match="line 26"):
            pipeline.run_all(cfg)
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_leaves_a_callers_freeze_alone(self, fixture_config, collector,
                                           seen):
        gc.freeze()
        frozen = gc.get_freeze_count()
        pipeline.run_all(fixture_config)
        assert seen["match"] == frozen and gc.get_freeze_count() == frozen


class TestExitHook:
    """``cli.main`` registers ``gc.freeze`` as an exit hook once per
    process, after its command; the library entry points register none."""

    @pytest.fixture()
    def hooks(self, monkeypatch):
        """The exit hooks registered while the test runs, in order."""
        hooks = []

        def register(fn, *args, **kwargs):
            hooks.append(fn)
            return fn

        def unregister(fn):
            hooks[:] = [h for h in hooks if h != fn]

        monkeypatch.setattr(atexit, "register", register)
        monkeypatch.setattr(atexit, "unregister", unregister)
        return hooks

    def test_one_hook_however_often_main_runs(self, data_dir, tmp_path,
                                              hooks):
        assert run_cli("report", "--all", "--config",
                       data_dir / "config.json",
                       "--out-dir", tmp_path / "out") == 0
        assert run_cli("lexicon", "--config", tmp_path / "nope.json") == 1
        # nothing stays frozen while the process runs
        assert gc.get_freeze_count() == 0
        assert hooks.count(gc.freeze) == 1

    def test_library_runs_register_none(self, fixture_config, hooks):
        pipeline.run_all(fixture_config)
        pipeline.run_stage("lexicon", fixture_config)
        assert hooks == []

    def test_a_dev_mode_process_ends_cleanly(self, data_dir, tmp_path):
        """With the hook, ``-X dev`` reports nothing at exit (an unclosed
        file would be a ResourceWarning), and the printed paths are every
        file the stages wrote."""
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(
            Path(pipeline.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "profaudit.cli", "report",
             "--all", "--config", str(data_dir / "config.json"),
             "--out-dir", str(out)], env=env, capture_output=True,
            encoding="utf-8", errors="replace", timeout=120)
        assert done.returncode == 0
        # stderr holds the two warnings the fixture's data gives, no more
        assert [line.split(":")[0] for line in done.stderr.splitlines()] == [
            "WARNING profaudit.corpus", "WARNING profaudit.webhits"]
        assert sorted(done.stdout.splitlines()) == sorted(
            str(p) for p in out.resolve().rglob("*")
            if p.is_file() and p.name != "manifest.json")
        assert _tree(out) == _tree(data_dir / "golden")


class TestWriteJsonl:
    def test_lines_equal_json_dumps(self, tmp_path):
        records = [
            {"title": "Ärztin", "text": "Straße „Zitat“ 中文 \u0301 \\ \"",
             "none": None, "b": True},
            {"z": [1, [2.5, None], {"y": "ü", "x": [{"b": 1, "a": 0}]}],
             "a": {"nested": {"k": -0.0}}},
            {"floats": [0.1, 1e-07, 1e20, 3.141592653589793, float("inf"),
                        -float("inf")], "int": 10**20},
            {},
        ]
        path = tmp_path / "out.jsonl"
        write_jsonl(path, iter(records))
        expected = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True)
                           + "\n" for r in records)
        assert path.read_bytes() == expected.encode("utf-8")


class TestCliErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = run_cli("lexicon", "--config", tmp_path / "nope.json")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stage_error_is_reported(self, data_dir, tmp_path, capsys):
        rc = run_cli("classify", "--config", data_dir / "config.json",
                     "--out-dir", tmp_path / "out")
        assert rc == 1
        assert "lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "snapshot line 26: expected a JSON object, got list"),
        ('{"title": "X", "categories": "Frau"}',
         "snapshot line 26: field 'categories' must be a list, got str")])
    def test_malformed_snapshot_record_is_one_error_line(
            self, data_dir, tmp_path, capsys, line, message):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        snapshot = work / "snapshot.jsonl"
        assert len(snapshot.read_text(encoding="utf-8").splitlines()) == 25
        with open(snapshot, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        (None, "config: cannot read {path}: No such file or directory"),
        (b'{"seed": 2,', "config: {path} is not JSON: Expecting property "
                         "name enclosed in double quotes: line 1 column 12 "
                         "(char 11)"),
        ('{"snapshot": "Bär"}'.encode("latin-1"),
         "config line 1: byte 0xe4 is not UTF-8, in {path}")],
        ids=["missing", "malformed", "latin1"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys,
                                              content, message):
        path = tmp_path / "audit.json"
        if content is not None:
            path.write_bytes(content)
        rc = run_cli("lexicon", "--config", path)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {message.format(path=path)}\n")

    def test_snapshot_changed_before_mentions(self, data_dir, tmp_path,
                                              capsys, monkeypatch):
        # the snapshot is rewritten, one blank line longer, right after
        # match loads it; mentions must not read texts at stale offsets
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        load = corpus.load_snapshot

        def load_then_rewrite(path):
            snapshot = load(path)
            path.write_bytes(b"\n" + path.read_bytes())
            return snapshot

        monkeypatch.setattr(corpus, "load_snapshot",
                            load_then_rewrite)
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", tmp_path / "out")
        assert rc == 1
        snapshot = work.resolve() / "snapshot.jsonl"
        assert capsys.readouterr().err == (
            f"error: snapshot {snapshot} changed after it was loaded; "
            f"run again\n")
        assert not (tmp_path / "out" / "mentions" / "manifest.json").exists()

    @pytest.mark.parametrize("name, message", [
        ("professions.txt", "professions line 1: byte 0xe4"),
        ("hits.csv", "hits line 3: byte 0xff")])
    def test_non_utf8_input_names_the_file(self, data_dir, tmp_path, capsys,
                                           name, message):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        path = work / name
        if name == "professions.txt":  # re-encoded as Latin-1
            path.write_bytes(path.read_text(encoding="utf-8")
                             .encode("latin-1"))
        else:  # one stray byte
            lines = path.read_bytes().splitlines(keepends=True)
            lines[2] = b"\xff" + lines[2]
            path.write_bytes(b"".join(lines))
        rc = run_cli("report", "--all", "--config", work / "config.json",
                     "--out-dir", tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {message} is not UTF-8, in {work.resolve() / name}\n")

    @pytest.mark.parametrize("stage", ["mentions"])
    def test_stale_snapshot_names_match(self, data_dir, tmp_path, capsys,
                                        stage):
        out_dir = tmp_path / "out"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_dir)
        other = tmp_path / "other.jsonl"
        other.write_text("".join(
            line for line in (data_dir / "snapshot.jsonl")
            .read_text(encoding="utf-8").splitlines(keepends=True)
            if '"title": "Biologin"' not in line), encoding="utf-8")
        capsys.readouterr()
        rc = run_cli(stage, "--config", data_dir / "config.json",
                     "--out-dir", out_dir, "--snapshot", other)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: stage 'match' is stale (input snapshot changed); "
            "run stage 'match' first\n")

    def test_images_reads_no_snapshot(self, data_dir, tmp_path, monkeypatch):
        # images hashes the snapshot, to check match and classify, but
        # parses none
        out_dir = tmp_path / "out"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_dir)
        before = _tree(out_dir / "images")

        def no_snapshot(*args, **kwargs):
            raise AssertionError("stage images parsed the snapshot")

        monkeypatch.setattr(corpus, "load_snapshot", no_snapshot)
        rc = run_cli("images", "--config", data_dir / "config.json",
                     "--out-dir", out_dir)
        assert rc == 0
        assert _tree(out_dir / "images") == before


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _manifest(cfg: AuditConfig, stage: str) -> dict:
    return json.loads((Path(cfg.out_dir) / stage / "manifest.json")
                      .read_text(encoding="utf-8"))


class TestRun:
    def test_snapshot_and_closure_computed_once(self, fixture_config,
                                                monkeypatch):
        calls = {"load_snapshot": 0, "category_closure": 0}
        for name in calls:
            original = getattr(corpus, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(corpus, name, counted)
        pipeline.run_all(fixture_config)
        assert calls == {"load_snapshot": 1, "category_closure": 1}

    def test_unknown_root_warned_once(self, fixture_config, caplog):
        with caplog.at_level(logging.WARNING, logger="profaudit.corpus"):
            pipeline.run_all(fixture_config)
        assert sum("unknown root category" in r.getMessage()
                   for r in caplog.records) == 1

    def test_manifests_list_every_read_artifact(self, fixture_config):
        pipeline.run_all(fixture_config)
        assert "classifications" in _manifest(fixture_config,
                                              "images")["inputs"]
        assert "article_map" in _manifest(fixture_config, "report")["inputs"]

    def test_constants_recorded_per_stage(self, fixture_config):
        pipeline.run_stage("lexicon", fixture_config)
        pipeline.run_stage("match", fixture_config)
        lexicon_before = _manifest(fixture_config, "lexicon")
        match_before = _manifest(fixture_config, "match")
        assert match_before["constants"] == {
            "closure_depth": 5, "d_max": 2, "r_min": 0.8}

        fixture_config.d_max = 3
        pipeline.run_stage("lexicon", fixture_config)
        pipeline.run_stage("match", fixture_config)
        assert _manifest(fixture_config, "lexicon") == lexicon_before
        assert _manifest(fixture_config, "match")["constants"]["d_max"] == 3

    def test_upstream_header_mismatch_names_file(self, fixture_config):
        pipeline.run_stage("lexicon", fixture_config)
        pipeline.run_stage("match", fixture_config)
        accepted = Path(fixture_config.out_dir) / "match" / "accepted.csv"
        accepted.write_text("profession_id,title\nL0001,Lehrer\n",
                            encoding="utf-8")
        with pytest.raises(PipelineError, match=(
                r"^stage 'match' is stale \(output accepted\.csv changed\); "
                r"run stage 'match' first$")):
            pipeline.run_stage("classify", fixture_config)

    def test_entries_with_foreign_keys_rejected(self, fixture_config):
        pipeline.run_stage("lexicon", fixture_config)
        entries = Path(fixture_config.out_dir) / "lexicon" / "entries.jsonl"
        entries.write_text('{"id": "L0001", "title": "Lehrer"}\n',
                           encoding="utf-8")
        with pytest.raises(PipelineError, match=(
                r"^stage 'lexicon' is stale \(output entries\.jsonl "
                r"changed\); run stage 'lexicon' first$")):
            pipeline.run_stage("labor", fixture_config)


class TestMentionsSnapshot:
    """The mentions stage keeps only the snapshot pages it reads, and frees
    the rest before its first article."""

    def test_snapshot_freed_before_the_first_article(self, fixture_config,
                                                     monkeypatch):
        # TestRun.test_snapshot_and_closure_computed_once checks that no
        # later stage parses the snapshot again
        runs, seen = [], []
        stage = pipeline._STAGE_FUNCS["mentions"]
        extract = mentions.extract_text_mentions

        def stage_mentions(run):
            runs.append(run)
            return stage(run)

        def extract_text_mentions(*args, **kwargs):
            if not seen:
                seen.append((gc.get_freeze_count(), runs[-1]._snapshot))
            return extract(*args, **kwargs)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "mentions", stage_mentions)
        monkeypatch.setattr(mentions, "extract_text_mentions",
                            extract_text_mentions)
        pipeline.run_all(fixture_config)
        assert len(runs) == 1 and seen == [(0, None)]

    def test_unlinked_person_page_changes_no_mention(self, data_dir,
                                                     tmp_path):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        config = work / "config.json"
        assert run_cli("report", "--all", "--config", config, "--out-dir",
                       tmp_path / "before") == 0
        with open(work / "snapshot.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "title": "Erika Ohnelink", "categories": ["Frau"],
                "plain_text": "Erika Ohnelink (* 3. Mai 1970 in Bonn) ist "
                              "Lehrerin."}, ensure_ascii=False) + "\n")
        assert run_cli("report", "--all", "--config", config, "--out-dir",
                       tmp_path / "after") == 0
        before = _tree(tmp_path / "before" / "mentions")
        after = _tree(tmp_path / "after" / "mentions")
        # the manifest records the snapshot's digest, which changed
        assert before.pop("manifest.json") != after.pop("manifest.json")
        assert after == before


# a value other than the fixture's for every declared constant; with
# dominated_threshold 1.0 no profession is dominated, so the report writes
# no dist_labor_dominated.csv
_CHANGED_CONSTANTS = {
    "closure_depth": 3, "d_max": 4, "r_min": 0.9, "birth_cutoff": 1900,
    "equality_band": 0.2, "min_image_width": 300, "worker_accuracy": 0.9,
    "min_judgments": 2, "mc_iterations": 2000, "majority_threshold": 0.6,
    "dominated_threshold": 1.0,
}
_FIRST = "the first stage always runs"


@pytest.fixture(scope="module")
def complete_run(data_dir, tmp_path_factory):
    """A copy of the fixture inputs (``fixture/``) and a complete run of
    them (``out/``, with its stamp file beside it)."""
    root = tmp_path_factory.mktemp("complete")
    shutil.copytree(data_dir, root / "fixture",
                    ignore=shutil.ignore_patterns("golden", "out"))
    assert run_cli("report", "--all", "--config",
                   root / "fixture" / "config.json", "--out-dir",
                   root / "out") == 0
    return root


@pytest.fixture()
def work(complete_run, tmp_path):
    shutil.copytree(complete_run, tmp_path / "work")
    return tmp_path / "work"


@pytest.fixture()
def stages_run(monkeypatch) -> list[str]:
    """The stage functions called, in order."""
    ran = []
    for stage, fn in list(pipeline._STAGE_FUNCS.items()):
        def wrapper(run, _stage=stage, _fn=fn):
            ran.append(_stage)
            return _fn(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, wrapper)
    return ran


def _set_config(root: Path, **values) -> None:
    path = root / "fixture" / "config.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config.update(values)
    path.write_text(json.dumps(config), encoding="utf-8")


def _edit_annotation(root: Path) -> None:
    path = root / "fixture" / "annotations.csv"
    row = "w1,Lehrer_Klasse.jpg,100,one_person,male\n"
    text = path.read_text(encoding="utf-8")
    assert row in text
    path.write_text(text.replace(row, row.replace("male", "female")),
                    encoding="utf-8")


def _rerun(root: Path, capsys, caplog, stages_run, *args) -> dict:
    """Reruns ``report --all`` into ``root/out``, then runs it into the
    empty ``root/cold`` on the same inputs. Checks that both leave the same
    tree and print the same paths; returns why each stage of the rerun ran,
    as logged."""
    config = root / "fixture" / "config.json"
    capsys.readouterr()
    del stages_run[:]
    with caplog.at_level(logging.INFO, logger="profaudit.pipeline"):
        caplog.clear()
        assert run_cli("report", "--all", "--config", config, "--out-dir",
                       root / "out", *args) == 0
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "profaudit.pipeline"]
    ran = list(stages_run)
    printed = capsys.readouterr().out.replace(str(root / "out"), "<out>")
    assert run_cli("report", "--all", "--config", config, "--out-dir",
                   root / "cold", *args) == 0
    assert capsys.readouterr().out.replace(str(root / "cold"),
                                           "<out>") == printed
    assert _tree(root / "out") == _tree(root / "cold")
    reasons = dict(m.removeprefix("running stage ").split(": ", 1)
                   for m in messages if m.startswith("running stage "))
    skipped = [m.split()[2] for m in messages if m.startswith("skipped")]
    assert messages == [f"running stage {s}: {reasons[s]}" if s in reasons
                        else f"skipped stage {s} (unchanged)"
                        for s in pipeline.STAGES]
    assert list(reasons) == ran
    assert sorted(ran + skipped) == sorted(pipeline.STAGES)
    return reasons


class TestIncremental:
    """``report --all`` into the directory of a complete run reruns only
    the stages an edit reaches, and leaves the tree a run into an empty
    directory leaves."""

    def test_unchanged_inputs_run_only_the_first_stage(
            self, work, capsys, caplog, stages_run):
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST}

    def test_annotation_edit_reruns_images_and_report(
            self, work, capsys, caplog, stages_run):
        _edit_annotation(work)
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST,
            "images": "input annotations changed",
            "report": "input image_categories changed"}

    @pytest.mark.parametrize("key", sorted(_CHANGED_CONSTANTS))
    def test_constant_edit_reruns_its_stages(self, work, capsys, caplog,
                                             stages_run, key):
        _set_config(work, **{key: _CHANGED_CONSTANTS[key]})
        reasons = _rerun(work, capsys, caplog, stages_run)
        declaring = [s for s in pipeline.STAGES
                     if key in pipeline.DECLARATIONS[s].constants]
        assert declaring
        for stage in declaring:
            assert reasons[stage] == f"constant {key} changed"
        assert "report" in reasons

    def test_every_config_value_reaches_the_report(self):
        # the report's bundle records every config value that is not a
        # path; it reruns when one changes only if some stage declares it
        declared = {k for d in pipeline.DECLARATIONS.values()
                    for k in d.constants}
        values = set(AuditConfig().to_dict()) - set(AuditConfig._PATH_KEYS)
        assert declared == values - {"seed"} == set(_CHANGED_CONSTANTS)

    def test_seed_reruns_every_stage(self, work, capsys, caplog, stages_run):
        reasons = _rerun(work, capsys, caplog, stages_run, "--seed", 99)
        assert reasons == dict.fromkeys(pipeline.STAGES, "seed changed") | {
            "lexicon": _FIRST}

    def test_deleted_output_reruns_its_stage(self, work, capsys, caplog,
                                             stages_run):
        (work / "out" / "mentions" / "ratios.csv").unlink()
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST, "mentions": "output ratios.csv missing"}

    def test_tampered_output_reruns_its_stage(self, work, capsys, caplog,
                                              stages_run):
        with open(work / "out" / "images" / "kappa.json", "a",
                  encoding="utf-8") as fh:
            fh.write(" ")
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST, "images": "output kappa.json changed"}

    @pytest.mark.parametrize("old, new, reason", [
        ("}\n", "}\n\n", "code stamp differs"),
        ('"d_max": 2', '"d_max": 3', "constant d_max changed"),
        ('"outputs": {', '"outputs": [', "manifest missing or unreadable"),
    ], ids=["whitespace", "constant", "garbled"])
    def test_tampered_manifest_reruns_its_stage(self, work, capsys, caplog,
                                                stages_run, old, new, reason):
        path = work / "out" / "match" / "manifest.json"
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST, "match": reason}

    def test_deleted_manifest_reruns_its_stage(self, work, capsys, caplog,
                                               stages_run):
        (work / "out" / "labor" / "manifest.json").unlink()
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST, "labor": "manifest missing or unreadable"}

    @pytest.mark.parametrize("stamps", [None, "{not json", "[]", "{}"],
                             ids=["missing", "garbled", "list", "empty"])
    def test_missing_or_garbled_stamps_rerun_every_stage(
            self, work, capsys, caplog, stages_run, stamps):
        path = work / "out.stamps.json"
        assert path.is_file()
        if stamps is None:
            path.unlink()
        else:
            path.write_text(stamps, encoding="utf-8")
        reasons = _rerun(work, capsys, caplog, stages_run)
        assert reasons == dict.fromkeys(pipeline.STAGES,
                                        "code stamp differs") | {
            "lexicon": _FIRST}

    def test_changed_source_reruns_every_stage(self, work, capsys, caplog,
                                               stages_run, monkeypatch):
        monkeypatch.setattr(pipeline, "source_fingerprint", lambda: "0" * 64)
        reasons = _rerun(work, capsys, caplog, stages_run)
        assert reasons == dict.fromkeys(pipeline.STAGES,
                                        "code stamp differs") | {
            "lexicon": _FIRST}

    def test_d_max_edit_refreshes_the_bundle(self, work, capsys, caplog,
                                             stages_run):
        classify_before = _tree(work / "out" / "classify")
        _set_config(work, d_max=3)
        assert _rerun(work, capsys, caplog, stages_run) == {
            "lexicon": _FIRST, "match": "constant d_max changed",
            "report": "input match_manifest changed"}
        assert _tree(work / "out" / "classify") == classify_before
        bundle = json.loads((work / "out" / "report" / "bundle_manifest.json")
                            .read_text(encoding="utf-8"))
        assert bundle["config"]["d_max"] == 3

    def test_verbose_logs_one_line_per_stage(self, work):
        env = dict(os.environ, PYTHONPATH=str(
            Path(pipeline.__file__).resolve().parents[1]))
        command = [sys.executable, "-m", "profaudit.cli", "report", "--all",
                   "--config", str(work / "fixture" / "config.json"),
                   "--out-dir", str(work / "out")]
        quiet = subprocess.run(command, env=env, capture_output=True,
                               text=True, check=True)
        assert "profaudit.pipeline" not in quiet.stderr
        _edit_annotation(work)
        verbose = subprocess.run(command[:3] + ["--verbose"] + command[3:],
                                 env=env, capture_output=True, text=True,
                                 check=True)
        lines = [line.removeprefix("INFO profaudit.pipeline: ")
                 for line in verbose.stderr.splitlines()
                 if line.startswith("INFO profaudit.pipeline: ")]
        assert lines == [
            "running stage lexicon: the first stage always runs",
            "skipped stage match (unchanged)",
            "skipped stage classify (unchanged)",
            "skipped stage webhits (unchanged)",
            "skipped stage mentions (unchanged)",
            "running stage images: input annotations changed",
            "skipped stage labor (unchanged)",
            "running stage report: input image_categories changed"]

    @pytest.mark.parametrize("recorded, value, same", [
        (0.8, 0.8, True), (1, 1.0, False), (0.123457, 0.1234567, False),
        ({"a": 1, "b": "x"}, {"b": "x", "a": 1}, True)])
    def test_recorded_value_compared_as_written(self, recorded, value, same):
        assert pipeline._same(recorded, value) is same

    def test_run_stage_always_runs(self, work, stages_run):
        cfg = AuditConfig.from_file(work / "fixture" / "config.json")
        cfg.out_dir = str(work / "out")
        before = _tree(work / "out")
        pipeline.run_stage("images", cfg)
        assert stages_run == ["images"]
        assert _tree(work / "out") == before

    def test_annotation_edit_parses_no_snapshot(self, work, monkeypatch):
        def no_snapshot(*args, **kwargs):
            raise AssertionError("the rerun parsed the snapshot")

        monkeypatch.setattr(corpus, "load_snapshot", no_snapshot)
        _edit_annotation(work)
        cfg = AuditConfig.from_file(work / "fixture" / "config.json")
        cfg.out_dir = str(work / "out")
        pipeline.run_all(cfg)

    def test_snapshot_freed_after_its_last_reader(self, fixture_config,
                                                  monkeypatch):
        original = pipeline._STAGE_FUNCS["images"]
        held = []

        def images(run):
            held.append((run._snapshot, run._closure))
            return original(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "images", images)
        pipeline.run_all(fixture_config)
        assert pipeline._LAST_SNAPSHOT_READER == "mentions"
        assert held == [(None, None)]


# the stages each stage reads from, directly or through another stage
_UPSTREAM = {
    "lexicon": set(),
    "match": {"lexicon"},
    "classify": {"lexicon", "match"},
    "webhits": {"lexicon", "match", "classify"},
    "mentions": {"lexicon", "match", "classify"},
    "images": {"lexicon", "match", "classify"},
    "labor": {"lexicon"},
    "report": set(pipeline.STAGES) - {"report"},
}


def _tree_and_code_stamps(root: Path) -> dict:
    """``_tree(root)`` with the code stamps of ``out.stamps.json`` in place
    of its bytes: a run rewrites its digest table whenever it runs a
    stage."""
    tree = _tree(root)
    stamps = json.loads(tree.pop("out.stamps.json"))
    del stamps["digests"]
    return dict(tree, stamps=stamps)


class TestUpstreamCheck:
    """A single stage runs only on upstream stages whose recorded run still
    holds, and otherwise refuses, writing nothing."""

    def test_annotation_edit_refuses_report(self, work, capsys):
        _edit_annotation(work)
        before = _tree(work)
        capsys.readouterr()
        assert run_cli("report", "--config", work / "fixture" / "config.json",
                       "--out-dir", work / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: stage 'images' is stale (input annotations changed); "
            "run stage 'images' first"]
        assert _tree(work) == before

    def test_stale_stages_run_one_at_a_time(self, work):
        _edit_annotation(work)
        config = work / "fixture" / "config.json"
        for stage in ("images", "report"):
            assert run_cli(stage, "--config", config, "--out-dir",
                           work / "out") == 0
        assert run_cli("report", "--all", "--config", config, "--out-dir",
                       work / "cold") == 0
        assert _tree(work / "out") == _tree(work / "cold")

    @pytest.mark.parametrize("tampered", pipeline.STAGES)
    def test_tampered_stage_refused_by_its_descendants(self, work, stages_run,
                                                       tampered):
        cfg = AuditConfig.from_file(work / "fixture" / "config.json")
        cfg.out_dir = str(work / "out")
        name = min(_manifest(cfg, tampered)["outputs"])
        with open(work / "out" / tampered / name, "a",
                  encoding="utf-8") as fh:
            fh.write(" ")
        # the tampered stage last: running it mends its output
        for stage in sorted(pipeline.STAGES, key=lambda s: s == tampered):
            before = _tree_and_code_stamps(work)
            del stages_run[:]
            if tampered in _UPSTREAM[stage]:
                with pytest.raises(PipelineError) as raised:
                    pipeline.run_stage(stage, cfg)
                assert str(raised.value) == (
                    f"stage {tampered!r} is stale (output {name} changed); "
                    f"run stage {tampered!r} first")
                assert stages_run == []
            else:
                pipeline.run_stage(stage, cfg)
                assert stages_run == [stage]
            if stage != tampered:
                assert _tree_and_code_stamps(work) == before, stage


class TestBenchmarkHooks:
    """perfbench/child.py and perfbench/tracer.py patch these names."""

    def test_stage_functions_looked_up_at_call_time(self, fixture_config,
                                                    monkeypatch):
        original = pipeline._STAGE_FUNCS["lexicon"]
        seen = []

        def wrapper(run):
            seen.append(run)
            return original(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "lexicon", wrapper)
        # the first stage runs on every run, even when nothing changed
        pipeline.run_all(fixture_config)
        pipeline.run_all(fixture_config)
        assert len(seen) == 2
        assert set(pipeline._STAGE_FUNCS) == set(pipeline.STAGES)

    @staticmethod
    def _perfbench(name):
        """perfbench/<name>.py as it is, loaded by path; the tracer's
        wrappers are not installed."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        # a dataclass looks its module up while the module runs
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
        return module

    def test_tracer_names_resolve(self):
        tracer = self._perfbench("tracer")
        for module_name, attr, _ in tracer.SPANS + tracer.COUNTED:
            module = importlib.import_module("profaudit." + module_name)
            assert callable(getattr(module, attr, None)), \
                f"{module_name}.{attr}"
        for attr, _ in tracer.ARTIFACT_SPANS:
            assert callable(getattr(pipeline, attr, None)), attr
        assert callable(pipeline._STAGE_FUNCS[pipeline.STAGES[0]])
        assert tracer.STAGES == pipeline.STAGES

    def test_planted_answers_are_questionnaire_answers(self):
        # the workloads' crowd answers come from the one answer table
        gen = self._perfbench("gen")
        for category, pairs in gen._ANSWERS.items():
            for pair in pairs:
                assert images.ANSWERS[pair] is ImageCategory(category), pair

    def test_tracer_reads_arguments_by_position(self, data_dir,
                                                fixture_config, monkeypatch):
        # the tracer's observers read a[0] and a[1] of matcher.match, a[0]
        # of images.score_workers and a[1] of
        # mentions.extract_text_mentions
        tracer = self._perfbench("tracer")
        for module_name, attr, *_ in tracer.SPANS + tracer.COUNTED:
            module = importlib.import_module("profaudit." + module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))
        for attr, _ in tracer.ARTIFACT_SPANS:
            monkeypatch.setattr(pipeline, attr, getattr(pipeline, attr))
        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, fn)
        traced = tracer.Tracer()
        traced.install()
        pipeline.run_all(fixture_config)
        assert _tree(Path(fixture_config.out_dir)) == _tree(
            data_dir / "golden")
        # matcher.dp_calls is left out: nothing calls lev_distance
        for key in ("matcher.pairs", "matcher.candidates",
                    "mentions.text_chars", "images.responses",
                    "corpus.load_snapshot.records"):
            assert traced.counts[key] > 0, key

    def test_each_file_hashed_once_per_run(self, fixture_config,
                                           monkeypatch):
        hashed = []
        original = pipeline.sha256_file

        def counted(path):
            hashed.append(Path(path))
            return original(path)

        monkeypatch.setattr(pipeline, "sha256_file", counted)
        pipeline.run_all(fixture_config)
        assert hashed
        assert len(hashed) == len(set(hashed))

    @staticmethod
    def _events(monkeypatch) -> list[tuple[str, str]]:
        """("hash", path) per sha256_file call through pipeline and
        ("run", stage) per stage function call, in order."""
        events = []
        original = pipeline.sha256_file

        def counted(path):
            events.append(("hash", str(path)))
            return original(path)

        monkeypatch.setattr(pipeline, "sha256_file", counted)
        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            def wrapper(run, _stage=stage, _fn=fn):
                events.append(("run", _stage))
                return _fn(run)

            monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, wrapper)
        return events

    def test_skip_check_hashes_through_pipeline(self, fixture_config,
                                                monkeypatch):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        # a new modification time: the digest table no longer holds
        mentions_jsonl = out / "mentions" / "mentions.jsonl"
        st = mentions_jsonl.stat()
        os.utime(mentions_jsonl, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        events = self._events(monkeypatch)
        pipeline.run_all(fixture_config)
        assert ("run", "mentions") not in events
        assert ("hash", str(mentions_jsonl)) in events

    @pytest.mark.parametrize("edit", ["none", "annotation", "output"])
    def test_no_file_hashed_twice_unless_rewritten(self, work, monkeypatch,
                                                   edit):
        cfg = AuditConfig.from_file(work / "fixture" / "config.json")
        cfg.out_dir = str(work / "out")
        kappa = work / "out" / "images" / "kappa.json"
        if edit == "annotation":
            _edit_annotation(work)
        elif edit == "output":
            kappa.write_text("{}\n", encoding="utf-8")
        events = self._events(monkeypatch)
        pipeline.run_all(cfg)
        hashed: dict[str, int] = {}  # path -> index of its last hash
        for i, (kind, what) in enumerate(events):
            if kind == "hash":
                stage = Path(what).parent.name
                # a second hash needs a run of the file's stage in between
                assert what not in hashed or ("run", stage) in events[
                    hashed[what]:i], what
                hashed[what] = i
        # every manifest records the digests of the files now on disk
        for stage in pipeline.STAGES:
            manifest = json.loads((work / "out" / stage / "manifest.json")
                                  .read_text(encoding="utf-8"))
            for name, digest in manifest["outputs"].items():
                assert sha256_file(work / "out" / stage / name) == digest
        assert kappa.read_text(encoding="utf-8") != "{}\n"

    def test_artifact_writers_called_through_pipeline(self, fixture_config,
                                                      monkeypatch):
        calls = dict.fromkeys(("write_csv", "dump_json", "sha256_file"), 0)
        for name in calls:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        pipeline.run_all(fixture_config)
        assert all(calls.values()), calls


def _set_stamps_written(out_dir: Path, ns: int) -> None:
    """Set the modification time of the stamps file beside ``out_dir``."""
    os.utime(out_dir.parent / f"{out_dir.name}.stamps.json", ns=(ns, ns))


def _digest_table(out_dir: Path) -> dict:
    return json.loads((out_dir.parent / f"{out_dir.name}.stamps.json")
                      .read_text(encoding="utf-8"))["digests"]


def _ahead() -> int:
    """An hour from now: a stamps file written then postdates every file."""
    return time.time_ns() + 3600 * 10**9


class TestDigestTable:
    """A run takes a file's digest from the stamps file's table, without
    reading the file, when the file's size, modification time, inode-change
    time, inode and device are as recorded and its inode last changed
    before the stamps file was written. Each check sets the stamps file's
    modification time rather than waiting for the clock."""

    @staticmethod
    def _hashed(cfg: AuditConfig, monkeypatch) -> tuple[list, list]:
        """The files hashed and the stages run by one ``run_all``."""
        events = TestBenchmarkHooks._events(monkeypatch)
        pipeline.run_all(cfg)
        return ([what for kind, what in events if kind == "hash"],
                [what for kind, what in events if kind == "run"])

    @staticmethod
    def _config(work: Path) -> AuditConfig:
        """The config of ``work``, once the table records its files."""
        cfg = AuditConfig.from_file(work / "fixture" / "config.json")
        cfg.out_dir = str(work / "out")
        pipeline.run_all(cfg)
        return cfg

    def test_unchanged_files_are_not_read(self, fixture_config, monkeypatch):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        table = _digest_table(out)
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert ran == ["lexicon"]
        # the first stage rewrote its outputs and its manifest
        assert sorted(hashed) == sorted(
            str(p) for p in (out / "lexicon").iterdir())
        assert str(fixture_config.path("snapshot")) in table
        assert str(out / "mentions" / "mentions.jsonl") in table
        # the table holds the files this run digested, with their digests
        assert _digest_table(out) == {
            path: entry[:-1] + [sha256_file(path)]
            for path, entry in _digest_table(out).items()}
        assert set(_digest_table(out)) == set(table)

    def test_a_table_written_before_the_files_changed_is_not_trusted(
            self, fixture_config, monkeypatch):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        table = _digest_table(out)
        _set_stamps_written(out, 0)
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert ran == ["lexicon"]
        assert sorted(hashed) == sorted(table)

    def test_same_size_rewrite_with_its_old_mtime_reruns_its_stage(
            self, work, monkeypatch):
        cfg = self._config(work)
        path = work / "fixture" / "annotations.csv"
        before = path.stat()
        text = path.read_bytes()
        # two answers swapped: other bytes, the same size
        edited = text.replace(b"w1,Lehrer_Klasse.jpg,100,one_person,male\n",
                              b"w1,Lehrer_Klasse.jpg,100,one_person,female\n"
                              ).replace(
            b"w1,Hebamme_Geburt.jpg,103,one_person,female\n",
            b"w1,Hebamme_Geburt.jpg,103,one_person,male\n")
        assert edited != text and len(edited) == len(text)
        path.write_bytes(edited)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                      before.st_mtime_ns)
        assert after.st_ctime_ns != before.st_ctime_ns
        _set_stamps_written(work / "out", _ahead())
        hashed, ran = self._hashed(cfg, monkeypatch)
        assert str(path) in hashed
        assert "images" in ran

    def test_a_copy_with_a_new_inode_is_hashed_and_its_stage_skipped(
            self, work, monkeypatch):
        cfg = self._config(work)
        path = work / "fixture" / "annotations.csv"
        copy = path.with_name("copy.csv")
        shutil.copy2(path, copy)
        os.replace(copy, path)
        _set_stamps_written(work / "out", _ahead())
        hashed, ran = self._hashed(cfg, monkeypatch)
        assert hashed.count(str(path)) == 1
        assert ran == ["lexicon"]

    @pytest.mark.parametrize("field", range(5), ids=[
        "size", "mtime", "ctime", "inode", "device"])
    def test_each_stat_field_is_compared(self, fixture_config, monkeypatch,
                                         field):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        stamps_path = out.parent / "out.stamps.json"
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        snapshot = str(fixture_config.path("snapshot"))
        stamps["digests"][snapshot][field] += 1
        stamps_path.write_text(json.dumps(stamps), encoding="utf-8")
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert hashed.count(snapshot) == 1
        assert ran == ["lexicon"]

    @pytest.mark.parametrize("garble", [
        lambda entry: "x", lambda entry: entry[:-1],
        lambda entry: entry[:-1] + [0], lambda entry: {"digest": entry[-1]},
    ], ids=["string", "short", "digest_not_text", "object"])
    def test_a_garbled_entry_is_hashed_again(self, fixture_config,
                                             monkeypatch, garble):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        stamps_path = out.parent / "out.stamps.json"
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        snapshot = str(fixture_config.path("snapshot"))
        stamps["digests"][snapshot] = garble(stamps["digests"][snapshot])
        stamps_path.write_text(json.dumps(stamps), encoding="utf-8")
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert hashed.count(snapshot) == 1
        assert ran == ["lexicon"]
        assert _digest_table(out)[snapshot][-1] == sha256_file(snapshot)

    @pytest.mark.parametrize("table", ["[]", '"x"', "null"])
    def test_a_garbled_table_counts_as_empty(self, fixture_config,
                                             monkeypatch, table):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        stamps_path = out.parent / "out.stamps.json"
        text = stamps_path.read_text(encoding="utf-8")
        stamps = json.loads(text)
        recorded = stamps.pop("digests")
        stamps_path.write_text(json.dumps(stamps)[:-1] + ', "digests": '
                               + table + "}", encoding="utf-8")
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert ran == ["lexicon"]
        assert sorted(hashed) == sorted(recorded)

    def test_a_digested_file_leaves_the_table(self, fixture_config):
        pipeline.run_all(fixture_config)
        run = pipeline.Run(fixture_config)
        snapshot = fixture_config.path("snapshot")
        assert str(snapshot) in run._recorded
        run.digest(snapshot)
        assert str(snapshot) not in run._recorded

    def test_a_cold_run_records_only_its_own_files(self, fixture_config,
                                                   monkeypatch):
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        first = _digest_table(out)
        stamps_path = out.parent / "out.stamps.json"
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        gone = str(out / "lexicon" / "gone.csv")
        stamps["digests"][gone] = stamps["digests"][
            str(out / "lexicon" / "entries.jsonl")]
        stamps_path.write_text(json.dumps(stamps), encoding="utf-8")
        shutil.rmtree(out)
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(fixture_config, monkeypatch)
        assert ran == list(pipeline.STAGES)
        # the inputs' digests were reused, every output was hashed
        assert set(hashed) == {str(p) for p in out.rglob("*")
                               if str(p) in first}
        table = _digest_table(out)
        assert set(table) == set(first)
        assert all(entry[-1] == sha256_file(path)
                   for path, entry in table.items())

    @pytest.mark.parametrize("name", [None, "sha256"],
                             ids=["unnamed", "named"])
    def test_a_sha256_table_is_not_trusted(self, work, monkeypatch, name):
        """A table of SHA-256 digests, also 64 hex characters, that names
        no digest, as the versions that digested with SHA-256 wrote it, or
        names SHA-256. The run hashes every file again, and every manifest
        records ``sha256_file`` of its files."""
        cfg = self._config(work)
        out = work / "out"
        stamps_path = work / "out.stamps.json"
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        if name is None:
            del stamps["digest"]
        else:
            stamps["digest"] = name
        for path, entry in stamps["digests"].items():
            entry[-1] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        stamps_path.write_text(json.dumps(stamps), encoding="utf-8")
        _set_stamps_written(out, _ahead())
        hashed, ran = self._hashed(cfg, monkeypatch)
        assert sorted(hashed) == sorted(stamps["digests"])
        assert ran == ["lexicon"]
        for stage, decl in pipeline.DECLARATIONS.items():
            manifest = _manifest(cfg, stage)
            paths = {label: out / artifact
                     for label, artifact in decl.reads.items()}
            paths.update((key, cfg.path(key))
                         for key in decl.files + decl.optional
                         if cfg.path(key))
            assert manifest["inputs"] == {
                label: sha256_file(path) for label, path in paths.items()}
            assert manifest["outputs"] == {
                name: sha256_file(out / stage / name)
                for name in manifest["outputs"]}
