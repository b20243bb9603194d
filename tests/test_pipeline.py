import gc
import importlib.util
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from profaudit import pipeline, redirect_bias, stats
from profaudit.artifacts import sha256_file, write_jsonl
from profaudit.cli import main
from profaudit.config import AuditConfig
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


def test_audit_imports_neither_numpy_nor_fetcher(data_dir, tmp_path):
    # a fresh process, since this one has imported numpy for the oracles
    absent = ("numpy", "concurrent.futures", "urllib.request",
              "profaudit.mediawiki")
    code = ("import sys; from profaudit.cli import main; "
            f"rc = main(['report', '--all', '--config', "
            f"{str(data_dir / 'config.json')!r}, '--out-dir', "
            f"{str(tmp_path / 'out')!r}]); "
            f"print(rc, [m for m in {absent!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(
        Path(pipeline.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "report" / "bundle_manifest.json").exists()


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
            fit.coefficients[1] = coef
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
        load = pipeline.corpus.load_snapshot

        def load_snapshot(path):
            seen["enabled_in_load"] = gc.isenabled()
            return load(path)

        monkeypatch.setattr(pipeline.corpus, "load_snapshot", load_snapshot)
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
        # frozen from the first stage that reads the snapshot to the last
        assert [s for s in pipeline.STAGES if seen[s]] == [
            "match", "classify", "webhits", "mentions"]
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_run_stage(self, fixture_config, collector, seen):
        pipeline.run_all(fixture_config)
        seen.clear()
        pipeline.run_stage("mentions", fixture_config)
        assert seen["enabled_in_load"] is False and seen["mentions"] > 0
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_failed_load(self, data_dir, tmp_path, collector):
        work = tmp_path / "fixture"
        shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
            "golden", "out"))
        with open(work / "snapshot.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        cfg = AuditConfig.from_file(work / "config.json")
        cfg.out_dir = str(tmp_path / "out")
        with pytest.raises(pipeline.corpus.SnapshotError, match="line 26"):
            pipeline.run_all(cfg)
        assert gc.get_freeze_count() == 0 and gc.isenabled() is collector

    def test_leaves_a_callers_freeze_alone(self, fixture_config, collector,
                                           seen):
        gc.freeze()
        frozen = gc.get_freeze_count()
        pipeline.run_all(fixture_config)
        assert seen["match"] == frozen and gc.get_freeze_count() == frozen


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

        monkeypatch.setattr(pipeline.corpus, "load_snapshot", no_snapshot)
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
            original = getattr(pipeline.corpus, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline.corpus, name, counted)
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

        monkeypatch.setattr(pipeline.corpus, "load_snapshot", no_snapshot)
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
            before = _tree(work)
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
                assert _tree(work) == before, stage


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

    def test_tracer_names_resolve(self):
        # read perfbench/tracer.py as it is, without installing its wrappers
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                      path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module_name, attr, _ in tracer.SPANS + tracer.COUNTED:
            module = importlib.import_module("profaudit." + module_name)
            assert callable(getattr(module, attr, None)), \
                f"{module_name}.{attr}"
        for attr, _ in tracer.ARTIFACT_SPANS:
            assert callable(getattr(pipeline, attr, None)), attr
        assert callable(pipeline._STAGE_FUNCS[pipeline.STAGES[0]])
        assert tracer.STAGES == pipeline.STAGES

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
        events = self._events(monkeypatch)
        pipeline.run_all(fixture_config)
        out = Path(fixture_config.out_dir)
        assert ("run", "mentions") not in events
        assert ("hash", str(out / "mentions" / "mentions.jsonl")) in events

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
