import json
import logging
import math
import shutil
from pathlib import Path

import pytest

from profaudit import pipeline, stats
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

    def test_min_image_width_takes_effect(self, fixture_config):
        fixture_config.min_image_width = 10**9
        pipeline.run_all(fixture_config)
        categories = (Path(fixture_config.out_dir) / "images" /
                      "categories.csv").read_text(encoding="utf-8")
        assert categories.splitlines() == [
            "image_id,article_title,profession_id,title_role,bias_group,"
            "category"]


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

    def test_seed_override_changes_mc_results(self, data_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_a)
        run_cli("report", "--all", "--config", data_dir / "config.json",
                "--out-dir", out_b, "--seed", 99)
        dist_a = (out_a / "images" / "distributions.json").read_bytes()
        dist_b = (out_b / "images" / "distributions.json").read_bytes()
        assert dist_a != dist_b

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

    @pytest.mark.parametrize("stage", ["mentions", "images"])
    def test_stale_snapshot_names_classify(self, data_dir, tmp_path, capsys,
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
        err = capsys.readouterr().err
        assert "Biologin" in err and "classify" in err


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
        with pytest.raises(PipelineError,
                           match=r"match/accepted\.csv.*rerun stage 'match'"):
            pipeline.run_stage("classify", fixture_config)

    def test_entries_with_foreign_keys_rejected(self, fixture_config):
        pipeline.run_stage("lexicon", fixture_config)
        entries = Path(fixture_config.out_dir) / "lexicon" / "entries.jsonl"
        entries.write_text('{"id": "L0001", "title": "Lehrer"}\n',
                           encoding="utf-8")
        with pytest.raises(PipelineError, match=r"lexicon/entries\.jsonl"):
            pipeline.run_stage("labor", fixture_config)


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
        pipeline.run_all(fixture_config)
        assert len(seen) == 1
        assert set(pipeline._STAGE_FUNCS) == set(pipeline.STAGES)

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
