import json
import shutil
from pathlib import Path

import pytest

from profaudit import pipeline
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
