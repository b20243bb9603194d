"""Metamorphic relations: edits to the inputs that must leave the audit's
results as they were. None needs a ground truth; each compares a run on
edited inputs with the run on the original ones.

Relations that mirror the results, rather than keep them, are in
``test_pipeline.TestGenderSwap`` and ``test_redirect_bias``.
"""

import json
import os
import random
import shutil
import time
from pathlib import Path

import pytest

from profaudit import pipeline
from profaudit import redirect_bias as rb
from profaudit.cli import main
from profaudit.corpus import ArticleRecord, build_snapshot, category_closure
from profaudit.labels import BiasGroup

# the inputs whose data rows may come in any order: every CSV input and the
# snapshot; the line order of professions.txt numbers the professions
UNORDERED = ("annotations.csv", "birth_years.csv", "gender_lexicon.csv",
             "gold_labels.csv", "hits.csv", "labor_classifier.csv",
             "labor_stats.csv", "manual_assignments.csv",
             "match_decisions.csv", "snapshot.jsonl")


def copy_fixture(data_dir: Path, root: Path) -> Path:
    """A copy of the fixture inputs, ``root/fixture``."""
    work = root / "fixture"
    shutil.copytree(data_dir, work, ignore=shutil.ignore_patterns(
        "golden", "out"))
    return work


def run_edited(data_dir: Path, root: Path, edit) -> dict[str, bytes]:
    """The artifacts of ``report --all`` on a copy of the fixture that
    ``edit(copy)`` changed in place, by path, without the manifests: they
    record the digests of the edited inputs."""
    work = copy_fixture(data_dir, root)
    edit(work)
    out = root / "out"
    assert main(["report", "--all", "--config", str(work / "config.json"),
                 "--out-dir", str(out)]) == 0
    return artifacts(out)


def artifacts(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
            and p.name not in ("manifest.json", "bundle_manifest.json")}


def shuffle_rows(work: Path) -> None:
    rng = random.Random(15)
    for name in UNORDERED:
        lines = (work / name).read_text(encoding="utf-8").splitlines(True)
        header = [] if name.endswith(".jsonl") else lines[:1]
        rows = lines[len(header):]
        rng.shuffle(rows)
        (work / name).write_text("".join(header + rows), encoding="utf-8")


def add_unreached_page(work: Path) -> None:
    # outside the closure, linked from no article, the target of no redirect
    page = {"categories": ["Dekoration"], "exists": True, "images": [],
            "outlinks": [], "plain_text": "Ein Gartenzwerg steht im Garten.",
            "redirect_target": None, "title": "Gartenzwerg"}
    with open(work / "snapshot.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(page, ensure_ascii=False) + "\n")


@pytest.mark.parametrize("edit", [shuffle_rows, add_unreached_page],
                         ids=["row_order", "unreached_page"])
def test_results_equal_golden(data_dir, tmp_path, edit):
    assert run_edited(data_dir, tmp_path, edit) == artifacts(
        data_dir / "golden")


@pytest.mark.parametrize("after", [True, False], ids=["after", "before"])
def test_a_repeated_title_fails_in_either_order(data_dir, tmp_path, capsys,
                                                after):
    """A second page titled ``Biologin``, placed after the fixture's or
    before it, fails the run with the same message, naming both lines."""
    work = copy_fixture(data_dir, tmp_path)
    path = work / "snapshot.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    [at] = [i for i, line in enumerate(lines)
            if json.loads(line)["title"] == "Biologin"]
    copy = {"categories": ["Sonstiges"], "exists": True, "images": [],
            "outlinks": [], "plain_text": "Eine Biologin.",
            "redirect_target": None, "title": "Biologin"}
    lines.insert(at + after, json.dumps(copy, ensure_ascii=False) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--all", "--config", str(work / "config.json"),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: snapshot line {at + 2}: duplicate title 'Biologin' "
        f"(first on line {at + 1})\n")


def test_touched_files_change_nothing(data_dir, tmp_path, monkeypatch):
    """Touching every input and output, without changing a byte, leaves
    the tree, manifests included, equal to ``golden/``, and no stage runs
    but the first: the new stats make the run hash each file again, and
    it finds the digests it recorded."""
    work = copy_fixture(data_dir, tmp_path)
    out = tmp_path / "out"
    args = ["report", "--all", "--config", str(work / "config.json"),
            "--out-dir", str(out)]
    assert main(args) == 0
    for path in [*work.iterdir(), *out.rglob("*")]:
        if path.is_file():
            st = path.stat()
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    # a stamps file written after every touch: only the stats tell
    ahead = time.time_ns() + 60 * 10**9
    os.utime(tmp_path / "out.stamps.json", ns=(ahead, ahead))
    ran = []
    for stage, fn in list(pipeline._STAGE_FUNCS.items()):
        def wrapper(run, _stage=stage, _fn=fn):
            ran.append(_stage)
            return _fn(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, wrapper)
    assert main(args) == 0
    assert ran == [pipeline.STAGES[0]]
    golden = data_dir / "golden"
    assert ({str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
            == {str(p.relative_to(golden)): p.read_bytes()
                for p in sorted(golden.rglob("*")) if p.is_file()})


class TestAliasInvariance:
    """Adding an alias, a redirect to another title of the same role,
    changes no page state and so no bias group. Without it, the role in
    question has an article outside the closure and a redirect to a
    neutral article; the other role has a validated article (rule 3)."""

    @pytest.mark.parametrize("role, other, titles, alias", [
        ("male", "female", ["Lehrer", "Lehrmann"], "Lehrer (Beruf)"),
        ("female", "male", ["Lehrerin", "Lehrfrau"], "Lehrerin (Beruf)"),
    ])
    def test_alias_changes_no_group(self, role, other, titles, alias):
        article, to_neutral = titles
        snap = build_snapshot({r.title: r for r in (
            ArticleRecord(article, categories={"Schule"}, plain_text="A"),
            ArticleRecord(to_neutral, redirect_target="Lehrkraft"),
            ArticleRecord("Lehrkraft", categories={"Beruf"}, plain_text="N"),
            ArticleRecord("Validiert", categories={"Beruf"}, plain_text="V"),
            ArticleRecord(alias, redirect_target=article))})
        closure = category_closure(["Beruf"], 5, snap)
        before = {role: titles, other: ["Validiert"]}
        after = {role: titles + [alias], other: ["Validiert"]}
        states = rb.build_presence(before, snap, closure)
        assert states[role].title == to_neutral
        assert rb.classify(states) is BiasGroup.NEUTRAL
        assert rb.build_presence(after, snap, closure) == states
