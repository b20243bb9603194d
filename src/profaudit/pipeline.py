"""Stage orchestration: run the audit end-to-end on snapshot data and
leave a deterministic, manifest-covered artifact tree behind.

Each stage is declared once, in ``DECLARATIONS``: the config file keys it
requires, the ones it reads only when they are set, the upstream artifacts
it reads (label -> ``stage/file``) and the config constants its outputs
depend on. From that declaration the runner calls ``cfg.require()`` for
the file keys and, once the stage function returns, writes
``<out_dir>/<stage>/manifest.json`` with the seed, the constants and the
content hashes of every input and output; ``Run.digest`` hashes each file
at most once per run, for every manifest and the report's bundle.

A stage function takes one argument, the ``Run``. It holds the config and
the current stage's inputs by label; ``Run.rows`` reads the data rows of a
declared upstream CSV artifact, in the column order of the header at its
one ``write_csv`` call, and ``Run.out`` names an output. The snapshot and
its profession category closure are parsed lazily, at most once per
``run_all`` or ``run_stage``. The last stage that declares the snapshot file,
``mentions``, keeps only the pages it reads and frees the rest itself;
``run_all`` frees the snapshot after that stage too, for a run that skips
it.

A run loads only the code of the stages it runs. This module imports at
its top only the artifact writers, the config and the ``labels``; each
function imports the analysis modules it calls, and calls them through the
module (``matcher.match``), so a wrapper set on a module attribute still
takes effect. In ``run_all``, ``Run.snapshot`` also imports, before it
loads the snapshot, the modules of the stages that may run while the
snapshot is held: a module compiled after the load allocates above it and
raises the run's peak memory. A single stage imports its modules before it
reads the snapshot.

A stage's recorded run holds when its manifest records the stage name,
tool version, seed, constants and input digests this run would record,
every output it lists exists with the recorded digest, and its code stamp,
the SHA-256 of the package source and the manifest's bytes, matches (the
"verifying traces" of *Build systems à la carte*, Mokhov, Mitchell and
Peyton Jones, ICFP 2018); ``Run.check`` says why it does not. The stamps
live in ``<out_dir>.stamps.json``, beside the output directory, so a code
edit changes no artifact. The report declares every other stage's
manifest as an input, since its bundle records every file of the tree.

The stamps file also holds a digest table: for each file the run digested,
and no other, its size, modification time, inode-change time, inode,
device and SHA-256. ``Run.digest`` stats a file first, and takes the
recorded digest without reading the file when the table that the run read
at its start records the same five numbers and the file's inode last
changed before the stamps file was last written. Otherwise it hashes the
file. This is the stat check of Shake (Mitchell, "Shake before building",
ICFP 2012) with git's rule for "racily clean" files: a file rewritten in
the clock tick of the stamps write, after its stat, keeps all five
numbers, so a file whose inode changed that late is hashed again. The rule
needs POSIX ``st_ctime``, the inode-change time: every write sets it to
the current time, and so does every ``utime`` call, so a rewrite that
restores the old size and modification time still changes it. On other
systems ``st_ctime`` is the creation time, and no recorded digest is
trusted. A missing or garbled table or entry counts as empty.

``run_all`` skips a stage whose recorded run holds. Inputs are hashed after
the upstream stages ran or were skipped, so a stage reruns only when an
upstream artifact's bytes changed. The first stage always runs: it takes
milliseconds, and a tool that times a run marks its start by wrapping
``_STAGE_FUNCS[STAGES[0]]``. ``run_stage`` always runs its stage, but
first checks, in order, every stage it reads from directly or through
another stage, and refuses the first whose recorded run no longer holds,
naming it and why. So a stage reads only artifacts this code wrote, and
reads them without further checks. Both record the new code stamp. A stage
that runs first deletes the outputs its old manifest lists, so an output
it no longer writes does not linger.

Stages run in a fixed order. Reruns with identical inputs, configuration,
and seed are byte-identical, and a run that skips stages leaves the same
tree as a run into an empty directory. Monte Carlo seeds derive from the
run seed and a stable label per test, so adding a test never disturbs
another test's p-value. Seeds matter only for tables too large to
enumerate; a table small enough gets its exact p-value, whatever the seed.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import os
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

from . import __version__
from .artifacts import dump_json, sha256, sha256_file, write_csv, write_jsonl
from .config import AuditConfig
from .labels import BiasClass, BiasGroup, DominatedGroup, MajorityGroup

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    pass


# What one stage reads; the runner checks, hashes and records it. ``files``
# are the config file keys the stage requires, ``optional`` those it reads
# only when set, ``reads`` maps a label to an upstream artifact, and
# ``constants`` are the config values its outputs depend on.
Stage = namedtuple("Stage", "files optional reads constants",
                   defaults=((), (), {}, ()))


DECLARATIONS = {
    "lexicon": Stage(files=("professions",),
                     optional=("abbreviations", "manual_assignments")),
    "match": Stage(files=("snapshot",), optional=("match_decisions",),
                   reads={"entries": "lexicon/entries.jsonl"},
                   constants=("closure_depth", "d_max", "r_min")),
    "classify": Stage(files=("snapshot",),
                      reads={"entries": "lexicon/entries.jsonl",
                             "accepted": "match/accepted.csv"},
                      constants=("closure_depth",)),
    "webhits": Stage(files=("hits",), reads={
        "classifications": "classify/classifications.csv"}),
    "mentions": Stage(files=("snapshot", "gender_lexicon"),
                      optional=("birth_years",),
                      reads={"article_map": "classify/article_map.csv"},
                      constants=("birth_cutoff", "equality_band")),
    "images": Stage(files=("annotations", "gold_labels"),
                    reads={"article_map": "classify/article_map.csv",
                           "classifications": "classify/classifications.csv",
                           "image_refs": "classify/image_refs.csv"},
                    constants=("min_image_width", "worker_accuracy",
                               "min_judgments", "mc_iterations")),
    "labor": Stage(files=("labor_stats", "labor_classifier"),
                   reads={"entries": "lexicon/entries.jsonl"},
                   constants=("majority_threshold", "dominated_threshold")),
}
# the bundle records every file of every stage: each stage's manifest lists
# its outputs, constants and seed, so the report reads every manifest
DECLARATIONS["report"] = Stage(
    reads={"classifications": "classify/classifications.csv",
           "article_map": "classify/article_map.csv",
           "joined_labor": "labor/joined.csv",
           "ratios": "mentions/ratios.csv",
           "image_categories": "images/categories.csv",
           **{f"{stage}_manifest": f"{stage}/manifest.json"
              for stage in DECLARATIONS}},
    constants=("mc_iterations",))

STAGES = tuple(DECLARATIONS)
# the snapshot is freed once this stage has run or been skipped
_LAST_SNAPSHOT_READER = [stage for stage in STAGES
                         if "snapshot" in DECLARATIONS[stage].files][-1]

def source_fingerprint() -> str:
    """SHA-256 of the package source, file names included."""
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """One ``run_all`` or ``run_stage`` call, passed to every stage
    function: the config, the running stage's declared inputs (label ->
    path) and outputs, the snapshot and category closure, each parsed at
    most once, the digest of every file digested so far and the code
    stamps and digest table of the output directory. ``preload``, which
    ``run_all`` sets, loads the modules of every stage that may run while
    the snapshot is held before the snapshot loads.

    The snapshot is the run's largest structure and holds no reference
    cycles, so the cyclic collector can free none of it. It loads with the
    collector paused (the enabled state is restored after), and once it
    has loaded, ``gc.freeze()`` takes it, with everything else then
    tracked, out of the collector's sweeps, unless something is frozen
    already. ``drop_snapshot`` unfreezes. ``stage_mentions`` calls it
    before its first article, once it has taken the pages it reads;
    ``run_all`` calls it after ``_LAST_SNAPSHOT_READER`` has run or been
    skipped, and ``run_all`` and ``run_stage`` call it however they end, so
    no run leaves objects frozen."""

    def __init__(self, cfg: AuditConfig, preload: bool = False):
        cfg.validate_thresholds()
        self.cfg = cfg
        self.out_dir = cfg.path("out_dir")
        if self.out_dir is None:
            raise ValueError("config: 'out_dir' is not set")
        out = self.out_dir.resolve()
        self.stamps_path = out.parent / f"{out.name}.stamps.json"
        try:
            written = self.stamps_path.stat().st_mtime_ns
            stamps = json.loads(self.stamps_path.read_bytes())
        except (OSError, ValueError):
            written, stamps = 0, None
        # code stamps by stage and the digest table; a missing or
        # unreadable stamp file has neither
        self._stamps = stamps if isinstance(stamps, dict) else {}
        recorded = self._stamps.pop("digests", None)
        self._recorded = recorded if isinstance(recorded, dict) else {}
        self._trusted_before = written if os.name == "posix" else 0
        self._preload = preload
        self._fingerprint = source_fingerprint()
        self.stage = ""
        self.inputs: dict[str, Path] = {}
        self.outputs: list[Path] = []
        self._snapshot: corpus.CorpusSnapshot | None = None
        self._frozen = False
        self._closure: set[str] | None = None
        # path -> [size, mtime_ns, ctime_ns, inode, device, digest]
        self._digests: dict[Path, list] = {}

    @property
    def snapshot(self) -> corpus.CorpusSnapshot:
        if self._snapshot is None:
            from . import corpus
            if self._preload:
                # the modules of the stages run_all may run while the
                # snapshot is held load first: compiled after it, they
                # would allocate above it and raise the run's peak memory
                from . import mentions, redirect_bias, webhits  # noqa
            enabled = gc.isenabled()
            gc.disable()
            try:
                self._snapshot = corpus.load_snapshot(self.inputs["snapshot"])
            finally:
                if enabled:
                    gc.enable()
            if gc.get_freeze_count() == 0:
                gc.freeze()
                self._frozen = True
        return self._snapshot

    @property
    def closure(self) -> set[str]:
        """Categories under the profession roots, to ``closure_depth``."""
        if self._closure is None:
            from . import corpus
            self._closure = corpus.category_closure(
                corpus.PROFESSION_ROOTS, self.cfg.closure_depth, self.snapshot)
        return self._closure

    def drop_snapshot(self) -> None:
        """Free the snapshot and the closure; a later reader parses again."""
        if self._frozen:
            gc.unfreeze()
            self._frozen = False
        self._snapshot = self._closure = None

    def out(self, name: str) -> Path:
        """Path of an output of the running stage, recorded for its
        manifest."""
        path = self.out_dir / self.stage / name
        self.outputs.append(path)
        return path

    def digest(self, path: Path) -> str:
        """SHA-256 of a file, hashed at most once per run; sound because a
        stage writes only its own outputs, and the digests cached for its
        directory are dropped before it runs. A file the digest table
        records with its current stat, changed before the table was
        written, is not read at all."""
        if path not in self._digests:
            st = os.stat(path)
            key = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino,
                   st.st_dev]
            entry = self._recorded.get(str(path))
            if not (type(entry) is list and entry[:-1] == key
                    and type(entry[-1]) is str
                    and st.st_ctime_ns < self._trusted_before):
                entry = key + [sha256_file(path)]
            self._digests[path] = entry
        return self._digests[path][-1]

    def rows(self, label: str) -> list[list[str]]:
        """Data rows of the upstream CSV artifact the running stage declares
        under ``label``, as strings. Both entry points run a stage only on
        fresh upstream artifacts, which this code wrote, so callers unpack
        each row by the header at the artifact's ``write_csv`` call."""
        with open(self.inputs[label], encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # the header
            return list(reader)

    def check(self, stage: str, force: str | None
              ) -> tuple[dict, dict, tuple[bytes, dict] | None, str | None]:
        """The stage's inputs (label -> path), the head of the manifest
        this run would write, its recorded manifest, and why it must run:
        ``force``, else what differs from its recorded run, or None when
        that run still holds."""
        decl = DECLARATIONS[stage]
        inputs = {label: self.out_dir / artifact
                  for label, artifact in decl.reads.items()}
        keys = decl.files + tuple(k for k in decl.optional
                                  if self.cfg.path(k))
        inputs.update(zip(keys, self.cfg.require(*keys)))
        head = {
            "stage": stage,
            "tool_version": __version__,
            "seed": self.cfg.seed,
            "constants": {k: getattr(self.cfg, k) for k in decl.constants},
            "inputs": {label: self.digest(p)
                       for label, p in sorted(inputs.items())},
        }
        recorded = _read_manifest(self.out_dir / stage / "manifest.json")
        return (inputs, head, recorded,
                force or self._stale(stage, head, recorded))

    def execute(self, stage: str, force: str | None = None) -> list[Path]:
        """Run the stage, write its manifest and record its code stamp;
        returns its outputs, sorted. Unless ``force`` says why the stage
        must run, a stage whose recorded run still holds is skipped and
        its recorded outputs are returned."""
        stage_dir = self.out_dir / stage
        inputs, head, recorded, reason = self.check(stage, force)
        if reason is None:
            log.info("skipped stage %s (unchanged)", stage)
            return sorted(stage_dir / name for name in recorded[1]["outputs"])
        log.info("running stage %s: %s", stage, reason)
        # the recorded outputs go: a run into an empty directory has none
        # that this run does not write
        for name in recorded[1]["outputs"] if recorded else ():
            if Path(name).name == name:
                (stage_dir / name).unlink(missing_ok=True)
        self._digests = {p: d for p, d in self._digests.items()
                         if p.parent != stage_dir}
        self.stage, self.inputs, self.outputs = stage, inputs, []
        stage_dir.mkdir(parents=True, exist_ok=True)
        # looked up per call, so a wrapper installed after import runs
        _STAGE_FUNCS[stage](self)
        dump_json(dict(head, outputs={p.name: self.digest(p)
                                      for p in self.outputs}),
                  stage_dir / "manifest.json")
        self._stamps[stage] = self._stamp(
            (stage_dir / "manifest.json").read_bytes())
        self.save_stamps()
        return sorted(self.outputs)

    def save_stamps(self) -> None:
        """Write the code stamps and a digest table of every file this run
        digested; compact, so the C encoder writes it."""
        digests = {str(p): entry for p, entry in self._digests.items()}
        self.stamps_path.write_text(json.dumps(
            dict(self._stamps, digests=digests), sort_keys=True,
            separators=(",", ":")) + "\n", encoding="utf-8")

    def _stale(self, stage: str, head: dict,
               recorded: tuple[bytes, dict] | None) -> str | None:
        """Why the stage must run, naming the first thing that differs from
        its recorded run, or None when that run still holds."""
        if recorded is None:
            return "manifest missing or unreadable"
        raw, manifest = recorded
        for key, value in head.items():
            if _same(manifest.get(key), value):
                continue
            if isinstance(value, dict):
                name = next(k for k in (*value, *manifest[key])
                            if not _same(manifest[key].get(k), value.get(k)))
                what = "constant" if key == "constants" else "input"
                return f"{what} {name} changed"
            return f"{key} changed"
        if self._stamps.get(stage) != self._stamp(raw):
            return "code stamp differs"
        for name, digest in manifest["outputs"].items():
            path = self.out_dir / stage / name
            if not path.is_file():
                return f"output {name} missing"
            if self.digest(path) != digest:
                return f"output {name} changed"
        return None

    def _stamp(self, manifest: bytes) -> str:
        """Code stamp of a manifest's bytes."""
        return sha256(self._fingerprint.encode() + manifest).hexdigest()


def _same(recorded, value) -> bool:
    """Whether a manifest records ``value`` as this run would write it: a
    constant of 1 and one of 1.0, or one with more than six decimals
    (manifests round to six), differ."""
    return json.dumps(recorded, sort_keys=True) == json.dumps(value,
                                                              sort_keys=True)


def _read_manifest(path: Path) -> tuple[bytes, dict] | None:
    """Bytes and contents of a stage manifest; None when it is missing or
    not a manifest."""
    try:
        raw = path.read_bytes()
        manifest = json.loads(raw)
    except (OSError, ValueError):
        return None
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), dict)
                    for k in ("constants", "inputs", "outputs"))):
        return None
    return raw, manifest


def _entries(run: Run) -> list[lexicon.ProfessionEntry]:
    """The entries ``stage_lexicon`` wrote to ``entries.jsonl``."""
    from . import lexicon
    with open(run.inputs["entries"], encoding="utf-8") as fh:
        return [lexicon.ProfessionEntry(**dict(
                    record,
                    resolution=lexicon.Resolution(record["resolution"])))
                for record in map(json.loads, fh)]


def _bias_groups(run: Run) -> dict[str, BiasGroup]:
    """Bias group by profession id, from ``classifications.csv``."""
    return {pid: BiasGroup(group)
            for pid, _text, group in run.rows("classifications")}


def _write_dist(run: Run, dist: dict) -> None:
    """``dist_<grouping>.csv`` from an ``images.distributions`` result."""
    from . import images
    categories = [c.value for c in images.RESOLVED_CATEGORIES]
    write_csv(run.out(f"dist_{dist['grouping']}.csv"),
              ["group", "n", "unresolved"] + categories,
              [[g["group"], g["n"], g["unresolved"]] +
               [g["proportions"][c] for c in categories]
               for g in dist["groups"]])


# ---------------------------------------------------------------- lexicon

def stage_lexicon(run: Run) -> None:
    from . import lexicon
    abbrev = lexicon.load_abbreviations(run.inputs.get("abbreviations"))
    entries = lexicon.parse_file(run.inputs["professions"], abbrev)
    if "manual_assignments" in run.inputs:
        lexicon.load_manual_assignments(run.inputs["manual_assignments"],
                                        entries)
    write_jsonl(run.out("entries.jsonl"),
                (dict({k: getattr(e, k) for k in lexicon.ENTRY_FIELDS},
                      resolution=e.resolution.value) for e in entries))
    # unresolved lines, for the manual assignment round-trip
    write_csv(run.out("review.csv"), ["line_no", "text"],
              [[e.line_no, e.text] for e in entries
               if e.resolution is lexicon.Resolution.UNRESOLVED])
    dump_json(lexicon.summarize(entries), run.out("summary.json"))


# ------------------------------------------------------------------ match

def stage_match(run: Run) -> None:
    from . import corpus, matcher
    professions = [(e.id, role, title) for e in _entries(run)
                   for role, title in e.titles()]
    # validated profession articles: non-redirect pages inside the closure
    titles = corpus.profession_articles(run.snapshot, run.closure)
    candidates = matcher.match(professions, titles, run.cfg.d_max,
                               run.cfg.r_min)
    if "match_decisions" in run.inputs:
        matcher.apply_decisions(candidates, run.inputs["match_decisions"])

    write_csv(run.out("candidates.csv"),
              ["profession_id", "title_role", "profession_title",
               "article_title", "distance", "ratio", "status", "gender_group"],
              [[c.profession_id, c.title_role, c.profession_title,
                c.article_title, c.distance, c.ratio, c.status.value,
                c.gender_group] for c in candidates])
    write_csv(run.out("accepted.csv"),
              ["profession_id", "role", "article_title"],
              [[c.profession_id, c.gender_group or c.title_role,
                c.article_title] for c in matcher.accepted(candidates)])
    statuses = Counter(c.status for c in candidates)
    dump_json({
        "candidates": len(candidates),
        "exact": statuses[matcher.MatchStatus.EXACT],
        "confirmed": statuses[matcher.MatchStatus.CONFIRMED],
        "rejected": statuses[matcher.MatchStatus.REJECTED],
        "pending_fuzzy": statuses[matcher.MatchStatus.FUZZY],
        "closure_titles": len(titles),
    }, run.out("summary.json"))


# --------------------------------------------------------------- classify

def stage_classify(run: Run) -> None:
    from . import redirect_bias
    entries = {e.id: e for e in _entries(run)}
    # per profession: original entry titles plus confirmed alternates
    roles: dict[str, dict[str, list[str]]] = {}
    for e in entries.values():
        roles[e.id] = defaultdict(list)
        for role, title in e.titles():
            roles[e.id][role].append(title)
    for prof_id, role, article_title in run.rows("accepted"):
        if article_title not in roles[prof_id][role]:
            roles[prof_id][role].append(article_title)

    snapshot, closure = run.snapshot, run.closure
    presences: dict[str, dict[str, redirect_bias.PageState]] = {}
    classifications: dict[str, BiasGroup] = {}
    article_map: dict[str, tuple[str, str]] = {}
    for prof_id in sorted(roles):
        states = redirect_bias.build_presence(roles[prof_id], snapshot,
                                              closure)
        presences[prof_id] = states
        classifications[prof_id] = redirect_bias.classify(states)
        for role, state in states.items():
            if redirect_bias.is_article(state):
                if state.title in article_map:
                    log.warning("article %r claimed by %s and %s, keeping "
                                "the first", state.title,
                                article_map[state.title][0], prof_id)
                    continue
                article_map[state.title] = (prof_id, role)

    write_csv(run.out("classifications.csv"),
              ["profession_id", "source_text", "bias_group"],
              [[pid, entries[pid].text, group.value]
               for pid, group in classifications.items()])
    write_csv(run.out("article_map.csv"),
              ["article_title", "profession_id", "title_role"],
              [[title, pid, role]
               for title, (pid, role) in sorted(article_map.items())])
    # every image of a mapped article, unfiltered: min_image_width is a
    # constant of images
    write_csv(run.out("image_refs.csv"),
              ["article_title", "filename", "width", "media_format"],
              [[title, ref.filename, ref.width, ref.media_format]
               for title in sorted(article_map)
               for ref in snapshot.records[title].images])

    write_csv(run.out("presence.csv"),
              ["profession_id", "title_role", "title", "kind", "target",
               "target_kind", "about_profession"],
              [[pid, role, state.title, state.kind.value, state.target,
                state.target_kind and state.target_kind.value,
                state.about_profession]
               for pid, states in presences.items()
               for role, state in states.items()])

    summary = {}
    for name, rows in redirect_bias.tally(presences.values()).items():
        columns = redirect_bias.TABLES[name]
        write_csv(run.out(f"{name}.csv"), columns, rows)
        if name.startswith("table_"):
            summary[name] = {row[0]: dict(zip(columns[1:], row[1:]))
                             for row in rows}
    counts = Counter(classifications.values())
    summary["bias_groups"] = {g.value: counts[g] for g in BiasGroup}
    dump_json(summary, run.out("summary.json"))


# ---------------------------------------------------------------- webhits

def stage_webhits(run: Run) -> None:
    from . import webhits
    records = webhits.load_hits(run.inputs["hits"])
    groups = _bias_groups(run)
    diffs, excluded = webhits.compute_differences(records)

    write_csv(run.out("normalized_differences.csv"),
              ["profession_id", "normalized_difference", "bias_group"],
              [[pid, diffs[pid], groups[pid].value if pid in groups else ""]
               for pid in sorted(diffs)])
    report: dict = {"excluded_zero_total": excluded,
                    "n_input": len(records)}
    report.update(webhits.fit_bias_models(records, groups))
    dump_json(report, run.out("models.json"))


# --------------------------------------------------------------- mentions

def stage_mentions(run: Run) -> None:
    """Persons mentioned in each profession article.

    The stage reads only the mapped articles and the pages their outlinks
    name. It takes those into a small ``CorpusSnapshot`` and frees the
    run's snapshot before it loads the lexicon. Texts are read from the
    file (``CorpusSnapshot.texts``): first, in one pass, those of linked
    persons the birth-year index lacks, each dropped once parsed
    (``mentions.linked_birth_years``); then each article's, in its turn.

    Articles are handled one at a time, in the title order of
    ``article_map.csv``: each article's mentions are extracted, merged,
    given birth years and written, and only its counts and ratio rows are
    kept, so the stage never holds every mention at once. A text mention
    starts only at an anchor, a token that is the first word of a lexicon
    name (see ``mentions.extract_text_mentions``).

    ``mentions.jsonl`` holds every merged mention, one
    ``PersonMention.json_line()`` per line: byte for byte the
    ``json.dumps(..., ensure_ascii=False, sort_keys=True)`` form, whose
    reference is kept in ``tests/oracles.py`` with the list-based assembly
    of this stage. ``ratios.csv`` has the per-article male ratios over all
    mentions, then over those born after the cutoff; ``merge_report.json``
    the overlap of the two extraction routes and the birth filter's
    counts.
    """
    from . import corpus, mentions
    cfg = run.cfg
    articles = run.rows("article_map")
    records = run.snapshot.records
    pages = {}
    for title, _pid, _role in articles:
        record = pages[title] = records[title]
        pages.update((name, records[name]) for name in record.outlinks
                     if name in records)
    snapshot = corpus.CorpusSnapshot(pages, {}, run.snapshot.source)
    del records  # drop_snapshot frees the snapshot only if nothing holds it
    run.drop_snapshot()

    gender_lexicon = mentions.load_gender_lexicon(run.inputs["gender_lexicon"])
    firsts = mentions.first_words(gender_lexicon)
    years = mentions.linked_birth_years(
        (pages[title] for title, _pid, _role in articles), snapshot,
        mentions.load_birth_years(run.inputs["birth_years"])
        if "birth_years" in run.inputs else {})
    total = mentions.merge([], [])[1]  # every count 0
    skipped_outlinks = n_merged = kept = unknown = too_old = 0
    ratio_rows = {"all": [], "born_after_cutoff": []}
    with open(run.out("mentions.jsonl"), "w", encoding="utf-8") as fh:
        for title, _pid, _role in articles:
            [(record, text)] = snapshot.texts([pages[title]])
            link_ms, skipped = mentions.extract_link_mentions(record, snapshot)
            text_ms = mentions.extract_text_mentions(
                title, text, gender_lexicon, firsts)
            merged, report = mentions.merge(link_ms, text_ms)
            for key, value in report.items():
                total[key] += value
            skipped_outlinks += skipped
            mentions.annotate_birth_years(merged, years)
            filtered, no_year, old = mentions.filter_by_birth(
                merged, cfg.birth_cutoff)
            fh.writelines(m.json_line() for m in merged)
            n_merged += len(merged)
            kept += len(filtered)
            unknown += no_year
            too_old += old
            for variant, subset in (("all", merged),
                                    ("born_after_cutoff", filtered)):
                genders = [m.gender for m in subset]
                men = genders.count(mentions.Gender.M)
                women = genders.count(mentions.Gender.F)
                if men + women:
                    ratio, cls = mentions.male_ratio_and_class(
                        men, women, cfg.equality_band)
                    ratio_rows[variant].append(
                        [variant, title, men, women, ratio, cls.value])

    write_csv(run.out("ratios.csv"),
              ["variant", "article_title", "n_men", "n_women", "male_ratio",
               "bias_class"],
              ratio_rows["all"] + ratio_rows["born_after_cutoff"])
    dump_json(dict(
        total, disagreement_rate=mentions.disagreement_rate(total),
        skipped_outlinks=skipped_outlinks, n_merged=n_merged,
        n_men=sum(row[2] for row in ratio_rows["all"]),
        n_women=sum(row[3] for row in ratio_rows["all"]),
        birth_filter={
            "cutoff": cfg.birth_cutoff, "kept": kept,
            "dropped_unknown_year": unknown,
            "dropped_at_or_before_cutoff": too_old,
        }), run.out("merge_report.json"))


# ----------------------------------------------------------------- images

def stage_images(run: Run) -> None:
    from . import images
    cfg = run.cfg
    article_map = {title: (pid, role)
                   for title, pid, role in run.rows("article_map")}
    groups = _bias_groups(run)

    eligible: dict[str, list[str]] = defaultdict(list)  # image -> articles
    shown: set[str] = set()  # every image on a mapped article
    for title, filename, width, media_format in run.rows("image_refs"):
        shown.add(filename)
        if images.eligible(int(width), media_format, cfg.min_image_width):
            eligible[filename].append(title)

    # responses to images the width/format filter excluded leave the
    # analysis; responses to images on no mapped article stay an error
    responses = [r for r in images.load_responses(run.inputs["annotations"])
                 if r.image_id in eligible or r.image_id not in shown]
    gold = images.load_gold_labels(run.inputs["gold_labels"])
    workers, retained = images.score_workers(
        responses, gold, set(eligible), cfg.worker_accuracy)
    categories = images.aggregate_all(retained, cfg.min_judgments)
    try:
        kappa_out = images.kappa_from_responses(retained)
    except ValueError as exc:
        kappa_out = {"error": str(exc)}

    header = ["worker_id", "gold_answered", "gold_correct", "accuracy",
              "active"]
    write_csv(run.out("workers.csv"), header,
              [[w[k] for k in header] for w in workers])

    category_rows = []
    for image in sorted(eligible):
        category = categories.get(image, images.ImageCategory.UNRESOLVED)
        for article in eligible[image]:
            prof_id, role = article_map[article]
            category_rows.append([image, article, prof_id, role,
                                  groups[prof_id].value, category.value])
    write_csv(run.out("categories.csv"),
              ["image_id", "article_title", "profession_id", "title_role",
               "bias_group", "category"], category_rows)
    dump_json(kappa_out, run.out("kappa.json"))

    dist_report = {}
    for grouping, key_index in (("overall", None), ("title_gender", 3),
                                ("redirect_bias", 4)):
        items = [("all" if key_index is None else row[key_index],
                  images.ImageCategory(row[5])) for row in category_rows]
        dist_report[grouping] = dist = images.distributions(
            items, grouping, cfg.mc_iterations, cfg.seed)
        _write_dist(run, dist)
    dump_json(dist_report, run.out("distributions.json"))


# ------------------------------------------------------------------ labor

def stage_labor(run: Run) -> None:
    from . import labor
    labor_stats = labor.load_stats(run.inputs["labor_stats"])
    classifier = labor.load_classifier(run.inputs["labor_classifier"])
    professions = [(e.id, [t for _, t in e.titles()]) for e in _entries(run)
                   if e.titles()]
    assignments, unmatched = labor.assign(professions, classifier, labor_stats)
    joined = labor.join(assignments, labor_stats, run.cfg.majority_threshold,
                        run.cfg.dominated_threshold)

    write_csv(run.out("joined.csv"),
              ["profession_id", "kldb_code", "match_kind", "n_men", "n_women",
               "pct_women", "majority", "dominated"],
              [[r.profession_id, r.kldb_code, r.match_kind.value, r.n_men,
                r.n_women, r.pct_women, r.majority.value, r.dominated.value]
               for r in sorted(joined, key=lambda r: r.profession_id)])
    write_csv(run.out("unmatched.csv"), ["profession_id"],
              [[pid] for pid in sorted(unmatched)])
    dump_json({"matched": len(joined), "unmatched": len(unmatched)},
              run.out("summary.json"))


# ----------------------------------------------------------------- report

# the evidence-bearing bias groups, pairwise, for the rank-sum suites over
# labor percentages (figure 8) and mention ratios
_BIAS_PAIRS = tuple((a.value, b.value) for a, b in (
    (BiasGroup.MALE_BIAS, BiasGroup.FEMALE_BIAS),
    (BiasGroup.MALE_BIAS, BiasGroup.NEUTRAL),
    (BiasGroup.NEUTRAL, BiasGroup.FEMALE_BIAS)))


def _ranksum_pairs(samples: dict[str, list[float]], pairs,
                   correction: str) -> dict:
    """Pairwise Wilcoxon tests with a family-wise correction summary."""
    from . import stats
    tests = []
    for a, b in pairs:
        xa, xb = samples.get(a, []), samples.get(b, [])
        if not xa or not xb:
            tests.append({"groups": [a, b], "skipped":
                          "empty group", "n": [len(xa), len(xb)]})
            continue
        tests.append({"groups": [a, b],
                      "test": stats.wilcoxon_rank_sum(xa, xb)})
    performed = [t for t in tests if "test" in t]
    summary: dict = {"tests": tests, "correction": correction}
    if correction == "bonferroni" and performed:
        alpha = stats.bonferroni(stats.ALPHA, len(performed))
        summary["alpha"] = stats.ALPHA
        summary["adjusted_alpha"] = alpha
        for t in performed:
            t["significant"] = t["test"]["p"] < alpha
    elif correction == "bh_two_stage" and performed:
        stats.mark_bh_two_stage(performed, q=stats.ALPHA)
        summary["q"] = stats.ALPHA
    return summary


def _samples(rows: list[dict], key: str) -> dict[str, list[float]]:
    """Male ratios of ``rows`` grouped by ``row[key]``."""
    out: dict[str, list[float]] = defaultdict(list)
    for row in rows:
        out[row[key]].append(row["male_ratio"])
    return out


def _write_correlations(run: Run, name: str, points: list[dict],
                        pairs) -> None:
    """Spearman correlation of each feature pair over ``points``."""
    from . import stats
    rows = []
    for feat_a, feat_b in pairs:
        xs, ys = [], []
        for p in points:
            if p.get(feat_a) is None or p.get(feat_b) is None:
                continue
            xs.append(p[feat_a])
            ys.append(p[feat_b])
        try:
            value = stats.spearman(xs, ys)
            rows.append([feat_a, feat_b, len(xs), value, ""])
        except ValueError as exc:
            rows.append([feat_a, feat_b, len(xs), None, str(exc)])
    write_csv(run.out(name), ["feature_1", "feature_2", "n", "spearman",
                              "note"], rows)


IMAGE_CORRELATION_PAIRS = [
    ("n_images_women", "n_women_labor"),
    ("n_images_men", "n_men_labor"),
    ("pct_images_men", "pct_men_labor"),
    ("pct_images_men", "pct_women_labor"),
    ("pct_images_women", "pct_women_labor"),
    ("pct_images_women", "pct_men_labor"),
    ("n_images_women", "pct_women_labor"),
    ("n_images_women", "n_people_labor"),
    ("n_images_women", "n_men_labor"),
    ("n_images_men", "pct_men_labor"),
    ("n_images_men", "n_people_labor"),
    ("n_images_men", "n_women_labor"),
    ("pct_images_men", "n_people_labor"),
    ("pct_images_women", "n_people_labor"),
    ("pct_images_women", "n_women_labor"),
    ("pct_images_women", "n_men_labor"),
]

MENTION_CORRELATION_PAIRS = [
    ("pct_mentioned_women", "pct_women_labor"),
    ("pct_mentioned_men", "pct_men_labor"),
    ("n_mentioned_men", "n_men_labor"),
    ("n_mentioned_men", "n_women_labor"),
    ("n_mentioned_men", "n_people_labor"),
    ("n_mentioned_women", "n_men_labor"),
    ("n_mentioned_women", "n_women_labor"),
    ("n_mentioned_women", "n_people_labor"),
    ("n_mentioned_persons", "n_men_labor"),
    ("n_mentioned_persons", "n_women_labor"),
    ("n_mentioned_persons", "n_people_labor"),
    ("n_mentioned_women", "pct_women_labor"),
    ("n_mentioned_men", "pct_men_labor"),
    ("pct_mentioned_women", "n_women_labor"),
]

MENTION_FILTER_CORRELATION_PAIRS = MENTION_CORRELATION_PAIRS[:5]


def stage_report(run: Run) -> None:
    from . import images, stats
    cfg = run.cfg
    groups = _bias_groups(run)
    # labor-market row per profession, keyed by correlation feature name
    labor_rows = {pid: {"n_men_labor": int(men), "n_women_labor": int(women),
                        "n_people_labor": int(men) + int(women),
                        "pct_women_labor": float(pct),
                        "pct_men_labor": 1.0 - float(pct),
                        "labor_majority": majority,
                        "labor_dominated": dominated}
                  for pid, _code, _kind, men, women, pct, majority, dominated
                  in run.rows("joined_labor")}
    # each mapped article joined once to its profession, title role, bias
    # group and labor row
    articles = {}
    for title, pid, role in run.rows("article_map"):
        labor_row = labor_rows.get(pid)
        articles[title] = {
            "profession_id": pid, "title_role": role,
            "bias_group": groups[pid].value,
            "labor_majority": labor_row["labor_majority"] if labor_row else "",
            "labor": labor_row}
    ratios = [dict(articles[title], variant=variant,
                   article_title=title, n_men=int(men), n_women=int(women),
                   male_ratio=float(ratio), bias_class=BiasClass(cls).value)
              for variant, title, men, women, ratio, cls
              in run.rows("ratios")]
    by_variant = {variant: [r for r in ratios if r["variant"] == variant]
                  for variant in ("all", "born_after_cutoff")}
    images_of: dict[str, list[str]] = defaultdict(list)  # article -> categories
    for _image, title, _pid, _role, _group, category in run.rows(
            "image_categories"):
        images_of[title].append(category)
    # (labor row, image categories) per article with a labor row
    labor_images = [(articles[title]["labor"], images_of[title])
                    for title in sorted(images_of)]
    labor_images = [(row, cats) for row, cats in labor_images if row]

    # labor percentage by bias group (figure 8 data) and the rank-sum /
    # regression suite over it
    fig8_rows = [[pid, groups[pid].value,
                  labor_rows[pid]["pct_women_labor"]]
                 for pid in sorted(labor_rows)]
    write_csv(run.out("figure8_labor_by_bias.csv"),
              ["profession_id", "bias_group", "pct_women"], fig8_rows)
    labor_by_group: dict[str, list[float]] = defaultdict(list)
    for _pid, group, pct in fig8_rows:
        labor_by_group[group].append(pct)
    labor_tests = _ranksum_pairs(labor_by_group, _BIAS_PAIRS, "bonferroni")

    # logistic model: female bias from the percentage of employed women
    rows = [(pct * 100.0, float(group == BiasGroup.FEMALE_BIAS.value))
            for _pid, group, pct in fig8_rows
            if group != BiasGroup.NO_EVIDENCE.value]
    model_out: dict = {"n": len(rows)}
    try:
        fit = stats.logistic_fit([[1.0, x] for x, _ in rows],
                                 [y for _, y in rows])
    except ValueError as exc:  # no or too few rows, one class, singular
        model_out["skipped"] = str(exc)
    else:
        model_out.update(stats.model_report(
            fit, "female_bias", ("intercept", "pct_women")))
    dump_json({"rank_sum": labor_tests, "regression": model_out},
              run.out("labor_tests.json"))

    # image distributions grouped by labor market composition
    image_labor_report = {}
    for grouping in ("labor_majority", "labor_dominated"):
        items = [(row[grouping], images.ImageCategory(c))
                 for row, cats in labor_images
                 if row[grouping] not in (MajorityGroup.NONE,
                                          DominatedGroup.NONE)
                 for c in cats]
        if not items:
            image_labor_report[grouping] = {"skipped": "no joined images"}
            continue
        image_labor_report[grouping] = dist = images.distributions(
            items, grouping, cfg.mc_iterations, cfg.seed)
        _write_dist(run, dist)
    dump_json(image_labor_report, run.out("image_labor_distributions.json"))

    # mention ratios with every grouping attached (figures 14-17 data)
    header = ["variant", "article_title", "profession_id", "title_role",
              "bias_group", "labor_majority", "n_men", "n_women",
              "male_ratio", "bias_class"]
    write_csv(run.out("mention_ratios_grouped.csv"), header,
              [[r[k] for k in header] for r in ratios])

    # share of article bias classes, overall and birth-filtered, and the
    # rank-sum suites over mention ratios
    class_shares = {}
    for variant, subset in by_variant.items():
        n = len(subset)
        share = {c.value: (sum(1 for r in subset if r["bias_class"] == c.value)
                           / n if n else 0.0)
                 for c in BiasClass}
        class_shares[variant] = {"n_articles": n, "shares": share}
    all_ratios = by_variant["all"]
    dump_json({
        "title_gender": _ranksum_pairs(
            _samples(all_ratios, "title_role"),
            [("male", "female"), ("male", "neutral"), ("neutral", "female")],
            "bh_two_stage"),
        "redirect_bias": _ranksum_pairs(
            _samples(all_ratios, "bias_group"), _BIAS_PAIRS, "bh_two_stage"),
        "labor_majority": _ranksum_pairs(
            _samples(all_ratios, "labor_majority"),
            [("male_majority", "female_majority")], "none"),
        "all_vs_born_after_cutoff": _ranksum_pairs(
            _samples(ratios, "variant"), [("all", "born_after_cutoff")],
            "none"),
        "class_shares": class_shares,
    }, run.out("mention_tests.json"))

    # correlation tables against the labor market
    image_points = []
    for labor_row, cats in labor_images:
        cats = [c for c in cats if c != images.ImageCategory.UNRESOLVED.value]
        n_men = cats.count(images.ImageCategory.MEN.value)
        n_women = cats.count(images.ImageCategory.WOMEN.value)
        point = dict(labor_row, n_images_men=n_men, n_images_women=n_women)
        if cats:
            point["pct_images_men"] = n_men / len(cats)
            point["pct_images_women"] = n_women / len(cats)
        image_points.append(point)
    _write_correlations(run, "correlations_images.csv", image_points,
                        IMAGE_CORRELATION_PAIRS)
    for variant, name, pairs in (
            ("all", "correlations_mentions.csv", MENTION_CORRELATION_PAIRS),
            ("born_after_cutoff",
             "correlations_mentions_born_after_cutoff.csv",
             MENTION_FILTER_CORRELATION_PAIRS)):
        points = []
        for r in by_variant[variant]:
            if r["labor"] is None:
                continue
            total = r["n_men"] + r["n_women"]
            points.append(dict(
                r["labor"], n_mentioned_men=r["n_men"],
                n_mentioned_women=r["n_women"], n_mentioned_persons=total,
                pct_mentioned_men=r["n_men"] / total,
                pct_mentioned_women=r["n_women"] / total))
        _write_correlations(run, name, points, pairs)

    # bundle manifest over every artifact of the run; the report stage's
    # own manifests stay out so reruns into the same directory are
    # byte-identical
    bundle: dict[str, str] = {}
    for stage in STAGES:
        stage_path = run.out_dir / stage
        if not stage_path.is_dir():
            continue
        for p in sorted(stage_path.iterdir()):
            if stage == "report" and p.name in ("manifest.json",
                                                "bundle_manifest.json"):
                continue
            if p.is_file():
                bundle[f"{stage}/{p.name}"] = run.digest(p)
    dump_json({"tool_version": __version__, "seed": cfg.seed,
               "config": {k: v for k, v in cfg.to_dict().items()
                          if k not in AuditConfig._PATH_KEYS},
               "outputs": bundle}, run.out("bundle_manifest.json"))


_STAGE_FUNCS = {
    "lexicon": stage_lexicon,
    "match": stage_match,
    "classify": stage_classify,
    "webhits": stage_webhits,
    "mentions": stage_mentions,
    "images": stage_images,
    "labor": stage_labor,
    "report": stage_report,
}


def _upstream(stage: str) -> set[str]:
    """Every stage whose outputs ``stage`` reads, directly or through
    another stage."""
    direct = {artifact.split("/")[0]
              for artifact in DECLARATIONS[stage].reads.values()}
    return direct.union(*map(_upstream, direct))


def run_stage(stage: str, cfg: AuditConfig) -> list[Path]:
    """Run one stage, whatever its recorded run; returns its outputs. Fails
    naming the first upstream stage whose recorded run no longer holds."""
    if stage not in _STAGE_FUNCS:
        raise PipelineError(f"unknown stage {stage!r}; expected one of "
                            f"{', '.join(STAGES)}")
    run = Run(cfg)
    upstream = _upstream(stage)
    for before in (s for s in STAGES if s in upstream):
        reason = run.check(before, None)[-1]
        if reason is not None:
            raise PipelineError(f"stage {before!r} is stale ({reason}); "
                                f"run stage {before!r} first")
    try:
        return run.execute(stage, force="requested on its own")
    finally:
        run.drop_snapshot()


def run_all(cfg: AuditConfig) -> list[Path]:
    """Run every stage in order, skipping those whose recorded run still
    holds; returns every stage's outputs."""
    run = Run(cfg, preload=True)
    outputs = []
    try:
        for stage in STAGES:
            force = ("the first stage always runs" if stage == STAGES[0]
                     else None)
            outputs += run.execute(stage, force)
            if stage == _LAST_SNAPSHOT_READER:
                run.drop_snapshot()
        # the stages skipped after the last one that ran digested files too
        if run.stage != STAGES[-1]:
            run.save_stamps()
    finally:
        run.drop_snapshot()
    return outputs
