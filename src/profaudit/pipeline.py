"""Stage orchestration: run the audit end-to-end on snapshot data and
leave a deterministic, manifest-covered artifact tree behind.

Stages run in a fixed order, each writing its outputs plus a manifest of
input and output content hashes under ``<out_dir>/<stage>/``. Reruns with
identical inputs, configuration, and seed are byte-identical. Monte Carlo
seeds derive from the run seed and a stable label per test, so adding a
test never disturbs another test's p-value.
"""

from __future__ import annotations

import csv
import json
import logging
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import (__version__, corpus, images, labor, lexicon, matcher, mentions,
               redirect_bias, stats, webhits)
from .artifacts import dump_json, sha256_file, write_csv
from .config import AuditConfig
from .images import ImageCategory
from .lexicon import ProfessionEntry, Resolution
from .mentions import BiasClass, Gender
from .redirect_bias import BiasGroup

log = logging.getLogger(__name__)

STAGES = ("lexicon", "match", "classify", "webhits", "mentions", "images",
          "labor", "report")


class PipelineError(RuntimeError):
    pass


def seed_for(cfg: AuditConfig, label: str) -> int:
    """Stable per-test seed derived from the run seed."""
    return cfg.seed ^ zlib.crc32(label.encode("utf-8"))


def _stage_dir(cfg: AuditConfig, stage: str) -> Path:
    d = cfg.path("out_dir") / stage
    d.mkdir(parents=True, exist_ok=True)
    return d


def _artifact(cfg: AuditConfig, stage: str, name: str) -> Path:
    path = cfg.path("out_dir") / stage / name
    if not path.exists():
        raise PipelineError(
            f"missing artifact {stage}/{name}; run stage {stage!r} first")
    return path


def _write_manifest(cfg: AuditConfig, stage: str, inputs: dict[str, Path],
                    outputs: list[Path]) -> Path:
    manifest = {
        "stage": stage,
        "tool_version": __version__,
        "seed": cfg.seed,
        "inputs": {label: sha256_file(p) for label, p in sorted(inputs.items())},
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    path = _stage_dir(cfg, stage) / "manifest.json"
    dump_json(manifest, path)
    return path


# ---------------------------------------------------------------- lexicon

def stage_lexicon(cfg: AuditConfig) -> list[Path]:
    (professions_path,) = cfg.require("professions")
    inputs = {"professions": professions_path}
    abbrev = None
    if cfg.path("abbreviations"):
        (abbrev_path,) = cfg.require("abbreviations")
        abbrev = lexicon.load_abbreviations(abbrev_path)
        inputs["abbreviations"] = abbrev_path
    entries = lexicon.parse_file(professions_path, abbrev)
    if cfg.path("manual_assignments"):
        (manual_path,) = cfg.require("manual_assignments")
        lexicon.load_manual_assignments(manual_path, entries)
        inputs["manual_assignments"] = manual_path

    out = _stage_dir(cfg, "lexicon")
    lexicon.write_entries(entries, out / "entries.jsonl")
    lexicon.write_review_file(entries, out / "review.csv")
    dump_json(lexicon.summarize(entries), out / "summary.json")
    outputs = [out / "entries.jsonl", out / "review.csv", out / "summary.json"]
    _write_manifest(cfg, "lexicon", inputs, outputs)
    return outputs


def _load_entries(cfg: AuditConfig) -> list[ProfessionEntry]:
    path = _artifact(cfg, "lexicon", "entries.jsonl")
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            data = json.loads(line)
            entries.append(ProfessionEntry(
                id=data["id"], line_no=data["line_no"], text=data["text"],
                male_title=data["male_title"], female_title=data["female_title"],
                neutral_title=data["neutral_title"],
                resolution=Resolution(data["resolution"])))
    return entries


# ------------------------------------------------------------------ match

def _load_snapshot(cfg: AuditConfig) -> corpus.CorpusSnapshot:
    (snapshot_path,) = cfg.require("snapshot")
    return corpus.load_snapshot(snapshot_path)


def _closure_titles(snapshot: corpus.CorpusSnapshot, closure: set[str]) -> list[str]:
    """Titles of validated profession articles (non-redirect pages inside
    the closure)."""
    return sorted(
        rec.title for rec in snapshot.records.values()
        if rec.exists and not rec.is_redirect
        and corpus.is_profession_article(rec, closure))


def stage_match(cfg: AuditConfig) -> list[Path]:
    entries = _load_entries(cfg)
    snapshot = _load_snapshot(cfg)
    closure = corpus.category_closure(corpus.PROFESSION_ROOTS,
                                      cfg.closure_depth, snapshot)
    titles = _closure_titles(snapshot, closure)
    professions = [(e.id, role, title) for e in entries
                   for role, title in e.titles()]
    candidates = matcher.match(professions, titles, d_max=cfg.d_max,
                               r_min=cfg.r_min)
    inputs = {"entries": _artifact(cfg, "lexicon", "entries.jsonl"),
              "snapshot": cfg.path("snapshot")}
    if cfg.path("match_decisions"):
        (decisions_path,) = cfg.require("match_decisions")
        matcher.apply_decisions(candidates, decisions_path)
        inputs["match_decisions"] = decisions_path

    out = _stage_dir(cfg, "match")
    matcher.write_candidates(candidates, out / "candidates.csv")
    accepted = matcher.accepted(candidates)
    write_csv(out / "accepted.csv",
              ["profession_id", "role", "article_title"],
              [[c.profession_id, c.gender_group or c.title_role,
                c.article_title] for c in accepted])
    dump_json({
        "candidates": len(candidates),
        "exact": sum(1 for c in candidates
                     if c.status is matcher.MatchStatus.EXACT),
        "confirmed": sum(1 for c in candidates
                         if c.status is matcher.MatchStatus.CONFIRMED),
        "rejected": sum(1 for c in candidates
                        if c.status is matcher.MatchStatus.REJECTED),
        "pending_fuzzy": sum(1 for c in candidates
                             if c.status is matcher.MatchStatus.FUZZY),
        "closure_titles": len(titles),
    }, out / "summary.json")
    outputs = [out / "candidates.csv", out / "accepted.csv",
               out / "summary.json"]
    _write_manifest(cfg, "match", inputs, outputs)
    return outputs


# --------------------------------------------------------------- classify

def _titles_by_role(cfg: AuditConfig) -> dict[str, dict[str, list[str]]]:
    """Per profession: original entry titles plus confirmed alternates."""
    entries = _load_entries(cfg)
    roles: dict[str, dict[str, list[str]]] = {}
    for e in entries:
        roles[e.id] = defaultdict(list)
        for role, title in e.titles():
            roles[e.id][role].append(title)
    accepted_path = _artifact(cfg, "match", "accepted.csv")
    with open(accepted_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for prof_id, role, article_title in reader:
            if prof_id not in roles:
                raise PipelineError(f"accepted.csv references unknown "
                                    f"profession {prof_id!r}")
            if article_title not in roles[prof_id][role]:
                roles[prof_id][role].append(article_title)
    return roles


def stage_classify(cfg: AuditConfig) -> list[Path]:
    snapshot = _load_snapshot(cfg)
    closure = corpus.category_closure(corpus.PROFESSION_ROOTS,
                                      cfg.closure_depth, snapshot)
    roles = _titles_by_role(cfg)
    entries = {e.id: e for e in _load_entries(cfg)}

    presences = []
    classifications: dict[str, BiasGroup] = {}
    article_map: dict[str, tuple[str, str]] = {}
    for prof_id in sorted(roles):
        presence = redirect_bias.build_presence(prof_id, roles[prof_id],
                                                snapshot, closure)
        presences.append(presence)
        classifications[prof_id] = redirect_bias.classify(presence)
        for role in redirect_bias.ROLES:
            state = getattr(presence, role)
            if (state.kind is redirect_bias.PageKind.ARTICLE
                    and state.about_profession and state.title):
                if state.title in article_map:
                    log.warning("article %r claimed by %s and %s, keeping "
                                "the first", state.title,
                                article_map[state.title][0], prof_id)
                    continue
                article_map[state.title] = (prof_id, role)

    report = redirect_bias.tally(presences, classifications)

    out = _stage_dir(cfg, "classify")
    write_csv(out / "classifications.csv",
              ["profession_id", "source_text", "bias_group"],
              [[pid, entries[pid].text, classifications[pid].value]
               for pid in sorted(classifications)])
    write_csv(out / "article_map.csv",
              ["article_title", "profession_id", "title_role"],
              [[title, pid, role]
               for title, (pid, role) in sorted(article_map.items())])
    presence_rows = []
    for presence in presences:
        for role in redirect_bias.ROLES:
            state = getattr(presence, role)
            if state.title is None and state.kind is redirect_bias.PageKind.MISSING:
                continue
            presence_rows.append([
                presence.profession_id, role, state.title or "",
                state.kind.value, state.target or "",
                state.target_kind.value if state.target_kind else "",
                state.about_profession,
            ])
    write_csv(out / "presence.csv",
              ["profession_id", "title_role", "title", "kind", "target",
               "target_kind", "about_profession"], presence_rows)

    table = report.to_dict()
    for name in ("table_1a", "table_1b", "table_1c"):
        rows = [[role] + list(cols.values())
                for role, cols in table[name].items()]
        header = ["title_gender"] + list(next(iter(table[name].values())))
        write_csv(out / f"{name}.csv", header, rows)
    write_csv(out / "figure4.csv",
              ["title_gender", "n", "page_share", "redirect_share",
               "no_page_share"],
              [[r["title_gender"], r["n"], r["page_share"],
                r["redirect_share"], r["no_page_share"]]
               for r in redirect_bias.figure4_rows(report)])
    write_csv(out / "figure5.csv",
              ["title_gender", "n_redirects", "to_opposite_share",
               "other_share"],
              [[r["title_gender"], r["n_redirects"], r["to_opposite_share"],
                r["other_share"]]
               for r in redirect_bias.figure5_rows(report)])
    dump_json(table, out / "summary.json")

    outputs = [out / name for name in (
        "classifications.csv", "article_map.csv", "presence.csv",
        "table_1a.csv", "table_1b.csv", "table_1c.csv", "figure4.csv",
        "figure5.csv", "summary.json")]
    _write_manifest(cfg, "classify", {
        "entries": _artifact(cfg, "lexicon", "entries.jsonl"),
        "accepted": _artifact(cfg, "match", "accepted.csv"),
        "snapshot": cfg.path("snapshot"),
    }, outputs)
    return outputs


def _load_classifications(cfg: AuditConfig) -> dict[str, BiasGroup]:
    path = _artifact(cfg, "classify", "classifications.csv")
    out: dict[str, BiasGroup] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for prof_id, _text, group in reader:
            out[prof_id] = BiasGroup(group)
    return out


def _load_article_map(cfg: AuditConfig) -> dict[str, tuple[str, str]]:
    path = _artifact(cfg, "classify", "article_map.csv")
    out: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for title, prof_id, role in reader:
            out[title] = (prof_id, role)
    return out


# ---------------------------------------------------------------- webhits

def stage_webhits(cfg: AuditConfig) -> list[Path]:
    (hits_path,) = cfg.require("hits")
    records = webhits.load_hits(hits_path)
    groups = _load_classifications(cfg)
    diffs, excluded = webhits.compute_differences(records)

    out = _stage_dir(cfg, "webhits")
    webhits.write_differences(diffs, groups, out / "normalized_differences.csv")
    evidence = [r for r in records
                if groups.get(r.profession_id) not in (None, BiasGroup.NO_EVIDENCE)
                and r.hits_male + r.hits_female > 0]
    report: dict = {"excluded_zero_total": excluded,
                    "n_input": len(records)}
    if evidence:
        report.update(webhits.fit_bias_models(evidence, groups))
    else:
        report["skipped"] = "no profession with both hits and bias evidence"
    dump_json(report, out / "models.json")

    outputs = [out / "normalized_differences.csv", out / "models.json"]
    _write_manifest(cfg, "webhits", {
        "hits": hits_path,
        "classifications": _artifact(cfg, "classify", "classifications.csv"),
    }, outputs)
    return outputs


# --------------------------------------------------------------- mentions

def stage_mentions(cfg: AuditConfig) -> list[Path]:
    snapshot = _load_snapshot(cfg)
    article_map = _load_article_map(cfg)
    (lexicon_path,) = cfg.require("gender_lexicon")
    gender_lexicon = mentions.load_gender_lexicon(lexicon_path)
    inputs = {"snapshot": cfg.path("snapshot"),
              "article_map": _artifact(cfg, "classify", "article_map.csv"),
              "gender_lexicon": lexicon_path}

    birth_index: dict[str, int] = {}
    if cfg.path("birth_years"):
        (birth_path,) = cfg.require("birth_years")
        birth_index = mentions.load_birth_years(birth_path)
        inputs["birth_years"] = birth_path

    all_mentions: list[mentions.PersonMention] = []
    overlap_totals = {"n_link": 0, "n_text": 0, "n_overlap": 0,
                      "gender_comparisons": 0, "gender_disagreements": 0,
                      "skipped_outlinks": 0}
    for title in sorted(article_map):
        record = snapshot.records[title]
        link_ms, skipped = mentions.extract_link_mentions(record, snapshot)
        text_ms = mentions.extract_text_mentions(title, record.plain_text,
                                                 gender_lexicon)
        merged, report = mentions.merge(link_ms, text_ms)
        all_mentions.extend(merged)
        overlap_totals["n_link"] += report.n_link
        overlap_totals["n_text"] += report.n_text
        overlap_totals["n_overlap"] += report.n_overlap
        overlap_totals["gender_comparisons"] += report.gender_comparisons
        overlap_totals["gender_disagreements"] += report.gender_disagreements
        overlap_totals["skipped_outlinks"] += skipped

    mentions.annotate_birth_years(all_mentions, birth_index, snapshot)
    filtered, unknown, too_old = mentions.filter_by_birth(
        all_mentions, cfg.birth_cutoff)

    out = _stage_dir(cfg, "mentions")
    with open(out / "mentions.jsonl", "w", encoding="utf-8") as fh:
        for m in all_mentions:
            fh.write(json.dumps(m.to_dict(), ensure_ascii=False,
                                sort_keys=True) + "\n")

    ratio_rows = []
    for variant, subset in (("all", all_mentions),
                            ("born_after_cutoff", filtered)):
        for stat in mentions.article_stats(subset, cfg.equality_band):
            ratio_rows.append([variant, stat.article_title, stat.n_men,
                               stat.n_women, stat.male_ratio,
                               stat.bias_class.value])
    write_csv(out / "ratios.csv",
              ["variant", "article_title", "n_men", "n_women", "male_ratio",
               "bias_class"], ratio_rows)

    comparisons = overlap_totals["gender_comparisons"]
    overlap_totals["disagreement_rate"] = (
        overlap_totals["gender_disagreements"] / comparisons
        if comparisons else 0.0)
    overlap_totals["n_merged"] = len(all_mentions)
    overlap_totals["n_men"] = sum(1 for m in all_mentions
                                  if m.gender is Gender.M)
    overlap_totals["n_women"] = sum(1 for m in all_mentions
                                    if m.gender is Gender.F)
    overlap_totals["birth_filter"] = {
        "cutoff": cfg.birth_cutoff, "kept": len(filtered),
        "dropped_unknown_year": unknown, "dropped_at_or_before_cutoff": too_old,
    }
    dump_json(overlap_totals, out / "merge_report.json")

    outputs = [out / "mentions.jsonl", out / "ratios.csv",
               out / "merge_report.json"]
    _write_manifest(cfg, "mentions", inputs, outputs)
    return outputs


def _load_ratios(cfg: AuditConfig) -> list[dict]:
    path = _artifact(cfg, "mentions", "ratios.csv")
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append({
                "variant": row["variant"],
                "article_title": row["article_title"],
                "n_men": int(row["n_men"]),
                "n_women": int(row["n_women"]),
                "male_ratio": float(row["male_ratio"]),
                "bias_class": BiasClass(row["bias_class"]),
            })
    return rows


# ----------------------------------------------------------------- images

def stage_images(cfg: AuditConfig) -> list[Path]:
    snapshot = _load_snapshot(cfg)
    article_map = _load_article_map(cfg)
    groups = _load_classifications(cfg)
    (annotations_path, gold_path) = cfg.require("annotations", "gold_labels")

    eligible: dict[str, list[str]] = defaultdict(list)  # image -> articles
    shown: set[str] = set()  # every image on a mapped article
    for title in sorted(article_map):
        record = snapshot.records[title]
        shown.update(ref.filename for ref in record.images)
        for ref in images.filter_images(record.images, cfg.min_image_width):
            eligible[ref.filename].append(title)

    # responses to images the width/format filter excluded leave the
    # analysis; responses to images on no mapped article stay an error
    responses = [r for r in images.load_responses(annotations_path)
                 if r.image_id in eligible or r.image_id not in shown]
    gold = images.load_gold_labels(gold_path)
    workers, retained = images.score_workers(
        responses, gold, set(eligible), threshold=cfg.worker_accuracy)
    categories = images.aggregate_all(retained, cfg.min_judgments)
    try:
        kappa = images.kappa_from_responses(retained)
        kappa_out = {"kappa": kappa.kappa, "p_bar": kappa.p_bar,
                     "p_bar_e": kappa.p_bar_e, "n_items": kappa.n_items,
                     "n_raters": kappa.n_raters,
                     "n_categories": kappa.n_categories}
    except ValueError as exc:
        kappa_out = {"error": str(exc)}

    out = _stage_dir(cfg, "images")
    write_csv(out / "workers.csv",
              ["worker_id", "gold_answered", "gold_correct", "accuracy",
               "active"],
              [[w.worker_id, w.gold_answered, w.gold_correct, w.accuracy,
                w.active] for w in workers])

    category_rows = []
    for image in sorted(eligible):
        category = categories.get(image, ImageCategory.UNRESOLVED)
        for article in eligible[image]:
            prof_id, role = article_map[article]
            category_rows.append([image, article, prof_id, role,
                                  groups[prof_id].value, category.value])
    write_csv(out / "categories.csv",
              ["image_id", "article_title", "profession_id", "title_role",
               "bias_group", "category"], category_rows)
    dump_json(kappa_out, out / "kappa.json")

    def occurrence_items(key_index: int) -> list[tuple[str, ImageCategory]]:
        return [(row[key_index], ImageCategory(row[5]))
                for row in category_rows]

    dist_report = {}
    for grouping, key_index in (("overall", None), ("title_gender", 3),
                                ("redirect_bias", 4)):
        if key_index is None:
            items = [("all", ImageCategory(row[5])) for row in category_rows]
        else:
            items = occurrence_items(key_index)
        dist = images.distributions(items, grouping, b=cfg.mc_iterations,
                                    seed=seed_for(cfg, f"images:{grouping}"))
        dist_report[grouping] = dist.to_dict()
        write_csv(out / f"dist_{grouping}.csv",
                  ["group", "n", "unresolved"] +
                  [c.value for c in images.DISTRIBUTION_CATEGORIES],
                  [[g.group, g.n, g.unresolved] +
                   [g.proportions[c.value]
                    for c in images.DISTRIBUTION_CATEGORIES]
                   for g in dist.groups])
    dump_json(dist_report, out / "distributions.json")

    outputs = [out / "workers.csv", out / "categories.csv", out / "kappa.json",
               out / "dist_overall.csv", out / "dist_title_gender.csv",
               out / "dist_redirect_bias.csv", out / "distributions.json"]
    _write_manifest(cfg, "images", {
        "snapshot": cfg.path("snapshot"),
        "article_map": _artifact(cfg, "classify", "article_map.csv"),
        "annotations": annotations_path,
        "gold_labels": gold_path,
    }, outputs)
    return outputs


def _load_image_rows(cfg: AuditConfig) -> list[dict]:
    path = _artifact(cfg, "images", "categories.csv")
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(row)
    return rows


# ------------------------------------------------------------------ labor

def stage_labor(cfg: AuditConfig) -> list[Path]:
    entries = _load_entries(cfg)
    (stats_path, classifier_path) = cfg.require("labor_stats",
                                                "labor_classifier")
    labor_stats = labor.load_stats(stats_path)
    classifier = labor.load_classifier(classifier_path)
    professions = [(e.id, [t for _, t in e.titles()]) for e in entries
                   if e.titles()]
    assignments, unmatched = labor.assign(professions, classifier, labor_stats)
    joined = labor.join(assignments, labor_stats,
                        majority_threshold=cfg.majority_threshold,
                        dominated_threshold=cfg.dominated_threshold)

    out = _stage_dir(cfg, "labor")
    labor.write_joined(joined, out / "joined.csv")
    write_csv(out / "unmatched.csv", ["profession_id"],
              [[pid] for pid in sorted(unmatched)])
    dump_json({"matched": len(joined), "unmatched": len(unmatched)},
              out / "summary.json")
    outputs = [out / "joined.csv", out / "unmatched.csv", out / "summary.json"]
    _write_manifest(cfg, "labor", {
        "entries": _artifact(cfg, "lexicon", "entries.jsonl"),
        "labor_stats": stats_path,
        "labor_classifier": classifier_path,
    }, outputs)
    return outputs


def _load_joined_labor(cfg: AuditConfig) -> dict[str, dict]:
    path = _artifact(cfg, "labor", "joined.csv")
    out: dict[str, dict] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["profession_id"]] = {
                "kldb_code": row["kldb_code"],
                "n_men": int(row["n_men"]),
                "n_women": int(row["n_women"]),
                "pct_women": float(row["pct_women"]),
                "majority": row["majority"],
                "dominated": row["dominated"],
            }
    return out


# ----------------------------------------------------------------- report

_EVIDENCE_GROUPS = (BiasGroup.MALE_BIAS, BiasGroup.FEMALE_BIAS,
                    BiasGroup.NEUTRAL)


def _ranksum_pairs(samples: dict[str, list[float]], pairs,
                   correction: str, q_or_alpha: float) -> dict:
    """Pairwise Wilcoxon tests with a family-wise correction summary."""
    tests = []
    for a, b in pairs:
        xa, xb = samples.get(a, []), samples.get(b, [])
        if not xa or not xb:
            tests.append({"groups": [a, b], "skipped":
                          "empty group", "n": [len(xa), len(xb)]})
            continue
        res = stats.wilcoxon_rank_sum(xa, xb)
        tests.append({"groups": [a, b], "test": res.to_dict()})
    performed = [t for t in tests if "test" in t]
    summary: dict = {"tests": tests, "correction": correction}
    if correction == "bonferroni" and performed:
        alpha = stats.bonferroni(q_or_alpha, len(performed))
        summary["alpha"] = q_or_alpha
        summary["adjusted_alpha"] = alpha
        for t in performed:
            t["significant"] = t["test"]["p"] < alpha
    elif correction == "bh_two_stage" and performed:
        bh = stats.bh_two_stage([t["test"]["p"] for t in performed],
                                q=q_or_alpha)
        summary["q"] = q_or_alpha
        for t, flag, adj in zip(performed, bh.reject, bh.adjusted_p):
            t["rejected_two_stage"] = flag
            t["adjusted_p_single_stage"] = adj
    return summary


def _correlation_rows(points: list[dict], pairs) -> list[list]:
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
    return rows


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


def stage_report(cfg: AuditConfig) -> list[Path]:
    groups = _load_classifications(cfg)
    article_map = _load_article_map(cfg)
    joined = _load_joined_labor(cfg)
    ratios = _load_ratios(cfg)
    image_rows = _load_image_rows(cfg)
    out = _stage_dir(cfg, "report")
    outputs: list[Path] = []

    # labor percentage by bias group (figure 8 data) and the rank-sum /
    # regression suite over it
    fig8_rows = []
    labor_by_group: dict[str, list[float]] = defaultdict(list)
    for prof_id in sorted(joined):
        group = groups.get(prof_id, BiasGroup.NO_EVIDENCE)
        pct = joined[prof_id]["pct_women"]
        fig8_rows.append([prof_id, group.value, pct])
        if group in _EVIDENCE_GROUPS:
            labor_by_group[group.value].append(pct)
    write_csv(out / "figure8_labor_by_bias.csv",
              ["profession_id", "bias_group", "pct_women"], fig8_rows)
    outputs.append(out / "figure8_labor_by_bias.csv")

    labor_tests = _ranksum_pairs(
        labor_by_group,
        [(BiasGroup.MALE_BIAS.value, BiasGroup.FEMALE_BIAS.value),
         (BiasGroup.MALE_BIAS.value, BiasGroup.NEUTRAL.value),
         (BiasGroup.NEUTRAL.value, BiasGroup.FEMALE_BIAS.value)],
        correction="bonferroni", q_or_alpha=0.05)

    # logistic model: female bias from the percentage of employed women
    rows = [(joined[pid]["pct_women"] * 100.0,
             1.0 if groups.get(pid) is BiasGroup.FEMALE_BIAS else 0.0)
            for pid in sorted(joined)
            if groups.get(pid) in _EVIDENCE_GROUPS]
    model_out: dict = {"n": len(rows)}
    if len(rows) >= 3 and 0 < sum(y for _, y in rows) < len(rows):
        X = np.column_stack([np.ones(len(rows)),
                             np.array([x for x, _ in rows])])
        y = np.array([y for _, y in rows])
        fit = stats.logistic_fit(X, y)
        model_out.update({
            "outcome": "female_bias",
            "accuracy": fit.accuracy,
            "pseudo_r2": fit.mcfadden_r2,
            "converged": fit.converged,
            "coefficients": [
                {"predictor": name, "coef": fit.coefficients[i],
                 "std_error": fit.std_errors[i], "p": fit.p_values[i],
                 "ci95_low": fit.ci95[i][0], "ci95_high": fit.ci95[i][1],
                 "odds_ratio": webhits.odds_ratio(fit.coefficients[i])
                               if abs(fit.coefficients[i]) < 500 else None}
                for i, name in enumerate(("intercept", "pct_women"))],
        })
    else:
        model_out["skipped"] = "needs both classes and at least 3 professions"
    dump_json({"rank_sum": labor_tests, "regression": model_out},
              out / "labor_tests.json")
    outputs.append(out / "labor_tests.json")

    # image distributions grouped by labor market composition
    labor_groupings = {"labor_majority": "majority",
                       "labor_dominated": "dominated"}
    image_labor_report = {}
    for grouping, key in labor_groupings.items():
        items = []
        for row in image_rows:
            info = joined.get(row["profession_id"])
            if info is None:
                continue
            label = info[key]
            if label in ("unassigned", "not_dominated"):
                continue
            items.append((label, ImageCategory(row["category"])))
        if not items:
            image_labor_report[grouping] = {"skipped": "no joined images"}
            continue
        dist = images.distributions(items, grouping, b=cfg.mc_iterations,
                                    seed=seed_for(cfg, f"images:{grouping}"))
        image_labor_report[grouping] = dist.to_dict()
        write_csv(out / f"dist_{grouping}.csv",
                  ["group", "n", "unresolved"] +
                  [c.value for c in images.DISTRIBUTION_CATEGORIES],
                  [[g.group, g.n, g.unresolved] +
                   [g.proportions[c.value]
                    for c in images.DISTRIBUTION_CATEGORIES]
                   for g in dist.groups])
        outputs.append(out / f"dist_{grouping}.csv")
    dump_json(image_labor_report, out / "image_labor_distributions.json")
    outputs.append(out / "image_labor_distributions.json")

    # mention ratios with every grouping attached (figures 14-17 data)
    ratio_rows = []
    for row in ratios:
        title = row["article_title"]
        prof_id, role = article_map.get(title, ("", ""))
        info = joined.get(prof_id)
        ratio_rows.append([
            row["variant"], title, prof_id, role,
            groups.get(prof_id, BiasGroup.NO_EVIDENCE).value if prof_id else "",
            info["majority"] if info else "",
            row["n_men"], row["n_women"], row["male_ratio"],
            row["bias_class"].value,
        ])
    write_csv(out / "mention_ratios_grouped.csv",
              ["variant", "article_title", "profession_id", "title_role",
               "bias_group", "labor_majority", "n_men", "n_women",
               "male_ratio", "bias_class"], ratio_rows)
    outputs.append(out / "mention_ratios_grouped.csv")

    # share of article bias classes, overall and birth-filtered
    class_shares = {}
    for variant in ("all", "born_after_cutoff"):
        subset = [r for r in ratios if r["variant"] == variant]
        n = len(subset)
        share = {c.value: (sum(1 for r in subset if r["bias_class"] is c) / n
                           if n else 0.0)
                 for c in BiasClass}
        class_shares[variant] = {"n_articles": n, "shares": share}

    # rank-sum suites over mention ratios
    def ratio_samples(variant: str, labeler) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = defaultdict(list)
        for row in ratios:
            if row["variant"] != variant:
                continue
            label = labeler(row["article_title"])
            if label:
                samples[label].append(row["male_ratio"])
        return samples

    def by_role(title: str) -> str:
        return article_map.get(title, ("", ""))[1]

    def by_bias(title: str) -> str:
        prof_id = article_map.get(title, ("", ""))[0]
        group = groups.get(prof_id)
        return group.value if group in _EVIDENCE_GROUPS else ""

    def by_majority(title: str) -> str:
        prof_id = article_map.get(title, ("", ""))[0]
        info = joined.get(prof_id)
        if not info or info["majority"] == "unassigned":
            return ""
        return info["majority"]

    mention_tests = {
        "title_gender": _ranksum_pairs(
            ratio_samples("all", by_role),
            [("male", "female"), ("male", "neutral"), ("neutral", "female")],
            correction="bh_two_stage", q_or_alpha=0.05),
        "redirect_bias": _ranksum_pairs(
            ratio_samples("all", by_bias),
            [(BiasGroup.MALE_BIAS.value, BiasGroup.FEMALE_BIAS.value),
             (BiasGroup.MALE_BIAS.value, BiasGroup.NEUTRAL.value),
             (BiasGroup.NEUTRAL.value, BiasGroup.FEMALE_BIAS.value)],
            correction="bh_two_stage", q_or_alpha=0.05),
        "labor_majority": _ranksum_pairs(
            ratio_samples("all", by_majority),
            [("male_majority", "female_majority")],
            correction="none", q_or_alpha=0.05),
        "all_vs_born_after_cutoff": _ranksum_pairs(
            {"all": [r["male_ratio"] for r in ratios
                     if r["variant"] == "all"],
             "born_after_cutoff": [r["male_ratio"] for r in ratios
                                   if r["variant"] == "born_after_cutoff"]},
            [("all", "born_after_cutoff")], correction="none",
            q_or_alpha=0.05),
        "class_shares": class_shares,
    }
    dump_json(mention_tests, out / "mention_tests.json")
    outputs.append(out / "mention_tests.json")

    # correlation tables against the labor market
    def labor_features(prof_id: str) -> dict | None:
        info = joined.get(prof_id)
        if info is None:
            return None
        total = info["n_men"] + info["n_women"]
        return {"n_men_labor": info["n_men"], "n_women_labor": info["n_women"],
                "n_people_labor": total,
                "pct_women_labor": info["pct_women"],
                "pct_men_labor": 1.0 - info["pct_women"]}

    image_points = []
    per_article_images: dict[str, list[str]] = defaultdict(list)
    for row in image_rows:
        per_article_images[row["article_title"]].append(row["category"])
    for title in sorted(per_article_images):
        prof_id = article_map.get(title, ("", ""))[0]
        feats = labor_features(prof_id)
        if feats is None:
            continue
        cats = [c for c in per_article_images[title]
                if c != ImageCategory.UNRESOLVED.value]
        n_men = cats.count(ImageCategory.MEN.value)
        n_women = cats.count(ImageCategory.WOMEN.value)
        point = dict(feats, n_images_men=n_men, n_images_women=n_women)
        if cats:
            point["pct_images_men"] = n_men / len(cats)
            point["pct_images_women"] = n_women / len(cats)
        image_points.append(point)
    write_csv(out / "correlations_images.csv",
              ["feature_1", "feature_2", "n", "spearman", "note"],
              _correlation_rows(image_points, IMAGE_CORRELATION_PAIRS))
    outputs.append(out / "correlations_images.csv")

    def mention_points(variant: str) -> list[dict]:
        points = []
        for row in ratios:
            if row["variant"] != variant:
                continue
            prof_id = article_map.get(row["article_title"], ("", ""))[0]
            feats = labor_features(prof_id)
            if feats is None:
                continue
            total = row["n_men"] + row["n_women"]
            points.append(dict(
                feats,
                n_mentioned_men=row["n_men"],
                n_mentioned_women=row["n_women"],
                n_mentioned_persons=total,
                pct_mentioned_men=row["n_men"] / total,
                pct_mentioned_women=row["n_women"] / total))
        return points

    write_csv(out / "correlations_mentions.csv",
              ["feature_1", "feature_2", "n", "spearman", "note"],
              _correlation_rows(mention_points("all"),
                                MENTION_CORRELATION_PAIRS))
    outputs.append(out / "correlations_mentions.csv")
    write_csv(out / "correlations_mentions_born_after_cutoff.csv",
              ["feature_1", "feature_2", "n", "spearman", "note"],
              _correlation_rows(mention_points("born_after_cutoff"),
                                MENTION_FILTER_CORRELATION_PAIRS))
    outputs.append(out / "correlations_mentions_born_after_cutoff.csv")

    # bundle manifest over every artifact of the run; the report stage's
    # own manifests stay out so reruns into the same directory are
    # byte-identical
    bundle: dict[str, str] = {}
    out_dir = cfg.path("out_dir")
    for stage in STAGES:
        stage_path = out_dir / stage
        if not stage_path.is_dir():
            continue
        for p in sorted(stage_path.iterdir()):
            if stage == "report" and p.name in ("manifest.json",
                                                "bundle_manifest.json"):
                continue
            if p.is_file():
                bundle[f"{stage}/{p.name}"] = sha256_file(p)
    dump_json({"tool_version": __version__, "seed": cfg.seed,
               "config": {k: v for k, v in cfg.to_dict().items()
                          if k not in AuditConfig._PATH_KEYS},
               "outputs": bundle}, out / "bundle_manifest.json")
    outputs.append(out / "bundle_manifest.json")

    _write_manifest(cfg, "report", {
        "classifications": _artifact(cfg, "classify", "classifications.csv"),
        "joined_labor": _artifact(cfg, "labor", "joined.csv"),
        "ratios": _artifact(cfg, "mentions", "ratios.csv"),
        "image_categories": _artifact(cfg, "images", "categories.csv"),
    }, outputs)
    return outputs


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


def run_stage(stage: str, cfg: AuditConfig) -> list[Path]:
    if stage not in _STAGE_FUNCS:
        raise PipelineError(f"unknown stage {stage!r}; expected one of "
                            f"{', '.join(STAGES)}")
    cfg.validate_thresholds()
    log.info("running stage %s", stage)
    return _STAGE_FUNCS[stage](cfg)


def run_all(cfg: AuditConfig) -> list[Path]:
    outputs = []
    for stage in STAGES:
        outputs.extend(run_stage(stage, cfg))
    return outputs
