"""Seeded generator of synthetic audit inputs.

``generate(workload, seed, out_dir)`` writes a complete input set (snapshot,
profession list, crowd annotations, hit counts, labor statistics, ...) plus
a ``config.json`` that ``AuditConfig.from_file`` accepts. The same workload
and seed always give byte-identical files: every random choice comes from
one ``random.Random`` seeded with a string, and nothing iterates over a set.

The generator decides the ground truth it plants (the redirect-bias group
of every profession, and the category of one "pivot" image before and after
the rerun edit) and returns it, so the benchmark can check the program's
answers against a source that does not depend on the program.

Workload sizes are fixed counts, and title lengths, image counts and image
categories are cycled rather than drawn, so the work per run does not move
with the seed; names, texts and the wording of crowd answers do.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes per workload. Each is chosen so that one layer does most of the work:
# titles -> matcher, corpus -> snapshot parsing and mention extraction;
# stats.chi2_mc has about a quarter of both. See perfbench/README.md.
WORKLOADS = {
    "titles": dict(professions=24, fillers=300, variants=12,
                   images_per_article=(1, 1), judgments=(3, 3), gold_share=0.3,
                   persons=150, person_redirects=40, sentences=(3, 5),
                   outlinks=(2, 4), person_text=1),
    "corpus": dict(professions=30, fillers=0, variants=4,
                   images_per_article=(1, 1), judgments=(3, 3), gold_share=0.3,
                   persons=12000, person_redirects=2400, sentences=(350, 400),
                   outlinks=(150, 200), person_text=3),
}

# The paper's Monte Carlo budget.
MC_ITERATIONS = 10000

CONFIG_SEED = 1

_ONSETS = ("B", "Br", "D", "Dr", "F", "Fl", "G", "Gr", "H", "K", "Kl", "Kr",
           "L", "M", "N", "P", "Pf", "R", "S", "Sch", "Schw", "St", "Str",
           "T", "Tr", "W", "Z")
_VOWELS = ("a", "e", "i", "o", "u", "au", "ei", "ie", "ä", "ö", "ü")
_CODAS = ("", "n", "r", "l", "s", "ch", "ck", "nd", "rt", "st", "ng", "ld",
          "mm", "tz")

# (male suffix, female suffix) pairs from the lexicon's pair rules, written
# as "Stem<male>/-<female>" lines
_PAIR_FORMS = (("arzt", "ärztin"), ("koch", "köchin"), ("anwalt", "anwältin"),
               ("mann", "frau"), ("ologe", "ologin"), ("experte", "expertin"),
               ("gehilfe", "gehilfin"), ("lotse", "lotsin"))
_NEUTRAL_SUFFIXES = ("kraft", "person", "leute")
# Stem lengths are cycled, not drawn: the matcher's work depends on title
# lengths only, so with a fixed length mix it is the same for every seed.
_STEM_LENGTHS = (5, 6, 7, 8, 9, 10, 11, 12)
_FILLER_SUFFIXES = ("technik", "wesen", "kunde", "handwerk", "betrieb",
                    "arbeit", "verband", "ordnung", "recht", "lehre")

_MALE_NAMES = ("Anton", "Bernd", "Carl", "Dieter", "Emil", "Felix", "Georg",
               "Heinrich", "Jan", "Jonas", "Karl", "Lukas", "Max", "Moritz",
               "Niklas", "Otto", "Paul", "Peter", "Stefan", "Thomas", "Uwe",
               "Walter", "Jürgen", "Günter")
_FEMALE_NAMES = ("Anna", "Berta", "Clara", "Doris", "Emma", "Frieda", "Greta",
                 "Hanna", "Ida", "Julia", "Katrin", "Lena", "Marie", "Nina",
                 "Olga", "Paula", "Rosa", "Sophie", "Tanja", "Ute", "Vera",
                 "Wiebke", "Jördis", "Käthe")
_AMBIGUOUS_NAMES = ("Kim", "Toni", "Luca")
_UNKNOWN_NAMES = ("Quirin", "Xaver", "Zoltan", "Yara")  # not in the lexicon
_MONTHS = ("Januar", "Februar", "März", "April", "Mai", "Juni", "Juli",
           "August", "September", "Oktober", "November", "Dezember")
_CITIES = ("Bonn", "Kiel", "Ulm", "Jena", "Trier", "Passau", "Görlitz")
_NOUNS = ("Werkstatt", "Ausbildung", "Kammer", "Zunft", "Prüfung", "Schule",
          "Tradition", "Branche", "Meisterin", "Innung", "Arbeit", "Stelle")
_VERBS = ("arbeitete", "lernte", "lehrte", "gründete", "leitete", "prägte",
          "beschrieb", "verließ")

# category tree under the three profession roots; the last level lies
# deeper than the configured closure depth (5) and so stays outside
_ROOTS = ("Beruf", "Amt", "Person nach Tätigkeit")
_TREE_DEPTH = 7
_OUTSIDE_CATEGORIES = ("Familienname", "Ort", "Begriff")

# answer pairs per crowd category: (count_answer, gender_answer)
_ANSWERS = {
    "men": (("one_person", "male"), ("several_one_dominant", "male"),
            ("several_no_dominant", "only_male"),
            ("several_no_dominant", "mixed_mostly_male")),
    "women": (("one_person", "female"), ("several_one_dominant", "female"),
              ("several_no_dominant", "only_female"),
              ("several_no_dominant", "mixed_mostly_female")),
    "mixed_equal": (("several_no_dominant", "mixed_equal"),),
    "not_recognizable": (("one_person", "not_recognizable"),
                         ("several_no_dominant", "not_recognizable")),
    "no_person": (("no_person", "none"),),
}
_CATEGORIES = tuple(_ANSWERS)
# category weights per title role, so groups differ and tests have signal
_CATEGORY_WEIGHTS = {
    "male": (6, 2, 1, 1, 1),
    "female": (2, 6, 1, 1, 1),
    "neutral": (3, 3, 2, 1, 1),
}


def _weighted_cycle(weights) -> tuple[str, ...]:
    """The categories, each as often as its weight, evenly interleaved."""
    slots = [((k + 0.5) / w, i) for i, w in enumerate(weights)
             for k in range(w)]
    return tuple(_CATEGORIES[i] for _, i in sorted(slots))


# Image categories are cycled per role, not drawn: with few images per
# group a drawn category is sometimes missing from a group, which drops
# post-hoc tests, so the chi-square work would move with the seed.
_CATEGORY_CYCLES = {role: _weighted_cycle(w)
                    for role, w in _CATEGORY_WEIGHTS.items()}

# profession kinds cycled in this order; the expected bias group of each
_KIND_CYCLE = ("both", "male_only", "female_only", "both", "male_only",
               "female_only", "neutral", "none", "cycle", "both")
_EXPECTED_GROUP = {"both": "neutral", "male_only": "male_bias",
                   "female_only": "female_bias", "neutral": "neutral",
                   "none": "no_evidence", "cycle": "neutral"}
# women's share of employment, cycled over professions with labor data:
# female-dominated, male-dominated, female majority, male majority
_LABOR_SHARES = (0.85, 0.15, 0.62, 0.38)

INPUT_FILES = ("config.json", "professions.txt", "snapshot.jsonl",
               "match_decisions.csv", "hits.csv", "labor_stats.csv",
               "labor_classifier.csv", "gender_lexicon.csv",
               "birth_years.csv", "annotations.csv", "gold_labels.csv")


@dataclass
class Profession:
    pid: str
    kind: str
    line: str
    male: str | None = None
    female: str | None = None
    neutral: str | None = None
    articles: list[tuple[str, str]] = field(default_factory=list)  # (role, title)
    confirmed: list[tuple[str, str]] = field(default_factory=list)  # variants


@dataclass
class Truth:
    """What the generator planted, for checks independent of the program."""
    bias_groups: dict[str, str]
    pivot_image: str
    pivot_before: str
    pivot_after: str
    edited_annotations: str  # the annotations.csv text after the rerun edit


class _Names:
    """Unique-name source: every title the generator emits passes here."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def claim(self, title: str) -> bool:
        if title in self.used:
            return False
        self.used.add(title)
        return True

    def stem(self, syllables=(2, 3), length: int | None = None) -> str:
        """A new capitalized stem; with ``length``, exactly that long."""
        while True:
            n = self.rng.randint(*syllables)
            s = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                        + self.rng.choice(_CODAS) for _ in range(n))
            s = s[0] + s[1:].lower()
            if length is not None:
                s = s[:length]
                if len(s) < length:
                    continue
            if s not in self.used:
                self.used.add(s)
                return s


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _category_tree(rng: random.Random, names: _Names):
    """Category pages under the roots. Returns (records, closure categories
    usable for profession articles, categories too deep for the closure)."""
    records = []
    levels = [list(_ROOTS)]
    for depth in range(1, _TREE_DEPTH + 1):
        level = []
        for parent in levels[-1]:
            for _ in range(2 if depth <= 2 else 1):
                name = names.stem((2, 3), length=4 + len(records) % 5) + "beruf"
                records.append({"title": "Kategorie:" + name,
                                "categories": [parent]})
                level.append(name)
        levels.append(level)
    # a category cycle (a first-level category filed under its own child):
    # the closure walk must stay cycle-safe
    records[0]["categories"].append(levels[2][0])
    inside = [c for lvl in levels[:5] for c in lvl]
    too_deep = levels[6] + levels[7]
    return records, inside, too_deep


def _variant(rng: random.Random, title: str, names: _Names,
             below: bool, substitute: bool) -> str | None:
    """A one-edit near variant of a title (substitution or insertion).

    With ``below`` the variant sorts before the title: when a reviewer
    confirms it as a second article for the same role, the classifier keeps
    the title that sorts last, so the original article (and its images)
    stays the one mapped to the profession.
    """
    for _ in range(50):
        pos = rng.randrange(1, len(title))
        letter = rng.choice("aeinorstlu")
        if substitute:
            cand = title[:pos] + letter + title[pos + 1:]
        else:
            cand = title[:pos] + letter + title[pos:]
        if cand != title and (cand < title or not below) and names.claim(cand):
            return cand
    return None


def generate(workload: str, seed: int, out_dir) -> Truth:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    p = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    names = _Names(rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    cat_records, inside, too_deep = _category_tree(rng, names)
    records.extend(cat_records)

    # ---- persons (link targets) with Frau/Mann categories
    persons: list[str] = []
    birth_rows = []
    for i in range(p["persons"]):
        female = i % 2 == 0
        first = rng.choice(_FEMALE_NAMES if female else _MALE_NAMES)
        while True:
            title = f"{first} {names.stem((2, 3))}"
            if names.claim(title):
                break
        year = rng.randint(1900, 1995)
        cats = ["Frau" if female else "Mann", f"Geboren {year}"]
        if i % 97 == 13:
            cats.append("Mann" if female else "Frau")  # contradictory, skipped
        text = (f"{title} (* {rng.randint(1, 28)}. {rng.choice(_MONTHS)} "
                f"{year} in {rng.choice(_CITIES)}) ist eine Person.")
        text += " Sie lebte in der Stadt." * (p["person_text"] - 1)
        records.append({"title": title, "categories": cats, "plain_text": text})
        persons.append(title)
        if i % 3 == 0:
            birth_rows.append([title, year])
    # redirects onto persons: direct, two-hop chains, and small cycles
    for i in range(p["person_redirects"]):
        target = persons[rng.randrange(len(persons))]
        first, last = target.split(" ", 1)
        alias = f"{last}, {first}"
        if not names.claim(alias):
            continue
        if i % 5 == 1:
            mid = alias + " (Person)"
            if names.claim(mid):
                records.append({"title": alias, "redirect_target": mid})
                records.append({"title": mid, "redirect_target": target})
                continue
        if i % 5 == 3:
            loop = alias + " (Schleife)"
            if names.claim(loop):
                records.append({"title": alias, "redirect_target": loop})
                records.append({"title": loop, "redirect_target": alias})
                continue
        records.append({"title": alias, "redirect_target": target})

    # ---- professions
    professions: list[Profession] = []
    for i in range(p["professions"]):
        kind = _KIND_CYCLE[i % len(_KIND_CYCLE)]
        pid = f"L{i + 1:04d}"
        stem = names.stem(length=_STEM_LENGTHS[i % len(_STEM_LENGTHS)])
        if kind == "neutral":
            line = stem + _NEUTRAL_SUFFIXES[i % len(_NEUTRAL_SUFFIXES)]
            prof = Profession(pid, kind, line, neutral=line)
        elif i % 2 == 0:
            line = stem + "er/in"
            prof = Profession(pid, kind, line, male=stem + "er",
                              female=stem + "erin")
        else:
            male_sfx, female_sfx = _PAIR_FORMS[(i // 2) % len(_PAIR_FORMS)]
            line = f"{stem}{male_sfx}/-{female_sfx}"
            prof = Profession(pid, kind, line, male=stem + male_sfx,
                              female=stem + female_sfx)
        for t in (prof.male, prof.female, prof.neutral):
            if t is not None and not names.claim(t):
                raise RuntimeError(f"generator: title collision {t!r}")
        professions.append(prof)

    def article(title: str) -> dict:
        rec = {"title": title, "categories": [rng.choice(inside)]}
        records.append(rec)
        return rec

    for i, prof in enumerate(professions):
        if prof.kind == "both":
            article(prof.male)
            article(prof.female)
            prof.articles = [("male", prof.male), ("female", prof.female)]
        elif prof.kind in ("male_only", "female_only"):
            role = "male" if prof.kind == "male_only" else "female"
            kept = prof.male if role == "male" else prof.female
            other = prof.female if role == "male" else prof.male
            article(kept)
            prof.articles = [(role, kept)]
            how = i % 3
            if how == 0:
                records.append({"title": other, "redirect_target": kept})
            elif how == 1:
                mid = other + " (Beruf)"
                names.claim(mid)
                records.append({"title": other, "redirect_target": mid})
                records.append({"title": mid, "redirect_target": kept})
            # how == 2: the other title has no page at all
        elif prof.kind == "neutral":
            article(prof.neutral)
            prof.articles = [("neutral", prof.neutral)]
        elif prof.kind == "none":
            # an article outside the profession closure counts as absent
            records.append({"title": prof.male,
                            "categories": [rng.choice(_OUTSIDE_CATEGORIES
                                                      + tuple(too_deep))]})
        elif prof.kind == "cycle":
            loop = prof.male + " (Begriff)"
            names.claim(loop)
            records.append({"title": prof.male, "redirect_target": loop})
            records.append({"title": loop, "redirect_target": prof.male})

    # ---- near variants of profession articles; reviewers confirm or reject
    decisions = []
    with_articles = [prof for prof in professions if prof.articles]
    for k in range(p["variants"]):
        prof = with_articles[k % len(with_articles)]
        role, title = prof.articles[k % len(prof.articles)]
        var = _variant(rng, title, names, below=k % 2 == 0,
                       substitute=k % 4 < 2)
        if var is None:
            continue
        article(var)
        if k % 2 == 0:
            decisions.append([prof.pid, var, "confirm", role])
            prof.confirmed.append((role, var))
        else:
            decisions.append([prof.pid, var, "reject", ""])

    # ---- unrelated closure articles (the matcher's haystack)
    for k in range(p["fillers"]):
        suffix = _FILLER_SUFFIXES[k % len(_FILLER_SUFFIXES)]
        while True:
            title = names.stem(length=_STEM_LENGTHS[k // len(
                _FILLER_SUFFIXES) % len(_STEM_LENGTHS)]) + suffix
            if names.claim(title):
                break
        rec = article(title)
        rec["plain_text"] = f"{title} ist ein Bereich der Arbeit."

    # ---- article texts, outlinks and images
    lexicon_first = _MALE_NAMES + _FEMALE_NAMES + _AMBIGUOUS_NAMES
    by_title = {rec["title"]: rec for rec in records}
    image_slots: list[tuple[str, str, str]] = []  # (filename, role, pid)
    for prof in professions:
        for n_art, (role, title) in enumerate(prof.articles + prof.confirmed):
            rec = by_title[title]
            linked = [persons[rng.randrange(len(persons))]
                      for _ in range(rng.randint(*p["outlinks"]))]
            outlinks = list(linked)
            if n_art == 0:
                outlinks.append(f"{names.stem()} (fehlt)")  # missing page
                outlinks.append(rng.choice(with_articles).articles[0][1])
            sentences = []
            for s in range(rng.randint(*p["sentences"])):
                pick = s % 4
                if pick == 0 and linked:
                    who = linked[s // 4 % len(linked)]
                elif pick == 1:
                    who = (rng.choice(lexicon_first) + " "
                           + names.stem((2, 2)))
                elif pick == 2:
                    who = rng.choice(_UNKNOWN_NAMES) + " " + names.stem((2, 2))
                else:
                    sentences.append(
                        f"Die {rng.choice(_NOUNS)} in {rng.choice(_CITIES)} "
                        f"{rng.choice(_VERBS)} den Beruf {title}.")
                    continue
                sentences.append(f"{who} {rng.choice(_VERBS)} als {title} "
                                 f"in der {rng.choice(_NOUNS)}.")
            rec["plain_text"] = " ".join(sentences)
            rec["outlinks"] = outlinks
            if (role, title) in prof.confirmed:
                continue  # confirmed variants carry no images
            images = []
            low, high = p["images_per_article"]
            # cycled, so the number of images (the chi-square N) is the
            # same for every seed
            for k in range(low + len(image_slots) % (high - low + 1)):
                fname = f"{title.replace(' ', '_')}_{k + 1}.jpg"
                images.append({"filename": fname, "media_format": "jpg",
                               "width": rng.randint(120, 1200)})
                image_slots.append((fname, role, prof.pid))
            images.append({"filename": f"{title.replace(' ', '_')}_Symbol.svg",
                           "media_format": "svg", "width": 400})
            images.append({"filename": f"{title.replace(' ', '_')}_Mini.jpg",
                           "media_format": "jpg", "width": 80})
            rec["images"] = images

    # ---- crowd annotations
    n_good = 12
    good = [f"w{i:02d}" for i in range(n_good)]
    bad = ["x01", "x02"]
    rows: list[list] = []
    clock = [1000]

    def respond(worker, image, category):
        count, gender = rng.choice(_ANSWERS[category])
        rows.append([worker, image, clock[0], count, gender])
        clock[0] += 1
        return len(rows) - 1

    gold_rows = []
    pivot = None
    pivot_row = None
    seen_per_role: dict[str, int] = {}
    for idx, (fname, role, _pid) in enumerate(image_slots):
        cycle = _CATEGORY_CYCLES[role]
        seen = seen_per_role.get(role, 0)
        seen_per_role[role] = seen + 1
        truth = cycle[seen % len(cycle)]
        is_gold = idx % max(1, round(1 / p["gold_share"])) == 0
        if pivot is None and not is_gold and idx >= 1:
            # exactly three judgments, men by two to one; the rerun edit
            # turns one "men" answer into "women"
            pivot = fname
            workers = rng.sample(good, 3)
            respond(workers[0], fname, "men")
            pivot_row = respond(workers[1], fname, "men")
            respond(workers[2], fname, "women")
            continue
        if is_gold:
            gold_rows.append([fname, truth])
        n_judge = rng.randint(*p["judgments"])
        workers = rng.sample(good, n_judge)
        for j, worker in enumerate(workers):
            dissent = (not is_gold and j == n_judge - 1 and n_judge > 3
                       and rng.random() < 0.5)
            respond(worker, fname,
                    rng.choice(_CATEGORIES) if dissent else truth)
        if idx % 7 == 3 and not is_gold:  # a gold miss would count as wrong
            rows.append([rng.choice(good), fname, clock[0], "not_shown", "none"])
            clock[0] += 1
    # unreliable workers miss every gold item and are removed with all their
    # answers, so they never change an aggregated category
    gold_images = [g for g, _ in gold_rows]
    for worker in bad:
        for fname in rng.sample(gold_images, min(2, len(gold_images))):
            wrong = next(c for c in _CATEGORIES
                         if c != dict(gold_rows)[fname])
            respond(worker, fname, wrong)
        for fname, _, _ in rng.sample(image_slots, min(6, len(image_slots))):
            respond(worker, fname, rng.choice(_CATEGORIES))
    if pivot is None:
        raise RuntimeError("generator: no pivot image")

    header = ["worker_id", "image_id", "timestamp", "count_answer",
              "gender_answer"]
    annotations = _csv_text(header, rows)
    edited = [list(r) for r in rows]
    edited[pivot_row][3:5] = ["one_person", "female"]
    edited_annotations = _csv_text(header, edited)

    # ---- hits, labor statistics and classifier
    hits_rows = []
    stats_rows = []
    classifier_rows = []
    code = 4100
    labor_k = 0
    for i, prof in enumerate(professions):
        group = _EXPECTED_GROUP[prof.kind]
        male_hits = rng.randint(2_000, 3_000_000)
        lean = {"male_bias": 2.5, "female_bias": 0.5}.get(group, 1.0)
        female_hits = max(1, int(male_hits / lean * rng.uniform(0.5, 1.5)))
        hits_rows.append([prof.pid, male_hits, female_hits])
        if i % 5 == 4:
            continue  # no labor statistics for this profession
        share = _LABOR_SHARES[labor_k % len(_LABOR_SHARES)]
        labor_k += 1
        share = min(0.97, max(0.03, share + rng.uniform(-0.05, 0.05)))
        total = rng.randint(2_000, 900_000)
        women = int(round(total * share))
        code += rng.randint(1, 9)
        stats_rows.append([str(code), f"Berufsgruppe {code}",
                           total - women, women])
        name = prof.male or prof.neutral
        # every third entry names a finer code resolved by prefix
        classifier_rows.append([name, f"{code}{rng.randint(1, 9)}"
                                if i % 3 == 0 else str(code)])

    # ---- write
    records.sort(key=lambda r: r["title"])
    page_id = 1
    with open(out / "snapshot.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            full = {"title": rec["title"], "exists": True,
                    "redirect_target": rec.get("redirect_target"),
                    "categories": rec.get("categories", []),
                    "outlinks": rec.get("outlinks", []),
                    "images": rec.get("images", []),
                    "plain_text": rec.get("plain_text", ""),
                    "page_id": page_id}
            page_id += 1
            fh.write(json.dumps(full, ensure_ascii=False, sort_keys=True))
            fh.write("\n")

    files = {
        "professions.txt": "".join(prof.line + "\n" for prof in professions),
        "match_decisions.csv": _csv_text(
            ["profession_id", "article_title", "verdict", "gender_group"],
            decisions),
        "hits.csv": _csv_text(["profession_id", "hits_male", "hits_female"],
                              hits_rows),
        "labor_stats.csv": _csv_text(["code", "label", "men", "women"],
                                     stats_rows),
        "labor_classifier.csv": _csv_text(["name", "code"], classifier_rows),
        "gender_lexicon.csv": _csv_text(
            ["name", "gender"],
            [[n, "m"] for n in _MALE_NAMES] + [[n, "f"] for n in _FEMALE_NAMES]
            + [[n, "ambiguous"] for n in _AMBIGUOUS_NAMES]),
        "birth_years.csv": _csv_text(["page_title", "year"], birth_rows),
        "annotations.csv": annotations,
        "gold_labels.csv": _csv_text(["image_id", "category"], gold_rows),
    }
    config = {key: key + ".csv" for key in (
        "match_decisions", "hits", "labor_stats", "labor_classifier",
        "gender_lexicon", "birth_years", "annotations", "gold_labels")}
    config.update(professions="professions.txt", snapshot="snapshot.jsonl",
                  out_dir="out", seed=CONFIG_SEED,
                  mc_iterations=MC_ITERATIONS)
    files["config.json"] = json.dumps(config, sort_keys=True, indent=2) + "\n"
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")

    return Truth(
        bias_groups={prof.pid: _EXPECTED_GROUP[prof.kind]
                     for prof in professions},
        pivot_image=pivot, pivot_before="men", pivot_after="women",
        edited_annotations=edited_annotations)
