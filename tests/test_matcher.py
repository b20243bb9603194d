import random
import unicodedata
from collections import Counter

import pytest
from oracles import lev_ratio, naive_lev

from profaudit import matcher
from profaudit.matcher import MatchStatus


ALPHABET = "abcdefäöüß"


def brute_match(professions, titles, d_max, r_min):
    """Every pair through the full DP and the literal emission predicate,
    as (profession_id, role, profession title, article title, distance,
    ratio, status, gender group) rows in the order match() returns."""
    nfc = lambda s: unicodedata.normalize("NFC", s)  # noqa: E731
    rows = []
    for prof_id, role, raw in professions:
        ptitle = nfc(raw)
        for atitle in sorted({nfc(t) for t in titles}):
            longest = max(len(ptitle), len(atitle))
            if longest == 0:
                continue
            d = naive_lev(ptitle, atitle)
            if not (d <= d_max or 1.0 - d / longest >= r_min):
                continue
            if d == 0:
                rows.append((prof_id, role, ptitle, atitle, 0, 1.0,
                             MatchStatus.EXACT, role))
            else:
                rows.append((prof_id, role, ptitle, atitle, d,
                             1.0 - d / longest, MatchStatus.FUZZY, None))
    rows.sort(key=lambda r: (r[0], -r[5], r[3], r[2]))
    return rows


def as_rows(candidates):
    return [(c.profession_id, c.title_role, c.profession_title,
             c.article_title, c.distance, c.ratio, c.status, c.gender_group)
            for c in candidates]


# umlauts, sharp s and its capital (which casefold to two letters), case
# pairs, a combining diaeresis (NFC composes it) and one non-BMP code point
MATCH_ALPHABET = "aAbeEäÄöüßẞ\u0308\U0001D504"


def random_title(rng, longest=12, alphabet=MATCH_ALPHABET):
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(0, longest)))


def near_variant(rng, title, alphabet=MATCH_ALPHABET):
    chars = list(title)
    for _ in range(rng.randint(0, 4)):
        op = rng.randrange(3)
        pos = rng.randint(0, len(chars))
        if op == 0:
            chars.insert(pos, rng.choice(alphabet))
        elif chars and pos < len(chars):
            if op == 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice(alphabet)
    return "".join(chars)


def gap_variants(rng, title, alphabet, d_max, r_min):
    """Titles whose length differs from ``title``'s by exactly the cutoff
    k(longest), one shorter and one longer where such a gap exists, the
    longer one sometimes with one substitution more than k allows."""
    plen = len(title)
    out = []
    k = matcher._cutoff(plen, d_max, r_min) if plen else -1
    if 0 < k <= plen:
        chars = list(title)
        for _ in range(k):
            del chars[rng.randrange(len(chars))]
        out.append("".join(chars))
    for gap in range(1, plen + 8):
        if matcher._cutoff(plen + gap, d_max, r_min) == gap:
            chars = list(title)
            for _ in range(gap):
                chars.insert(rng.randint(0, len(chars)),
                             rng.choice(alphabet))
            if chars and rng.random() < 0.5:
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
            out.append("".join(chars))
            break
    return out


SYLLABLES = ("an", "ar", "be", "ber", "da", "de", "en", "er", "fa", "ge",
             "hal", "in", "ka", "ker", "la", "ler", "ma", "mann", "ne",
             "ner", "or", "pe", "ra", "rin", "sa", "te", "ter", "un", "ver",
             "zi")


def syllable_word(rng):
    word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 5)))
    return word.capitalize()


class TestLevDistance:
    def test_single_substitution(self):
        assert matcher.lev_distance("Richter", "Gichter") == 1

    def test_identity(self):
        assert matcher.lev_distance("Koch", "Koch") == 0

    def test_suffix_insertion(self):
        assert matcher.lev_distance("Lehrer", "Lehrerin") == 2

    def test_umlaut_is_one_edit(self):
        assert matcher.lev_distance("Arzt", "Ärzt") == 1

    def test_empty_strings(self):
        assert matcher.lev_distance("", "abc") == 3
        assert matcher.lev_distance("abc", "") == 3
        assert matcher.lev_distance("", "") == 0

    def test_matches_naive_dp_on_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(1000):
            a = "".join(rng.choice(ALPHABET)
                        for _ in range(rng.randint(0, 20)))
            b = "".join(rng.choice(ALPHABET)
                        for _ in range(rng.randint(0, 20)))
            assert matcher.lev_distance(a, b) == naive_lev(a, b)

    def test_symmetry_and_triangle(self):
        rng = random.Random(9)
        for _ in range(200):
            a, b, c = ("".join(rng.choice(ALPHABET)
                               for _ in range(rng.randint(0, 12)))
                       for _ in range(3))
            dab = matcher.lev_distance(a, b)
            assert dab == matcher.lev_distance(b, a)
            assert dab <= matcher.lev_distance(a, c) + matcher.lev_distance(c, b)


class TestLevRatio:
    """The ratio oracle (``oracles.lev_ratio``) that match is checked
    against."""

    def test_identity(self):
        assert lev_ratio("Lehrer", "Lehrer") == 1.0

    def test_lehrer_lehrerin(self):
        assert lev_ratio("Lehrer", "Lehrerin") == pytest.approx(0.75)

    def test_fully_different(self):
        assert lev_ratio("ab", "cd") == 0.0

    def test_bounds(self):
        rng = random.Random(3)
        for _ in range(300):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 15)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 15)))
            r = lev_ratio(a, b)
            assert 0.0 <= r <= 1.0
            assert (r == 1.0) == (a == b)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            lev_ratio("", "")


class TestMatch:
    def test_exact_auto_confirmed(self):
        cands = matcher.match([("p1", "male", "Lehrer")], ["Lehrer"])
        assert len(cands) == 1
        assert cands[0].status is MatchStatus.EXACT
        assert cands[0].distance == 0
        assert cands[0].ratio == 1.0
        assert cands[0].gender_group == "male"

    def test_fuzzy_candidate_emitted(self):
        cands = matcher.match([("p1", "male", "Richter")], ["Gichter"])
        assert len(cands) == 1
        assert cands[0].status is MatchStatus.FUZZY
        assert cands[0].distance == 1

    def test_below_both_thresholds_dropped(self):
        # distance 3 and ratio 0.5 must not appear
        assert matcher.lev_distance("abcdef", "abcxyz") == 3
        cands = matcher.match([("p1", "male", "abcdef")], ["abcxyz"])
        assert cands == []

    def test_threshold_completeness(self):
        # every pair meeting either threshold appears exactly once
        professions = [("p1", "male", "Lehrer"), ("p2", "female", "Hebamme")]
        titles = ["Lehrer", "Lehrerin", "Hebammen", "Amme", "Koch"]
        cands = matcher.match(professions, titles)
        seen = {(c.profession_title, c.article_title) for c in cands}
        assert len(seen) == len(cands)
        for _, _, p in professions:
            for t in titles:
                d = matcher.lev_distance(p, t)
                r = lev_ratio(p, t)
                assert ((p, t) in seen) == (d <= 2 or r >= 0.8)

    def test_sorted_by_ratio_descending(self):
        cands = matcher.match([("p1", "male", "Lehrer")],
                              ["Lehrer", "Lehrerin", "Lehre"])
        assert [c.article_title for c in cands[:2]] == ["Lehrer", "Lehre"]
        ratios = [c.ratio for c in cands]
        assert ratios == sorted(ratios, reverse=True)

    def test_case_sensitivity_default_and_fold(self):
        cands = matcher.match([("p1", "male", "koch")], ["KOCH"])
        assert all(c.distance > 0 for c in cands)


class TestBoundedDistance:
    def test_matches_naive_dp_within_cutoff(self):
        rng = random.Random(77)
        for _ in range(2000):
            a = random_title(rng, 20)
            b = (near_variant(rng, a) if rng.random() < 0.5
                 else random_title(rng, 20))
            k = rng.randint(0, 8)
            d = naive_lev(a, b)
            got = matcher._bounded_distance(matcher._match_masks(a), len(a),
                                            b, k)
            assert got == (d if d <= k else -1), (a, b, k)

    def test_pattern_longer_than_a_machine_word(self):
        a = "Kraftfahrzeugmechatroniker" * 4
        b = a[:50] + "x" + a[51:] + "in"
        assert len(a) > 64
        got = matcher._bounded_distance(matcher._match_masks(a), len(a),
                                        b, 3)
        assert got == naive_lev(a, b) == 3


class TestSegmentFilter:
    def test_kernel_runs_on_few_admitted_pairs(self, monkeypatch):
        rng = random.Random(4242)
        professions = [(f"p{i}", "neutral", syllable_word(rng))
                       for i in range(200)]
        titles = [syllable_word(rng) for _ in range(4000)]
        # pairs the length buckets admit: length gap at most k(longest)
        lengths = Counter(len(t) for t in set(titles))
        admitted = 0
        for _, _, p in professions:
            for alen, count in lengths.items():
                longest = max(len(p), alen)
                if abs(len(p) - alen) <= matcher._cutoff(longest, 2, 0.8):
                    admitted += count
        calls = 0
        kernel = matcher._bounded_distance

        def counting(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(matcher, "_bounded_distance", counting)
        cands = matcher.match(professions, titles)
        assert cands and admitted > 100_000
        assert calls < 0.10 * admitted, (calls, admitted)

    def test_logs_admitted_verified_and_candidates(self, caplog):
        with caplog.at_level("INFO", logger="profaudit.matcher"):
            cands = matcher.match([("p1", "male", "Lehrer")],
                                  ["Lehrer", "Lehrerin", "Koch", "Abt"])
        assert len(cands) == 2
        # "Abt" is three letters shorter, past k(6) = 2; "Koch" shares no
        # segment with "Lehrer" near its own position
        assert caplog.messages == [
            "match: 3 pairs admitted by length, 2 verified, 2 candidates"]


class TestCutoff:
    def test_float_boundary_at_length_15_is_kept(self):
        # 1 - 3/15 == 0.8 in float, while floor(15 * (1 - 0.8)) == 2
        assert 1.0 - 3 / 15 >= 0.8
        assert matcher._cutoff(15, 2, 0.8) == 3

    def test_float_boundary_below_r_min_is_dropped(self):
        # 1 - 9/10 is just below 0.1 in float
        assert 1.0 - 9 / 10 < 0.1
        assert matcher._cutoff(10, 2, 0.1) == 8

    def test_nothing_accepted(self):
        assert matcher._cutoff(5, -1, 1.5) == -1


class TestMatchAgainstBruteForce:
    # case_fold=False: match() compares case-sensitively, its only mode
    @pytest.mark.parametrize("case_fold", [False])
    @pytest.mark.parametrize("d_max", [0, 1, 2, 3, 4])
    def test_random_inputs(self, d_max, case_fold):
        rng = random.Random(1000 * d_max + case_fold)
        for r_min in (0, 0.1, 2 / 3, 0.7, 0.75, 0.8, 0.9, 1):
            bases = [random_title(rng) for _ in range(6)] + [""]
            professions = [(f"p{i % 4}", rng.choice(["male", "female",
                                                     "neutral"]), t)
                           for i, t in enumerate(bases)]
            titles = ([near_variant(rng, t) for t in bases for _ in range(3)]
                      + [random_title(rng) for _ in range(10)]
                      + [unicodedata.normalize("NFD", bases[0]), ""])
            got = as_rows(matcher.match(professions, titles, d_max=d_max,
                                        r_min=r_min))
            assert got == brute_match(professions, titles, d_max,
                                      r_min), r_min

    # 120 cases for each of 3 alphabets x 6 values of d_max: 2,160 cases
    @pytest.mark.parametrize("d_max", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("alphabet", ["ab", "abc", MATCH_ALPHABET])
    def test_segment_filter_edge_cases(self, alphabet, d_max):
        """Two- and three-letter alphabets make segments collide; titles
        shorter than k+1 (empty ones included) have no segment index; a
        length gap of exactly k leaves one position per window."""
        rng = random.Random(f"segments:{alphabet}:{d_max}")
        for case in range(120):
            r_min = rng.choice((0, 0.1, 0.5, 2 / 3, 0.75, 0.8, 0.9, 1))
            bases = [random_title(rng, 9, alphabet) for _ in range(3)]
            titles = ["", random_title(rng, 3, alphabet)]
            for base in bases:
                titles += [near_variant(rng, base, alphabet),
                           random_title(rng, 9, alphabet),
                           unicodedata.normalize("NFD", base)]
                titles += gap_variants(rng, base, alphabet, d_max, r_min)
            professions = [(f"p{i}", "neutral", t)
                           for i, t in enumerate(bases + [""])]
            got = as_rows(matcher.match(professions, titles, d_max=d_max,
                                        r_min=r_min))
            assert got == brute_match(professions, titles, d_max,
                                      r_min), (case, r_min)

    def test_length_15_at_distance_3_emitted_by_default(self):
        p, a = "Zahntechnikerin", "Zahntechnikxyzn"
        assert len(p) == len(a) == 15 and naive_lev(p, a) == 3
        cands = matcher.match([("p1", "female", p)], [a])
        assert [(c.article_title, c.distance) for c in cands] == [(a, 3)]
        assert cands[0].ratio == 1.0 - 3 / 15

    def test_ratio_just_below_r_min_not_emitted(self):
        p, a = "abcdefghij", "aklmnopqrs"
        assert naive_lev(p, a) == 9
        assert matcher.match([("p1", "male", p)], [a], r_min=0.1) == []
        # one edit fewer clears the threshold
        cands = matcher.match([("p1", "male", p)], ["abklmnopqr"], r_min=0.1)
        assert [c.distance for c in cands] == [8]


class TestDecisions:
    def _candidates(self):
        return matcher.match(
            [("p1", "male", "Chiefsteward"), ("p2", "male", "Richter")],
            ["Chefsteward", "Gichter"])

    def test_confirm_and_reject(self, tmp_path):
        cands = self._candidates()
        path = tmp_path / "decisions.csv"
        path.write_text(
            "profession_id,article_title,verdict,gender_group\n"
            "p1,Chefsteward,confirm,male\n"
            "p2,Gichter,reject,\n",
            encoding="utf-8")
        matcher.apply_decisions(cands, path)
        by_prof = {c.profession_id: c for c in cands}
        assert by_prof["p1"].status is MatchStatus.CONFIRMED
        assert by_prof["p1"].gender_group == "male"
        assert by_prof["p2"].status is MatchStatus.REJECTED
        assert [c.profession_id for c in matcher.accepted(cands)] == ["p1"]

    def test_unknown_candidate_is_error(self, tmp_path):
        cands = self._candidates()
        path = tmp_path / "decisions.csv"
        path.write_text("p9,Nirgendwo,confirm,male\n", encoding="utf-8")
        with pytest.raises(ValueError, match="Nirgendwo"):
            matcher.apply_decisions(cands, path)

    @pytest.mark.parametrize("second", ["Chefsteward", " Chefsteward "])
    def test_repeated_pair_names_both_rows(self, tmp_path, second):
        cands = self._candidates()
        path = tmp_path / "decisions.csv"
        path.write_text("p1,Chefsteward,confirm,male\n"
                        "p2,Gichter,reject,\n"
                        f"p1,{second},reject,\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            matcher.apply_decisions(cands, path)
        assert str(err.value) == (
            "decisions row 3: duplicate (profession_id, article_title) "
            "('p1', 'Chefsteward') (first on row 1)")

    def test_repeated_pair_compared_after_nfc(self, tmp_path):
        cands = matcher.match([("p1", "male", "Bäcker")], ["Bäckerin"])
        path = tmp_path / "decisions.csv"
        path.write_text("p1,B\u00e4ckerin,confirm,male\n"
                        "p1,Ba\u0308ckerin,reject,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2: duplicate .*row 1"):
            matcher.apply_decisions(cands, path)

    def test_unknown_verdict_is_error(self, tmp_path):
        cands = self._candidates()
        path = tmp_path / "decisions.csv"
        path.write_text("p1,Chefsteward,maybe,male\n", encoding="utf-8")
        with pytest.raises(ValueError, match="maybe"):
            matcher.apply_decisions(cands, path)
