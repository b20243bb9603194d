import itertools

import pytest

from profaudit import images, stats
from profaudit.corpus import ImageRef
from profaudit.images import (AnnotationResponse, CountAnswer, GenderAnswer,
                              ImageCategory, aggregate, filter_images,
                              map_response, score_workers)


def resp(worker, image, ts, count, gender):
    return AnnotationResponse(worker, image, ts, CountAnswer(count),
                              GenderAnswer(gender))


class TestFilterImages:
    def test_width_boundary_strict(self):
        refs = [ImageRef("a.jpg", 100, "jpg"), ImageRef("b.jpg", 101, "jpg")]
        kept = filter_images(refs, 100)
        assert [r.filename for r in kept] == ["b.jpg"]

    def test_vector_and_media_formats_excluded(self):
        refs = [ImageRef("logo.svg", 500, "svg"),
                ImageRef("ton.ogg", 500, "ogg"),
                ImageRef("film.ogv", 500, "ogv"),
                ImageRef("foto.jpg", 500, "jpg")]
        kept = filter_images(refs, 100)
        assert [r.filename for r in kept] == ["foto.jpg"]


LEGAL_PAIRS = {
    (CountAnswer.NOT_SHOWN, GenderAnswer.NONE): None,
    (CountAnswer.NO_PERSON, GenderAnswer.NONE): ImageCategory.NO_PERSON,
    (CountAnswer.ONE_PERSON, GenderAnswer.MALE): ImageCategory.MEN,
    (CountAnswer.ONE_PERSON, GenderAnswer.FEMALE): ImageCategory.WOMEN,
    (CountAnswer.ONE_PERSON, GenderAnswer.NOT_RECOGNIZABLE):
        ImageCategory.NOT_RECOGNIZABLE,
    (CountAnswer.SEVERAL_ONE_DOMINANT, GenderAnswer.MALE): ImageCategory.MEN,
    (CountAnswer.SEVERAL_ONE_DOMINANT, GenderAnswer.FEMALE):
        ImageCategory.WOMEN,
    (CountAnswer.SEVERAL_ONE_DOMINANT, GenderAnswer.NOT_RECOGNIZABLE):
        ImageCategory.NOT_RECOGNIZABLE,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.ONLY_MALE):
        ImageCategory.MEN,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.ONLY_FEMALE):
        ImageCategory.WOMEN,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.MIXED_MOSTLY_MALE):
        ImageCategory.MEN,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.MIXED_MOSTLY_FEMALE):
        ImageCategory.WOMEN,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.MIXED_EQUAL):
        ImageCategory.MIXED_EQUAL,
    (CountAnswer.SEVERAL_NO_DOMINANT, GenderAnswer.NOT_RECOGNIZABLE):
        ImageCategory.NOT_RECOGNIZABLE,
}


class TestMapping:
    @pytest.mark.parametrize("pair,expected", list(LEGAL_PAIRS.items()))
    def test_every_legal_pair(self, pair, expected):
        count, gender = pair
        r = AnnotationResponse("w", "i", 0, count, gender)
        assert map_response(r) is expected

    def test_illegal_pairs_rejected(self):
        legal = set(LEGAL_PAIRS)
        for count, gender in itertools.product(CountAnswer, GenderAnswer):
            if (count, gender) in legal:
                continue
            with pytest.raises(ValueError):
                AnnotationResponse("w", "i", 0, count, gender)


def gold_batch_responses(correct_n, total=10):
    """One worker, ten responses, all on gold-labeled images."""
    gold = {}
    responses = []
    for i in range(total):
        image = f"img{i:02d}"
        gold[image] = ImageCategory.MEN
        answer = "male" if i < correct_n else "female"
        responses.append(resp("w1", image, i, "one_person", answer))
    return responses, gold


class TestWorkerScoring:
    def test_all_gold_correct_stays_active(self):
        responses, gold = gold_batch_responses(10)
        records, retained = score_workers(responses, gold, set(gold))
        assert records[0].active
        assert records[0].accuracy == 1.0
        assert len(retained) == 10

    def test_six_of_ten_removed(self):
        responses, gold = gold_batch_responses(6)
        records, retained = score_workers(responses, gold, set(gold),
                                          threshold=0.7)
        assert not records[0].active
        assert records[0].accuracy == pytest.approx(0.6)
        assert retained == []

    def test_seven_of_ten_survives(self):
        responses, gold = gold_batch_responses(7)
        records, retained = score_workers(responses, gold, set(gold),
                                          threshold=0.7)
        assert records[0].active
        assert len(retained) == 10

    def test_no_gold_encountered_accuracy_one(self):
        responses = [resp("w1", "img00", 0, "one_person", "male")]
        records, retained = score_workers(responses, {}, {"img00"})
        assert records[0].accuracy == 1.0
        assert records[0].active
        assert len(retained) == 1

    def test_failure_in_second_batch_discards_everything(self):
        # batch 1 clean, batch 2 tanks the accuracy: all 20 responses go
        responses, gold = gold_batch_responses(10)
        for i in range(10, 20):
            image = f"img{i:02d}"
            gold[image] = ImageCategory.MEN
            responses.append(resp("w1", image, i, "one_person", "female"))
        records, retained = score_workers(responses, gold, set(gold))
        assert not records[0].active
        assert retained == []

    def test_unknown_image_is_error(self):
        responses = [resp("w1", "geist", 0, "one_person", "male")]
        with pytest.raises(ValueError, match="geist"):
            score_workers(responses, {}, {"img00"})

    def test_threshold_monotonicity(self):
        # lowering the threshold never discards more workers
        responses = []
        gold = {}
        for w, correct in (("w1", 10), ("w2", 8), ("w3", 6), ("w4", 3)):
            rs, g = gold_batch_responses(correct)
            responses.extend(r.__class__(w, r.image_id, r.timestamp,
                                         r.count_answer, r.gender_answer)
                             for r in rs)
            gold.update(g)
        active_at = {}
        for thr in (0.9, 0.7, 0.5, 0.2):
            records, _ = score_workers(responses, gold, set(gold),
                                       threshold=thr)
            active_at[thr] = {r.worker_id for r in records if r.active}
        assert active_at[0.9] <= active_at[0.7] <= active_at[0.5] <= active_at[0.2]


class TestAggregate:
    def test_unanimous_men(self):
        rs = [resp(f"w{i}", "img", i, "one_person", "male") for i in range(3)]
        assert aggregate(rs) is ImageCategory.MEN

    def test_mapped_before_majority(self):
        rs = [resp("w1", "img", 0, "several_one_dominant", "female"),
              resp("w2", "img", 1, "several_no_dominant", "mixed_mostly_female"),
              resp("w3", "img", 2, "one_person", "female")]
        assert aggregate(rs) is ImageCategory.WOMEN

    def test_no_majority_unresolved(self):
        rs = [resp("w1", "img", 0, "one_person", "male"),
              resp("w2", "img", 1, "one_person", "female"),
              resp("w3", "img", 2, "several_no_dominant", "mixed_equal")]
        assert aggregate(rs) is ImageCategory.UNRESOLVED

    def test_two_two_tie_unresolved(self):
        rs = [resp("w1", "img", 0, "one_person", "male"),
              resp("w2", "img", 1, "one_person", "male"),
              resp("w3", "img", 2, "one_person", "female"),
              resp("w4", "img", 3, "one_person", "female")]
        assert aggregate(rs) is ImageCategory.UNRESOLVED

    def test_not_shown_dropped_before_quorum(self):
        rs = [resp("w1", "img", 0, "not_shown", "none"),
              resp("w2", "img", 1, "one_person", "male"),
              resp("w3", "img", 2, "one_person", "male")]
        assert aggregate(rs) is ImageCategory.UNRESOLVED  # two mapped < 3

    def test_plurality_without_majority_unresolved(self):
        rs = [resp("w1", "img", 0, "one_person", "male"),
              resp("w2", "img", 1, "one_person", "male"),
              resp("w3", "img", 2, "one_person", "female"),
              resp("w4", "img", 3, "no_person", "none"),
              resp("w5", "img", 4, "several_no_dominant", "mixed_equal")]
        assert aggregate(rs) is ImageCategory.UNRESOLVED


class TestKappa:
    def test_perfect_agreement(self):
        retained = []
        for img, answer in (("a", "male"), ("b", "female"), ("c", "male")):
            for i in range(3):
                retained.append(resp(f"w{i}", img, i, "one_person", answer))
        res = images.kappa_from_responses(retained)
        assert res.kappa == pytest.approx(1.0, abs=1e-12)

    def test_downsampling_to_first_three(self):
        retained = []
        for i in range(3):
            retained.append(resp(f"w{i}", "a", i, "one_person", "male"))
        # a later contradicting response must be ignored by down-sampling
        retained.append(resp("w9", "a", 99, "one_person", "female"))
        for i in range(3):
            retained.append(resp(f"w{i}", "b", i, "one_person", "female"))
        res = images.kappa_from_responses(retained)
        assert res.kappa == pytest.approx(1.0, abs=1e-12)


class TestDistributions:
    def test_proportions_sum_to_one(self):
        items = [("g1", ImageCategory.MEN)] * 7 + \
                [("g1", ImageCategory.WOMEN)] * 3 + \
                [("g1", ImageCategory.UNRESOLVED)] + \
                [("g2", ImageCategory.NO_PERSON)] * 5 + \
                [("g2", ImageCategory.MEN)] * 5
        dist = images.distributions(items, "test", b=500, seed=3)
        for g in dist["groups"]:
            assert abs(sum(g["proportions"].values()) - 1.0) < 1e-12
        by_name = {g["group"]: g for g in dist["groups"]}
        assert by_name["g1"]["unresolved"] == 1
        assert by_name["g1"]["n"] == 10

    def test_single_group_skips_tests(self):
        items = [("nur", ImageCategory.MEN), ("nur", ImageCategory.WOMEN),
                 ("nur", ImageCategory.MEN)]
        dist = images.distributions(items, "test", b=500, seed=3)
        assert dist["overall_test"] is None
        assert dist["pairwise_tests"] == []

    def test_two_groups_tested_with_posthoc(self):
        items = [("a", ImageCategory.MEN)] * 9 + [("a", ImageCategory.WOMEN)] + \
                [("b", ImageCategory.WOMEN)] * 9 + [("b", ImageCategory.MEN)]
        dist = images.distributions(items, "test", b=2000, seed=11)
        assert dist["overall_test"] is not None
        assert dist["overall_test"]["p"] < 0.05
        assert dist["posthoc_tests"]
        assert dist["bh_correction"] is not None
        assert set(dist["bh_correction"]) == {"q", "m0_estimate", "reject",
                                              "adjusted_p"}
        categories = {t["category"] for t in dist["posthoc_tests"]}
        assert "men" in categories and "women" in categories

    def test_every_test_has_its_own_seed(self, monkeypatch):
        # with no table small enough to enumerate, every test is sampled
        monkeypatch.setattr(stats, "_EXACT_STEPS", 0)
        items = [("a", ImageCategory.MEN)] * 5 + \
                [("a", ImageCategory.WOMEN)] * 3 + \
                [("b", ImageCategory.WOMEN)] * 4 + \
                [("b", ImageCategory.NO_PERSON)] * 2 + \
                [("c", ImageCategory.MEN)] * 2 + \
                [("c", ImageCategory.NO_PERSON)] * 4
        dist = images.distributions(items, "t", b=200, seed=42)
        tests = [dist["overall_test"]]
        tests += [t["test"]
                  for t in dist["pairwise_tests"] + dist["posthoc_tests"]]
        # the overall 3x3, three pairwise 2x3 and the post-hoc 2x2 tables
        assert len(tests) == 4 + len(dist["posthoc_tests"]) > 9
        assert all(t["method"] == "chi2_monte_carlo" and t["B"] == 200
                   for t in tests)
        seeds = [t["seed"] for t in tests]
        assert len(set(seeds)) == len(seeds)

    def test_small_tables_are_exact_and_record_no_seed(self):
        items = [("a", ImageCategory.MEN)] * 5 + \
                [("a", ImageCategory.WOMEN)] * 3 + \
                [("b", ImageCategory.WOMEN)] * 4 + \
                [("b", ImageCategory.NO_PERSON)] * 2
        dist = images.distributions(items, "t", b=200, seed=42)
        tests = [dist["overall_test"]]
        tests += [t["test"]
                  for t in dist["pairwise_tests"] + dist["posthoc_tests"]]
        assert len(tests) > 3
        assert all((t["method"], t["B"], t["seed"]) == ("chi2_exact", None,
                                                        None) for t in tests)

    def test_deterministic_under_seed(self):
        items = [("a", ImageCategory.MEN)] * 6 + \
                [("a", ImageCategory.WOMEN)] * 4 + \
                [("b", ImageCategory.WOMEN)] * 6 + \
                [("b", ImageCategory.MEN)] * 4
        d1 = images.distributions(items, "t", b=1000, seed=42)
        d2 = images.distributions(items, "t", b=1000, seed=42)
        assert d1 == d2


class TestLoadFiles:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "responses.csv"
        p.write_text(
            "worker_id,image_id,timestamp,count_answer,gender_answer\n"
            "w1,img1,5,one_person,male\n", encoding="utf-8")
        got = images.load_responses(p)
        assert got[0].worker_id == "w1"
        assert got[0].count_answer is CountAnswer.ONE_PERSON

    def test_illegal_pair_names_row(self, tmp_path):
        p = tmp_path / "responses.csv"
        p.write_text("w1,img1,5,no_person,male\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            images.load_responses(p)

    def test_gold_labels(self, tmp_path):
        p = tmp_path / "gold.csv"
        p.write_text("image_id,category\nimg1,men\n", encoding="utf-8")
        assert images.load_gold_labels(p) == {"img1": ImageCategory.MEN}

    def test_duplicate_gold_image_names_both_rows(self, tmp_path):
        # the later row used to win and change how workers were scored
        p = tmp_path / "gold.csv"
        p.write_text("image_id,category\nimg1,men\nimg2,women\nimg1,women\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=r"^gold labels row 4: duplicate "
                           r"image_id 'img1' \(first on row 2\)$"):
            images.load_gold_labels(p)
