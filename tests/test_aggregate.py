import re

import numpy as np
import pytest

from spanqa.aggregate import AGGREGATORS, QAResult, classify_report, decide
from spanqa.classifier import SpanClassifier
from spanqa.corpus import SynthesisConfig, generate_synthetic_corpus
from spanqa.encoder import HashedWindowEncoder
from spanqa.model import SpanScoringModel
from spanqa.types import ReportPair, ValidationError


def aggregate_average(scores) -> float:
    return decide("r", scores, "average", 0.5).aggregate_score


def aggregate_min(scores) -> float:
    return decide("r", scores, "minimum", 0.5).aggregate_score


class TestAggregators:
    def test_a_rule_added_to_the_table_is_the_one_decide_applies(self, monkeypatch):
        # the table is the one owner: a new name means its own rule, not min
        monkeypatch.setitem(AGGREGATORS, "maximum", max)
        r = decide("r", [0.2, 0.9], "maximum", 0.5)
        assert (r.aggregate_score, r.verdict) == (0.9, 1)

    def test_average_of_case_study_scores(self):
        # benign-edit pair of scores; mean is plain scalar arithmetic
        assert aggregate_average([0.9440, 0.9098]) == pytest.approx(0.9269, abs=1e-12)

    def test_min_of_case_study_scores(self):
        assert aggregate_min([0.0479, 0.0419]) == 0.0419

    def test_singletons(self):
        assert aggregate_average([0.37]) == 0.37
        assert aggregate_min([0.37]) == 0.37

    def test_average_against_naive_summation(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            scores = rng.uniform(0.001, 0.999, size=rng.integers(1, 40))
            naive = sum(float(s) for s in scores) / len(scores)
            assert aggregate_average(scores) == pytest.approx(naive, abs=1e-12)

    def test_min_permutation_invariant(self):
        rng = np.random.default_rng(3)
        scores = list(rng.uniform(0, 1, size=9))
        shuffled = list(scores)
        rng.shuffle(shuffled)
        assert aggregate_min(scores) == aggregate_min(shuffled)

    def test_minimum_dominance(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            scores = rng.uniform(0.001, 0.999, size=rng.integers(1, 20))
            assert aggregate_min(scores) <= aggregate_average(scores)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bitwise_equal_to_numpy(self, seed):
        # the mean reproduces numpy's pairwise summation, whose rounding
        # differs from a sequential sum at most lengths above 7
        rng = np.random.default_rng(seed)
        for n in [*range(1, 301), 1000, 10000]:
            x = rng.uniform(0, 1, size=n)
            mean, low = float(np.mean(x)), float(np.min(x))
            for given in (x.tolist(), tuple(x.tolist()), x):
                assert aggregate_average(given).hex() == mean.hex(), (n, type(given))
                assert aggregate_min(given).hex() == low.hex(), (n, type(given))


class TestDecide:
    def test_strict_threshold(self):
        r = decide("r", [0.5], "average", threshold=0.5)
        assert r.verdict == 0  # score exactly at tau is unqualified
        assert decide("r", [0.50001], "average", 0.5).verdict == 1

    def test_spanless_rule(self):
        r = decide("r", [], "minimum", threshold=0.99)
        assert r == QAResult("r", [], 1.0, 1, "minimum", 0.99)

    @pytest.mark.parametrize("scores", [[], (), np.array([])], ids=["list", "tuple", "array"])
    def test_spanless_rule_for_every_empty_sequence(self, scores):
        r = decide("r", scores, "average", 0.25)
        assert r == QAResult("r", [], 1.0, 1, "average", 0.25)
        assert type(r.span_scores) is list

    def test_min_flags_single_bad_span_average_passes(self):
        scores = [0.2, 0.9, 0.9]
        tau = 0.5
        assert decide("r", scores, "minimum", tau).verdict == 0
        assert decide("r", scores, "average", tau).verdict == 1

    def test_min_unqualified_whenever_average_is(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            scores = list(rng.uniform(0.001, 0.999, size=rng.integers(1, 10)))
            tau = float(rng.uniform(0.05, 0.95))
            if decide("r", scores, "average", tau).verdict == 0:
                assert decide("r", scores, "minimum", tau).verdict == 0

    def test_raising_a_span_score_never_unqualifies(self):
        rng = np.random.default_rng(6)
        for agg in ("average", "minimum"):
            for _ in range(300):
                scores = list(rng.uniform(0.01, 0.99, size=rng.integers(1, 8)))
                tau = float(rng.uniform(0.1, 0.9))
                before = decide("r", scores, agg, tau).verdict
                if before == 1:
                    k = int(rng.integers(0, len(scores)))
                    scores[k] = min(0.999, scores[k] + float(rng.uniform(0, 0.5)))
                    assert decide("r", scores, agg, tau).verdict == 1

    def test_unknown_aggregator(self):
        # the name is checked before the spanless rule answers
        for scores in ([0.5], [], (), np.array([])):
            with pytest.raises(ValidationError, match="unknown aggregator 'median'"):
                decide("r", scores, "median", 0.5)

    @pytest.mark.parametrize("aggregator", ["average", "minimum"])
    @pytest.mark.parametrize("scores", [[0.9, float("nan")], [float("nan"), 0.9],
                                        [0.9, float("inf")], [float("-inf")]])
    def test_non_finite_score_is_refused_in_either_order(self, aggregator, scores):
        # a NaN used to decide by its position: minimum called [0.9, nan] qualified
        with pytest.raises(ValidationError, match=r"^report 'r7': span scores .* not all finite"):
            decide("r7", scores, aggregator, 0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf"), None, "0.5",
                                           True])
    @pytest.mark.parametrize("scores", [[0.4], []])
    def test_threshold_outside_the_unit_interval_is_refused(self, threshold, scores):
        with pytest.raises(ValidationError, match=r"^report 'r7': threshold must be a number "
                                                  r"in \[0, 1\]"):
            decide("r7", scores, "average", threshold)

    @pytest.mark.parametrize("score", [None, "high", [0.5], 10**400],
                             ids=["null", "string", "list", "huge-int"])
    def test_score_that_is_no_number_is_refused(self, score):
        with pytest.raises(ValidationError, match="^report 'r7': "):
            decide("r7", [0.5, score], "minimum", 0.5)

    def test_unhashable_aggregator_is_unknown(self):
        with pytest.raises(ValidationError, match=r"unknown aggregator \['average'\]"):
            decide("r", [0.5], ["average"], 0.5)


def stub_model(threshold=0.5, seed=0):
    backend = HashedWindowEncoder(dim=8, window=1, buckets=64, seed=seed)
    clf = SpanClassifier(8, 4, seed=seed)
    return SpanScoringModel(backend, clf, threshold, {})


class TestClassifyReport:
    def test_spanless_report_is_qualified(self):
        model = stub_model(threshold=0.9)
        r = classify_report(ReportPair("r", "abc", "abc"), model, "minimum")
        assert (r.verdict, r.aggregate_score, r.span_scores) == (1, 1.0, [])

    @pytest.mark.parametrize("aggregator", ["median", ["average"]], ids=["unknown", "unhashable"])
    def test_unedited_report_still_checks_the_aggregator(self, aggregator):
        # the spanless answer comes after the name check, as in decide
        with pytest.raises(ValidationError, match=re.escape(
                f"unknown aggregator {aggregator!r}; use one of ('average', 'minimum')")):
            classify_report(ReportPair("r", "abc", "abc"), stub_model(), aggregator)

    @pytest.mark.parametrize("threshold", [float("nan"), 1.5, None, "0.5", True])
    def test_unedited_report_still_checks_a_reassigned_threshold(self, threshold):
        model = stub_model()
        model.threshold = threshold  # set after __post_init__ checked it
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"report 'r': threshold must be a number in [0, 1], got {threshold!r}") + "$"):
            classify_report(ReportPair("r", "abc", "abc"), model, "minimum")

    def test_scores_one_per_span(self):
        model = stub_model()
        r = classify_report(ReportPair("r", "axbyc", "aqbrc"), model, "average")
        assert len(r.span_scores) == 2
        assert all(0 < s < 1 for s in r.span_scores)
        assert r.aggregate_score == pytest.approx(sum(r.span_scores) / 2)

    def test_uses_model_threshold_by_default(self):
        model = stub_model(threshold=0.123)
        r = classify_report(ReportPair("r", "axb", "ayb"), model, "minimum")
        assert r.threshold == 0.123

    def test_aggregators_can_disagree_on_synthetic_reports(self):
        # trained-free stub scores spread around 0.5; with a mid threshold the
        # minimum aggregator must flag at least as many reports as the average
        ds, _ = generate_synthetic_corpus(
            SynthesisConfig(n_reports=60, benign_edit_rate=0.2,
                            harmful_edit_rate=0.2, seed=8))
        model = stub_model(threshold=0.5, seed=3)
        flags_min = flags_avg = 0
        for pair in ds:
            flags_min += classify_report(pair, model, "minimum").verdict == 0
            flags_avg += classify_report(pair, model, "average").verdict == 0
        assert flags_min >= flags_avg
