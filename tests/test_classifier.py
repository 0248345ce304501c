import math
import re
import warnings

import numpy as np
import pytest

from spanqa.classifier import (
    OTSU_BINS,
    Adam,
    SpanClassifier,
    otsu_threshold,
    span_loss,
)
from spanqa.types import MAX_ARRAY_MAGNITUDE, ValidationError

from reference import (ReferenceAdam, reference_backward, reference_forward,
                       reference_otsu_threshold)


class TestScoreSpan:
    def test_zero_weights_give_half(self):
        clf = SpanClassifier(dim=4, hidden=3, seed=0)
        for p in clf.params().values():
            p[:] = 0.0
        assert clf.scores(np.ones((1, 4)))[0] == 0.5

    def test_monotone_in_logit(self):
        # bypass the hidden layer: w1 = identity-ish, tanh approx linear for small inputs
        clf = SpanClassifier(dim=1, hidden=1, seed=0)
        clf.w1[:] = 1.0
        clf.b1[:] = 0.0
        clf.w2[:] = 1.0
        clf.b2[:] = 0.0
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        scores = clf.scores(xs)
        assert np.all(np.diff(scores) > 0)

    def test_open_interval(self):
        clf = SpanClassifier(dim=3, hidden=2, seed=1)
        rng = np.random.default_rng(0)
        scores = clf.scores(rng.normal(scale=50, size=(100, 3)))
        assert np.all((scores > 0) & (scores < 1))

    def test_against_independent_forward_pass(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d, h = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            clf = SpanClassifier(d, h, seed=int(rng.integers(1000)))
            s = rng.normal(size=d)
            # plain-loop reimplementation
            hidden = [math.tanh(sum(clf.w1[j, k] * s[k] for k in range(d)) + clf.b1[j])
                      for j in range(h)]
            logit = sum(clf.w2[j] * hidden[j] for j in range(h)) + clf.b2[0]
            expected = 1.0 / (1.0 + math.exp(-logit))
            assert abs(clf.scores(s.reshape(1, -1))[0] - expected) < 1e-12

    def test_dimension_mismatch(self):
        clf = SpanClassifier(dim=4, hidden=3)
        with pytest.raises(ValidationError):
            clf.scores(np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(4,), (2, 1, 3, 4), (2, 3, 5)])
    def test_embeddings_must_be_a_matrix(self, shape):
        # a matrix or a stack of them: no promotion of a row, no fourth axis,
        # and a stack is as wide as a matrix
        clf = SpanClassifier(dim=4, hidden=3)
        with pytest.raises(ValidationError, match=re.escape(f"have shape {list(shape)}")):
            clf.scores(np.zeros(shape))

    def test_a_huge_negative_logit_scores_above_zero_without_overflow(self):
        clf = SpanClassifier(dim=3, hidden=2, seed=1)
        clf.b2[...] = -1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = clf.scores(np.ones((2, 3)))
        assert np.all((scores > 0) & (scores < 1e-300))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_at_the_magnitude_bound_score_without_overflow(self, sign):
        # every parameter and embedding at +-MAX_ARRAY_MAGNITUDE: S @ w1.T and
        # the logit stay finite, and the score saturates at 1 or the clamp
        big = MAX_ARRAY_MAGNITUDE
        clf = SpanClassifier(3, 2, params={"w1": np.full((2, 3), big), "b1": np.full(2, big),
                                           "w2": np.full(2, sign * big), "b2": [sign * big]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = clf.scores(np.full((2, 3), big))
        assert np.all(scores == 1.0) if sign > 0 else np.all((scores > 0) & (scores < 1e-300))

    def test_a_huge_positive_logit_scores_one(self):
        clf = SpanClassifier(dim=3, hidden=2, seed=1)
        clf.b2[...] = 40.0
        assert np.all(clf.scores(np.ones((2, 3))) == 1.0)

    def test_the_clamp_leaves_every_score_above_it_unchanged(self):
        # logits spread over (-700, 700): the plain formula, bit for bit
        rng = np.random.default_rng(3)
        clf = SpanClassifier(dim=3, hidden=2, seed=1)
        clf.w2[...] = 349.0
        clf.b2[...] = 0.5
        S = rng.normal(scale=3.0, size=(10_000, 3))
        assert clf.scores(S).tobytes() == reference_forward(clf, S)[0].tobytes()

    def test_no_spans_give_no_scores(self):
        clf = SpanClassifier(dim=4, hidden=3)
        assert clf.scores(np.zeros((0, 4))).shape == (0,)

    def test_deterministic(self):
        clf = SpanClassifier(dim=4, hidden=3, seed=9)
        s = np.arange(4.0)
        assert clf.scores(s.reshape(1, -1))[0] == clf.scores(s.reshape(1, -1))[0]


class TestSpanLoss:
    def test_half_score_label_one(self):
        assert span_loss(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_point_nine(self):
        assert span_loss(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)
        assert span_loss(0.9, 1) == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_soft_half_label_symmetry(self):
        for p in (0.1, 0.3, 0.42, 0.9):
            assert span_loss(p, 0.5) == pytest.approx(span_loss(1 - p, 0.5), abs=1e-12)

    def test_clamp_prevents_infinities(self):
        assert math.isfinite(span_loss(0.0, 1))
        assert math.isfinite(span_loss(1.0, 0))

    def test_vectorized(self):
        out = span_loss(np.array([0.5, 0.9]), np.array([1.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(math.log(2))

    def test_convex_in_logit(self):
        # midpoint inequality on random logit triples
        rng = np.random.default_rng(5)
        def loss_at(z, y):
            return span_loss(1 / (1 + math.exp(-z)), y)
        for _ in range(100):
            z1, z2 = rng.normal(scale=3, size=2)
            y = rng.choice([0.0, 1.0, 0.3])
            mid = loss_at((z1 + z2) / 2, y)
            assert mid <= (loss_at(z1, y) + loss_at(z2, y)) / 2 + 1e-12


class TestAdam:
    def test_zero_lr_leaves_params(self):
        theta = np.ones(3)
        opt = Adam(lr=0.0)
        opt.step({"theta": theta}, {"theta": np.ones(3)})
        assert np.array_equal(theta, np.ones(3))

    def test_descends_quadratic(self):
        theta, grad = np.array([5.0]), np.zeros(1)
        opt = Adam(lr=0.1)
        for _ in range(500):
            np.multiply(2, theta, out=grad)
            opt.step({"theta": theta}, {"theta": grad})
        assert abs(theta[0]) < 1e-3


class TestFlatAdam:
    def test_matches_per_array_adam_bitwise(self):
        rng = np.random.default_rng(21)
        for lr in (1e-3, 0.05):
            clf = SpanClassifier(dim=64, hidden=32, seed=3)
            ref_params = {k: v.copy() for k, v in clf.params().items()}
            flat, ref = Adam(lr), ReferenceAdam(lr)
            grad_views = dict(zip(clf.params(), clf._grads))
            for _ in range(200):
                # the per-array gradient dict order, scales spanning decades
                grads = {name: rng.normal(scale=10.0 ** rng.uniform(-6, 2),
                                          size=ref_params[name].shape)
                         for name in ("w2", "b2", "w1", "b1")}
                for name, g in grads.items():
                    grad_views[name][...] = g
                flat.step({"theta": clf.theta}, {"theta": clf.grad})
                ref.step(ref_params, grads)
            for name, value in ref_params.items():
                assert np.array_equal(clf.params()[name], value), name
            assert list(flat.state) == ["theta"]
            assert flat.state["theta"][0].size == sum(v.size for v in ref_params.values())


class TestFlatParameters:
    def test_parameters_and_gradients_view_flat_vectors(self):
        clf = SpanClassifier(dim=5, hidden=3, seed=2)
        pos = 0
        for (name, p), g in zip(clf.params().items(), clf._grads):
            assert p.base is clf.theta and g.base is clf.grad, name
            assert np.array_equal(clf.theta[pos:pos + p.size], p.reshape(-1)), name
            assert g.shape == p.shape
            pos += p.size
        assert pos == clf.theta.size == clf.grad.size
        assert list(clf.params()) == ["w1", "b1", "w2", "b2"]

    @pytest.mark.parametrize("dim, hidden, message", [
        (4, True, "hidden must be an integer, got True"),
        (4.0, 2, "dim must be an integer, got 4.0"),
        (0, 2, "dim must be >= 1, got 0"),
        (4, 0, "hidden must be >= 1, got 0"),
    ])
    def test_non_integer_or_small_sizes_rejected(self, dim, hidden, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SpanClassifier(dim, hidden)

    def test_given_parameters_are_copied_in_and_shape_checked(self):
        given = SpanClassifier(dim=5, hidden=3, seed=2).params()
        clf = SpanClassifier(dim=5, hidden=3, seed=9, params=given)
        for name, p in clf.params().items():
            assert np.array_equal(p, given[name]) and p.base is clf.theta, name
        with pytest.raises(ValidationError, match=r"w1 has shape \[3, 5\], expected \[3, 4\]"):
            SpanClassifier(dim=4, hidden=3, params=given)
        with pytest.raises(ValidationError, match=r"b2 has shape \[1, 1\], expected \[1\]"):
            SpanClassifier(dim=5, hidden=3, params=dict(given, b2=np.zeros((1, 1))))

    @pytest.mark.parametrize("name, value, message", [
        ("w1", [["0.1"] * 5] * 3, "w1 has dtype <U3, expected real numbers"),
        ("b1", np.ones(3, dtype=complex), "b1 has dtype complex128, expected real numbers"),
        ("w2", [0.1, math.nan, 0.2], "w2 holds non-finite values"),
        ("b2", [math.inf], "b2 holds non-finite values"),
        ("b1", None, "b1 has dtype object, expected real numbers"),
    ], ids=["string", "complex", "nan", "inf", "null"])
    def test_given_parameters_are_real_and_finite(self, name, value, message):
        # strings used to raise a bare ValueError, complex ones to lose their
        # imaginary part, and non-finite ones to score every span NaN
        given = dict(SpanClassifier(dim=5, hidden=3, seed=2).params(), **{name: value})
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SpanClassifier(dim=5, hidden=3, params=given)

    def test_a_parameter_above_the_magnitude_bound_is_refused(self):
        # 1e308 is finite, but scoring with it overflowed in matmul
        params = {"w1": np.full((2, 3), 1e308), "b1": np.zeros(2), "w2": np.ones(2),
                  "b2": np.zeros(1)}
        with pytest.raises(ValidationError, match="^w1 holds values above 1e[+]150 in magnitude$"):
            SpanClassifier(3, 2, params=params)

    def test_missing_parameter_is_a_validation_error(self):
        given = SpanClassifier(dim=5, hidden=3, seed=2).params()
        del given["b1"]  # used to raise a bare KeyError
        with pytest.raises(ValidationError, match="^b1 has dtype object, expected real numbers$"):
            SpanClassifier(dim=5, hidden=3, params=given)

    def test_parameters_are_checked_before_anything_is_sized(self):
        # a 10**6 x 10**6 w1 would take 8 TB; the given arrays are refused first
        given = SpanClassifier(dim=5, hidden=3, seed=2).params()
        with pytest.raises(ValidationError, match="w1 has shape"):
            SpanClassifier(dim=10**6, hidden=10**6, params=given)

    @pytest.mark.parametrize("hidden, dim", [(2**20 + 1, 128), (1, 2**27 + 1), (2**64, 2**64)])
    def test_layer_above_the_size_cap_refused(self, hidden, dim):
        with pytest.raises(ValidationError, match=f"^hidden x dim layer of {hidden} x {dim} "
                                                  "values is above the cap of 134217728"):
            SpanClassifier(dim=dim, hidden=hidden)

    def test_forward_and_backward_match_plain_formulas_bitwise(self):
        rng = np.random.default_rng(4)
        clf = SpanClassifier(dim=16, hidden=8, seed=6)
        clf.b1[...] = rng.normal(size=8)
        clf.b2[...] = 0.3
        S = rng.normal(size=(9, 16))
        d_logit = rng.normal(size=9)
        p, a1 = reference_forward(clf, S)
        expected = reference_backward(clf, S, a1, d_logit)
        out = np.full(9, np.nan)
        scores, hidden = clf.forward(S, out=out)
        assert scores is out
        assert np.array_equal(out, p) and np.array_equal(hidden, a1)
        assert np.array_equal(clf.scores(S), p)
        clf.backward(S, hidden, d_logit)
        for name, g in zip(clf.params(), clf._grads):
            assert np.array_equal(g, expected[name]), name
        assert np.array_equal(hidden, a1)  # backward leaves its inputs alone


class TestOtsu:
    def test_bimodal(self):
        tau = otsu_threshold([0.1, 0.1, 0.9, 0.9])
        assert 0.1 < tau < 0.9

    def test_two_points(self):
        tau = otsu_threshold([0.2, 0.8])
        assert 0.2 < tau < 0.8

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            mode = rng.integers(0, 3)
            if mode == 0:
                scores = rng.uniform(0.01, 0.99, size=n)
            elif mode == 1:
                scores = np.concatenate([
                    rng.uniform(0.01, 0.2, size=max(1, n // 2)),
                    rng.uniform(0.7, 0.99, size=max(1, n - n // 2)),
                ])
            else:
                scores = np.clip(rng.beta(2, 2, size=n), 0.004, 0.996)
            try:
                tau = otsu_threshold(scores)
            except ValidationError:
                with pytest.raises(ValueError):
                    reference_otsu_threshold(scores)
                continue
            assert tau == reference_otsu_threshold(scores)

    def test_matches_reference_on_random_histograms(self):
        # scores at bin centres, so each histogram is exactly the one drawn;
        # sparse ones leave plateaus of cuts that tie
        rng = np.random.default_rng(23)
        for _ in range(100):
            occupied = rng.choice(OTSU_BINS, size=int(rng.integers(1, 12)), replace=False)
            counts = np.zeros(OTSU_BINS, dtype=np.int64)
            counts[occupied] = rng.integers(1, 1000, size=occupied.size)
            scores = np.repeat((np.arange(OTSU_BINS) + 0.5) / OTSU_BINS, counts)
            if occupied.size == 1:
                with pytest.raises(ValidationError, match="no separating threshold"):
                    otsu_threshold(scores)
                with pytest.raises(ValueError):
                    reference_otsu_threshold(scores)
                continue
            assert otsu_threshold(scores) == reference_otsu_threshold(scores)

    def test_ties_break_toward_the_lowest_cut(self):
        # one score in each of bins 10, 20 and 30: cuts 11..20 and 21..30 all
        # give the same variance, so the lowest, 11, wins
        scores = [(b + 0.5) / OTSU_BINS for b in (10, 20, 30)]
        assert otsu_threshold(scores) == reference_otsu_threshold(scores) == 11 / OTSU_BINS

    def test_squared_numerators_past_int64(self):
        # 4,000 / 3,000 / 3,000 scores at the centres of bins 10 / 100 / 250:
        # (s0*n1 - s1*n0)^2 passes 2^63 here, where int64 arithmetic wraps
        counts = {10: 4000, 100: 3000, 250: 3000}
        scores = np.repeat([(b + 0.5) / OTSU_BINS for b in counts], list(counts.values()))
        assert otsu_threshold(scores) == reference_otsu_threshold(scores) == 101 / OTSU_BINS

    def test_identical_scores_rejected(self):
        with pytest.raises(ValidationError):
            otsu_threshold([0.4, 0.4, 0.4])

    def test_single_score_rejected(self):
        with pytest.raises(ValidationError):
            otsu_threshold([0.4])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            otsu_threshold([0.0, 0.5])

    @pytest.mark.parametrize("bad", [-0.25, np.nextafter(1.0, 2.0)])
    def test_score_below_zero_or_above_one_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"interval \(0, 1\]"):
            otsu_threshold([0.2, bad, 0.8])

    def test_saturated_score_of_one_falls_in_the_last_bin(self):
        # a logit above ~36.7 scores exactly 1.0, which the classifier can give
        scores = [0.1, 0.15, 0.3, 0.9, 0.999, 1.0, 1.0]
        assert otsu_threshold(scores) == reference_otsu_threshold(scores)

    def test_nan_score_rejected(self):
        # NaN fails every comparison, so it must fail the range check rather
        # than reach the histogram as a negative bin
        with pytest.raises(ValidationError, match=r"interval \(0, 1\]"):
            otsu_threshold([0.2, float("nan"), 0.8])

    def test_threshold_strictly_between_clusters(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lo = rng.uniform(0.02, 0.3, size=5)
            hi = rng.uniform(0.6, 0.98, size=5)
            tau = otsu_threshold(np.concatenate([lo, hi]))
            assert lo.max() < tau <= hi.min()
