import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from longtail_lab import (LOSS_KINDS, LossContext, LossSpec, batch_loss_and_grad,
                          cb_weights, distribution_from_counts, draw_noise, gcl_amplitudes,
                          label_smoothing_eps, ldam_margins, loss_grad, loss_plan, loss_value,
                          loss_value_and_grad, posthoc_adjust)
from longtail_lab import jsonio, losses
from longtail_lab.losses import MULTI_LABEL_KINDS, SINGLE_LABEL_KINDS, STOCHASTIC_KINDS


def ctx_for(counts, seed=0, training=True):
    return LossContext(distribution_from_counts(counts),
                       rng=np.random.default_rng(seed), training_mode=training)


class TestReferenceValues:
    def test_ce_symmetric_logits(self):
        assert abs(loss_value(LossSpec("ce"), [0.0, 0.0], 0, ctx_for([1, 1])) - math.log(2)) < 1e-12

    def test_balanced_softmax_textbook(self):
        value = loss_value(LossSpec("balanced_softmax"), [0.0, 0.0], 1, ctx_for([3, 1]))
        assert abs(value - (-math.log(0.25))) < 1e-12

    def test_weighted_softmax_textbook(self):
        value = loss_value(LossSpec("weighted_softmax"), [0.0, 0.0], 1, ctx_for([3, 1]))
        assert abs(value - (-math.log(0.25) + 1.0) * math.log(2)) < 1e-12

    def test_focal_symmetric_logits(self):
        value = loss_value(LossSpec("focal", alpha=1.0, gamma=2.0), [0.0, 0.0], 0, ctx_for([1, 1]))
        assert abs(value - 0.25 * math.log(2)) < 1e-12

    def test_ldam_margins(self):
        margins = ldam_margins(distribution_from_counts([10000, 10]), 0.5)
        expected_c = 0.5 * 10 ** 0.25
        np.testing.assert_allclose(margins, [expected_c / 10, 0.5], rtol=1e-12)
        np.testing.assert_allclose(margins, [0.088914, 0.5], atol=5e-7)

    def test_ce_grad_softmax_minus_onehot(self):
        grad = loss_grad(LossSpec("ce"), [0.0, 0.0], 0, ctx_for([1, 1]))
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_ce_matches_direct_log_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(5)
            y = int(rng.integers(5))
            direct = -math.log(math.exp(z[y]) / np.exp(z).sum())
            assert abs(loss_value(LossSpec("ce"), z, y, ctx_for([1] * 5)) - direct) < 1e-10


class TestCbWeights:
    def test_beta_zero_all_ones(self):
        np.testing.assert_array_equal(cb_weights(distribution_from_counts([7, 2, 1]), 0.0),
                                      [1.0, 1.0, 1.0])

    def test_textbook_case_exact_fraction_oracle(self):
        # w_c ~ (1-b)/(1-b^n) evaluated in exact rational arithmetic
        beta = Fraction(9, 10)
        raw = [(1 - beta) / (1 - beta ** 9), (1 - beta) / (1 - beta ** 1)]
        total = sum(raw)
        expected = [float(2 * w / total) for w in raw]
        got = cb_weights(distribution_from_counts([9, 1]), 0.9)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert abs(got.sum() - 2.0) < 1e-12

    def test_beta_to_one_limit_matches_inverse_counts(self):
        dist = distribution_from_counts([100, 10, 1])
        got = cb_weights(dist, 1 - 1e-9)
        inv = 1.0 / dist.counts
        expected = inv * (3 / inv.sum())
        np.testing.assert_allclose(got, expected, atol=1e-4)

    def test_monotone_smaller_class_bigger_weight(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            counts = rng.integers(1, 1000, size=6)
            w = cb_weights(distribution_from_counts(counts), 0.999)
            order = np.argsort(counts)
            assert (np.diff(w[order]) <= 1e-12).all()

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            cb_weights(distribution_from_counts([3, 1]), 1.0)
        with pytest.raises(ValueError):
            LossSpec("cb_ce", beta=1.0)


class TestPosthocAdjust:
    def test_tau_zero_identity(self):
        z = np.array([0.3, -1.0])
        np.testing.assert_array_equal(posthoc_adjust(z, distribution_from_counts([9, 1]), 0.0), z)

    def test_uniform_prior_preserves_argmax(self):
        rng = np.random.default_rng(2)
        dist = distribution_from_counts([5, 5, 5])
        for _ in range(20):
            z = rng.standard_normal(3)
            adjusted = posthoc_adjust(z, dist, rng.uniform(0, 3))
            assert np.argmax(adjusted) == np.argmax(z)

    def test_textbook_flip(self):
        dist = distribution_from_counts([99, 1])
        adjusted = posthoc_adjust(np.array([0.1, 0.0]), dist, 1.0)
        np.testing.assert_allclose(adjusted, [0.1 - math.log(0.99), -math.log(0.01)], rtol=1e-12)
        assert np.argmax(adjusted) == 1

    @pytest.mark.parametrize("tau", [1e308, -1e308, float("nan")])
    def test_shift_that_is_not_finite_rejected(self, tau):
        with pytest.raises(ValueError, match="not finite"):
            posthoc_adjust(np.array([0.1, 0.0]), distribution_from_counts([99, 1]), tau)


def _random_instance(kind, rng):
    k = int(rng.choice([2, 5, 10]))
    counts = rng.integers(1, 500, size=k)
    z = rng.standard_normal(k)
    if kind in MULTI_LABEL_KINDS:
        target = rng.integers(0, 2, size=k)
    else:
        target = int(rng.integers(k))
    return k, counts, z, target


class TestDegenerateCollapses:
    SPECS = [
        LossSpec("focal", gamma=0.0, alpha=1.0),
        LossSpec("cb_ce", beta=0.0),
        LossSpec("logit_adjust", tau=0.0),
        LossSpec("vs", gamma_vs=0.0, tau_vs=0.0),
        LossSpec("seql", seql_q=0.0),
        LossSpec("gcl", gcl_amplitude=0.0),
        LossSpec("label_smooth_lt", eps_head=0.0, eps_tail=0.0),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_collapse_to_ce(self, spec):
        rng = np.random.default_rng(9)
        ce = LossSpec("ce")
        for _i in range(100):
            k, counts, z, y = _random_instance("ce", rng)
            ctx_a, ctx_b = ctx_for(counts, seed=_i), ctx_for(counts, seed=_i)
            va, ga = loss_value_and_grad(spec, z, y, ctx_a)
            vb, gb = loss_value_and_grad(ce, z, y, ctx_b)
            assert abs(va - vb) < 1e-12
            assert np.abs(ga - gb).max() < 1e-12

    def test_balanced_softmax_uniform_counts_is_ce(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.choice([2, 5, 10]))
            z = rng.standard_normal(k)
            y = int(rng.integers(k))
            counts = [17] * k
            va = loss_value(LossSpec("balanced_softmax"), z, y, ctx_for(counts))
            vb = loss_value(LossSpec("ce"), z, y, ctx_for(counts))
            assert abs(va - vb) < 1e-12

    def test_prior_ce_equals_balanced_softmax_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k, counts, z, y = _random_instance("ce", rng)
            ctx = ctx_for(counts)
            va, ga = loss_value_and_grad(LossSpec("prior_ce"), z, y, ctx)
            vb, gb = loss_value_and_grad(LossSpec("balanced_softmax"), z, y, ctx)
            assert va == vb
            assert np.array_equal(ga, gb)


class TestCatalogProperties:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_values_non_negative_and_finite(self, kind):
        rng = np.random.default_rng(13)
        spec = LossSpec(kind)
        for i in range(30):
            _, counts, z, target = _random_instance(kind, rng)
            value, grad = loss_value_and_grad(spec, z, target, ctx_for(counts, seed=i))
            assert value >= 0.0
            assert math.isfinite(value)
            assert np.isfinite(grad).all()

    @pytest.mark.parametrize("kind", [k for k in SINGLE_LABEL_KINDS if k != "label_smooth_lt"])
    def test_saturated_gradient_vanishes(self, kind):
        # at the one-hot limit the CE-family losses sit at their minimum;
        # label_smooth_lt is excluded: its minimizer is the smoothed target
        spec = LossSpec(kind)
        z = np.full(5, -20.0)
        y = 2
        z[y] = 20.0
        grad = loss_grad(spec, z, y, ctx_for([50, 40, 30, 20, 10]))
        assert np.linalg.norm(grad) < 1e-6

    @pytest.mark.parametrize("kind", MULTI_LABEL_KINDS)
    def test_saturated_gradient_vanishes_multilabel(self, kind):
        target = np.array([1, 0, 1, 0])
        z = np.where(target == 1, 20.0, -20.0)
        grad = loss_grad(LossSpec(kind), z, target, ctx_for([4, 3, 2, 1]))
        assert np.linalg.norm(grad) < 1e-6

    def test_gcl_amplitude_ordering(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            counts = rng.integers(1, 2000, size=8)
            amp = gcl_amplitudes(distribution_from_counts(counts))
            order = np.argsort(counts)
            assert (np.diff(amp[order]) <= 1e-12).all()
            assert amp.min() >= 0 and amp.max() <= 1

    def test_gcl_balanced_counts_no_perturbation(self):
        amp = gcl_amplitudes(distribution_from_counts([7, 7, 7]))
        np.testing.assert_array_equal(amp, [0.0, 0.0, 0.0])

    def test_label_smoothing_head_gets_more(self):
        eps = label_smoothing_eps(distribution_from_counts([1000, 100, 10]), 0.1, 0.0)
        assert eps[0] == pytest.approx(0.1)
        assert eps[2] == pytest.approx(0.0)
        assert eps[0] > eps[1] > eps[2]

    def test_stochastic_kinds_deterministic_given_rng_state(self):
        for kind in STOCHASTIC_KINDS:
            spec = LossSpec(kind)
            z = np.array([0.5, -1.0, 0.2, 0.0, 1.4])
            counts = [200, 100, 50, 3, 1]
            a = loss_value_and_grad(spec, z, 1, ctx_for(counts, seed=77))
            b = loss_value_and_grad(spec, z, 1, ctx_for(counts, seed=77))
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1])

    def test_eval_mode_disables_perturbations(self):
        z = np.array([0.5, -1.0, 0.2])
        counts = [100, 10, 1]
        for kind in STOCHASTIC_KINDS:
            value = loss_value(LossSpec(kind), z, 0, ctx_for(counts, training=False))
            ce = loss_value(LossSpec("ce"), z, 0, ctx_for(counts))
            assert value == ce

    def test_seql_keeps_frequent_classes_and_target(self):
        # with q=1 every rare negative is masked: softmax over {y} + frequent set
        counts = [960, 30, 6, 4]  # pi = [0.96, 0.03, 0.006, 0.004], threshold 0.05
        z = np.array([1.0, 0.4, -0.3, 0.2])
        value = loss_value(LossSpec("seql", seql_q=1.0), z, 2, ctx_for(counts, seed=3))
        kept = [0, 2]  # frequent class 0 plus the target
        direct = -(z[2] - math.log(sum(math.exp(z[c]) for c in kept)))
        assert abs(value - direct) < 1e-12


class TestErrorHandling:
    def test_k_mismatch(self):
        with pytest.raises(ValueError, match="classes"):
            loss_value(LossSpec("ce"), [0.0, 0.0, 0.0], 0, ctx_for([1, 1]))

    def test_zero_count_class_named(self):
        for kind in ("balanced_softmax", "ldam", "gcl", "cb_ce", "weighted_softmax"):
            ctx = ctx_for([5, 0, 3])
            with pytest.raises(ValueError, match="class 1"):
                loss_value(LossSpec(kind), [0.0, 0.0, 0.0], 0, ctx)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            loss_value(LossSpec("ce"), [np.inf, 0.0], 0, ctx_for([1, 1]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            LossSpec("hinge")

    def test_stochastic_kind_requires_rng(self):
        ctx = LossContext(distribution_from_counts([5, 1]))
        with pytest.raises(ValueError, match="rng"):
            loss_value(LossSpec("gcl"), [0.0, 0.0], 0, ctx)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss_value(LossSpec("ce"), [0.0, 0.0], 2, ctx_for([1, 1]))

    def test_multilabel_target_must_be_binary(self):
        with pytest.raises(ValueError):
            loss_value(LossSpec("bce_ml"), [0.0, 0.0], np.array([2, 0]), ctx_for([1, 1]))


class TestSerialization:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_round_trip(self, kind):
        spec = LossSpec(kind)
        again = jsonio.parse_fields(LossSpec, jsonio.fields_to_config(spec), "loss")
        assert again == spec or again.kind == spec.kind

    def test_round_trip_preserves_hypers(self):
        spec = LossSpec("vs", gamma_vs=0.7, tau_vs=2.0)
        cfg = jsonio.fields_to_config(spec)
        assert cfg == {"kind": "vs", "gamma_vs": 0.7, "tau_vs": 2.0}
        assert jsonio.parse_fields(LossSpec, cfg, "loss") == spec

    def test_unknown_hyper_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            jsonio.parse_fields(LossSpec, {"kind": "ce", "gamma": 2.0}, "loss")

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            jsonio.parse_fields(LossSpec, {"alpha": 1.0}, "loss")


class TestBceValues:
    def test_bce_sum_over_classes(self):
        z = np.array([0.0, 0.0, 0.0])
        target = np.array([1, 0, 1])
        value = loss_value(LossSpec("bce_ml"), z, target, ctx_for([1, 1, 1]))
        assert abs(value - 3 * math.log(2)) < 1e-12

    def test_focal_bce_gamma_zero_is_bce(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = rng.standard_normal(4)
            t = rng.integers(0, 2, size=4)
            a = loss_value_and_grad(LossSpec("focal_bce_ml", gamma=0.0), z, t, ctx_for([1] * 4))
            b = loss_value_and_grad(LossSpec("bce_ml"), z, t, ctx_for([1] * 4))
            assert abs(a[0] - b[0]) < 1e-12
            assert np.abs(a[1] - b[1]).max() < 1e-12


def reference_focal_bce(z, t, gamma):
    """Focal BCE with log sigma(z) and log sigma(-z) each computed on its own."""
    def sigmoid_logp(v):
        return -(np.maximum(-v, 0.0) + np.log1p(np.exp(-np.abs(v))))

    logpt = np.where(t > 0, sigmoid_logp(z), sigmoid_logp(-z))
    pt = np.exp(logpt)
    one_minus = 1.0 - pt
    mod = one_minus ** gamma
    values = np.sum(-mod * logpt, axis=1)
    inner = -one_minus
    if gamma > 0:
        inner = inner + gamma * logpt * pt
    return values, (2.0 * t - 1.0) * mod * inner


class TestFocalBce:
    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 8)), gamma=st.floats(0.0, 4.0),
           soft=st.booleans(), data=st.data())
    def test_bitwise_equal_to_two_sided_log_sigmoid(self, shape, gamma, soft, data):
        z = data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from((0.0, -0.0, 40.0, -40.0, 800.0, -800.0)),
            st.floats(-60.0, 60.0))))
        t = data.draw(arrays(np.float64, shape, elements=(
            st.floats(0.0, 1.0) if soft else st.sampled_from((0.0, 1.0)))))
        got, expected = losses._focal_bce(z, t, gamma), reference_focal_bce(z, t, gamma)
        assert np.array_equal(u64(got[0]), u64(expected[0]))
        assert np.array_equal(u64(got[1]), u64(expected[1]))


def expression_bce(z, t):
    """The BCE kernel as one expression per output: ``losses._bce`` must match it bit for bit."""
    values = np.sum(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))), axis=1)
    grads = 1.0 / (1.0 + np.exp(-z)) - t
    return values, grads


def expression_focal_bce(z, t, gamma):
    """Focal BCE as one expression per step: ``losses._focal_bce`` must match it bit for bit."""
    logpt = -(np.maximum(np.where(t > 0, -z, z), 0.0) + np.log1p(np.exp(-np.abs(z))))
    pt = np.exp(logpt)
    one_minus = 1.0 - pt
    mod = one_minus ** gamma
    values = np.sum(-mod * logpt, axis=1)
    inner = -one_minus
    if gamma > 0:
        inner = inner + gamma * logpt * pt
    grads = (2.0 * t - 1.0) * mod * inner
    return values, grads


class TestBufferedMultiLabelKernels:
    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 16)),
           scale=st.sampled_from((1.0, 10.0, 1e3)), gamma=st.sampled_from((0.0, 0.5, 2.0, 3.7)),
           soft=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_expression_forms(self, shape, scale, gamma, soft, seed):
        # logits up to +-1e3, a fifth of them a signed zero or past exp's overflow at 709.78
        rng = np.random.default_rng(seed)
        z = np.clip(scale * rng.standard_normal(shape), -1e3, 1e3)
        special = rng.random(shape) < 0.2
        z[special] = rng.choice([0.0, -0.0, 710.0, -710.0, 1e3, -1e3], size=special.sum())
        t = rng.random(shape) if soft else (rng.random(shape) < 0.5).astype(np.float64)
        before = z.copy(), t.copy()
        with np.errstate(over="ignore"):  # exp(-z) overflows to inf at z < -709 in both forms
            pairs = [(losses._bce(z, t), expression_bce(z, t)),
                     (losses._focal_bce(z, t, gamma), expression_focal_bce(z, t, gamma))]
        for got, expected in pairs:
            assert np.array_equal(u64(got[0]), u64(expected[0]))
            assert np.array_equal(u64(got[1]), u64(expected[1]))
        assert np.array_equal(u64(z), u64(before[0])) and np.array_equal(u64(t), u64(before[1]))


# the single-label kinds that are one cross-entropy over logits adjusted by a LossPlan
CE_FAMILY = ("ce", "cb_ce", "ldam", "prior_ce", "balanced_softmax", "logit_adjust",
             "weighted_softmax", "vs", "seql", "gcl")


def reference_log_softmax(z):
    """The out-of-place log-softmax expression, before the kernel subtracted in place."""
    shifted = z - np.max(z, axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def reference_softmax_ce(z, y):
    logp = reference_log_softmax(z)
    rows = np.arange(z.shape[0])
    grads = np.exp(logp)
    grads[rows, y] -= 1.0
    return -logp[rows, y], grads


def reference_ce_family(spec, z, y, dist, noise, training):
    """Each CE-family kind's own formula, as batch_loss_and_grad wrote it per kind."""
    rows, kind, ce = np.arange(z.shape[0]), spec.kind, reference_softmax_ce
    if kind == "ce" or (kind in ("seql", "gcl") and not training):
        return ce(z, y)
    if kind in ("cb_ce", "weighted_softmax"):
        values, grads = ce(z, y)
        w = (cb_weights(dist, spec.beta) if kind == "cb_ce" else 1.0 - np.log(dist.frequencies))[y]
        return values * w, grads * w[:, None]
    if kind == "ldam":
        shifted = z.copy()
        shifted[rows, y] -= ldam_margins(dist, spec.m_max)[y]
        values, grads = ce(spec.scale * shifted, y)
        return values, spec.scale * grads
    if kind in ("prior_ce", "balanced_softmax"):
        return ce(z + np.log(dist.frequencies), y)
    if kind == "logit_adjust":
        return ce(z + spec.tau * np.log(dist.frequencies), y)
    if kind == "vs":
        counts = dist.counts.astype(np.float64)
        mult = (counts / counts.max()) ** spec.gamma_vs
        values, grads = ce(z * mult + spec.tau_vs * np.log(dist.frequencies), y)
        return values, grads * mult
    if kind == "seql":
        keep = (dist.frequencies >= spec.seql_threshold)[None, :] | (noise >= spec.seql_q)
        keep[rows, y] = True
        return ce(np.where(keep, z, -np.inf), y)
    return ce(z - spec.gcl_amplitude * gcl_amplitudes(dist) * noise, y)  # gcl


@st.composite
def ce_family_cases(draw):
    """A (spec, logits, targets, distribution, rng) draw with every hyperparameter random."""
    k, n = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 2000), min_size=k, max_size=k))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    spec = LossSpec("ce", beta=draw(unit), m_max=draw(st.floats(0.01, 2.0)),
                    scale=draw(st.floats(0.5, 64.0)), tau=draw(st.floats(-2.0, 3.0)),
                    gamma_vs=draw(st.floats(0.0, 1.0)), tau_vs=draw(st.floats(-2.0, 3.0)),
                    seql_threshold=draw(unit), seql_q=draw(unit),
                    gcl_amplitude=draw(st.floats(0.0, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = draw(st.floats(0.1, 10.0)) * rng.standard_normal((n, k))
    return spec, z, rng.integers(0, k, size=n), distribution_from_counts(counts), rng


class TestLossPlan:
    @pytest.mark.parametrize("kind", CE_FAMILY)
    @settings(max_examples=100, deadline=None)
    @given(case=ce_family_cases())
    def test_plan_kernel_bitwise_equals_per_kind_formula(self, kind, case):
        spec, z, y, dist, rng = case
        spec = replace(spec, kind=kind)
        plan = loss_plan(spec, dist)
        noise = draw_noise(spec, rng, *z.shape)
        for training in (True, False):
            got = batch_loss_and_grad(plan, z, y, noise=noise, training=training)
            expected = reference_ce_family(spec, z, y, dist, noise, training)
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    @settings(max_examples=100, deadline=None)
    @given(case=ce_family_cases())
    def test_plan_weight_bitwise_equals_per_sample_weighting(self, case):
        # DisAlign's inverse-frequency weights, as the training loop applied them itself
        _, z, y, dist, _ = case
        inv = 1.0 / dist.counts.astype(np.float64)
        weights = inv * (inv.size / inv.sum())
        plan = replace(loss_plan(LossSpec("ce"), dist), weight=weights)
        values, grads = reference_softmax_ce(z, y)
        got = batch_loss_and_grad(plan, z, y)
        assert np.array_equal(got[0], values * weights[y])
        assert np.array_equal(got[1], grads * weights[y][:, None])

    def test_zero_count_class_rejected_when_planned(self):
        with pytest.raises(ValueError, match="class 1 has zero samples; ldam"):
            loss_plan(LossSpec("ldam"), distribution_from_counts([5, 0, 3]))
        assert loss_plan(LossSpec("ce"), distribution_from_counts([5, 0, 3])).num_classes == 3

    def test_stochastic_kind_needs_noise_in_training_mode(self):
        plan = loss_plan(LossSpec("gcl"), distribution_from_counts([9, 1]))
        with pytest.raises(ValueError, match="pre-drawn noise"):
            batch_loss_and_grad(plan, np.zeros((1, 2)), [0])


def u64(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestInPlaceKernel:
    @pytest.mark.parametrize("kind", SINGLE_LABEL_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(case=ce_family_cases(), gamma=st.floats(0.0, 4.0), eps=st.floats(0.0, 0.9))
    def test_bitwise_equal_to_out_of_place_softmax(self, kind, case, gamma, eps):
        # every single-label kind, seql's -inf masks included, against the kernels with
        # the out-of-place log-softmax and softmax expressions they replaced
        spec, z, y, dist, rng = case
        spec = replace(spec, kind=kind, gamma=gamma, eps_head=eps)
        plan = loss_plan(spec, dist)
        noise = draw_noise(spec, rng, *z.shape)
        for training in (True, False):
            got = batch_loss_and_grad(plan, z, y, noise=noise, training=training)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(losses, "_log_softmax", reference_log_softmax)
                mp.setattr(losses, "_softmax_ce", reference_softmax_ce)
                expected = batch_loss_and_grad(plan, z, y, noise=noise, training=training)
            assert np.array_equal(u64(got[0]), u64(expected[0]))
            assert np.array_equal(u64(got[1]), u64(expected[1]))

    def test_logits_left_unchanged(self):
        z = np.array([[0.5, -1.0, 2.0], [3.0, 3.0, -4.0]])
        before = z.copy()
        for kind in SINGLE_LABEL_KINDS:
            spec = LossSpec(kind)
            plan = loss_plan(spec, distribution_from_counts([50, 9, 2]))
            noise = draw_noise(spec, np.random.default_rng(0), *z.shape)
            batch_loss_and_grad(plan, z, [0, 2], noise=noise)
            assert np.array_equal(u64(z), u64(before)), kind
