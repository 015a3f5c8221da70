import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from longtail_lab import (LossSpec, ModelState, NcmClassifier, batch_loss_and_grad,
                          decision_scores, distribution_from_counts,
                          init_model, load_checkpoint, loss_plan, save_checkpoint, tau_normalize,
                          weight_norms)
from longtail_lab.model import backward, forward_with_cache, row_norms

from conftest import traced_peak


class TestForward:
    def test_zero_parameters_zero_logits(self):
        model = init_model(3, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(decision_scores(model, np.zeros(4)), np.zeros(3))

    def test_identity_weights(self):
        model = ModelState(cls_w=np.eye(2), cls_b=np.zeros(2))
        np.testing.assert_array_equal(decision_scores(model, [3.0, -1.0]), [3.0, -1.0])

    def test_cosine_aligned_feature_gives_temperature(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = ModelState(cls_w=w, cls_b=None, classifier_kind="cosine", temperature=16.0)
        logits = decision_scores(model, [5.0, 0.0])
        assert abs(logits[0] - 16.0) < 1e-12

    def test_cosine_rows_whose_squares_overflow_are_scored(self):
        # entries above ~1.3e154 square past the float range, in a weight row and in a feature
        w = np.array([[3e200, 4e200], [0.0, 1.0]])
        model = ModelState(cls_w=w, cls_b=None, classifier_kind="cosine", temperature=16.0)
        logits, _ = forward_with_cache(model, np.array([[1.0, 0.0], [2e200, 0.0]]))
        np.testing.assert_allclose(logits, [[9.6, 0.0], [9.6, 0.0]], rtol=1e-15, atol=0)

    def test_dimension_mismatch(self):
        model = init_model(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension"):
            decision_scores(model, np.zeros(5))

    def test_hidden_layer_shapes(self):
        model = init_model(3, 4, hidden_dim=8, rng=np.random.default_rng(0))
        batch = decision_scores(model, np.random.default_rng(1).standard_normal((6, 4)))
        assert batch.shape == (6, 3)

    def test_scale_offset_applied(self):
        model = ModelState(cls_w=np.eye(2), cls_b=np.zeros(2),
                           logit_scale=np.array([2.0, 1.0]),
                           logit_offset=np.array([0.0, -1.0]))
        np.testing.assert_array_equal(decision_scores(model, [1.0, 1.0]), [2.0, 0.0])


class TestTauNormalize:
    def _model(self):
        w = np.array([[4.0, 0.0], [0.0, 1.0]])
        return ModelState(cls_w=w, cls_b=np.array([0.5, -0.5]))

    def test_tau_zero_identity_weights_zero_bias(self):
        out = tau_normalize(self._model(), 0.0)
        np.testing.assert_array_equal(out.cls_w, self._model().cls_w)
        np.testing.assert_array_equal(out.cls_b, [0.0, 0.0])

    def test_tau_one_unit_norms(self):
        out = tau_normalize(self._model(), 1.0)
        np.testing.assert_allclose(weight_norms(out), [1.0, 1.0], atol=1e-12)

    def test_tau_half(self):
        out = tau_normalize(self._model(), 0.5)
        np.testing.assert_allclose(weight_norms(out), [2.0, 1.0], atol=1e-12)

    def test_zero_norm_row_rejected(self):
        model = ModelState(cls_w=np.array([[1.0, 0.0], [0.0, 0.0]]), cls_b=np.zeros(2))
        with pytest.raises(ValueError, match="class 1"):
            tau_normalize(model, 1.0)

    def test_cosine_classifier_rejected(self):
        model = ModelState(cls_w=np.eye(2), cls_b=None, classifier_kind="cosine",
                           temperature=16.0)
        with pytest.raises(ValueError, match="linear"):
            tau_normalize(model, 1.0)

    def test_does_not_mutate_input(self):
        model = self._model()
        before = model.cls_w.copy()
        tau_normalize(model, 1.0)
        np.testing.assert_array_equal(model.cls_w, before)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, want", [
        (1.5, [[1e150, 0.0], [0.6 / math.sqrt(5e-170), 0.8 / math.sqrt(5e-170)], [1e-100, 0.0]]),
        (2.0, [[1e300, 0.0], [0.6 * 2e169, 0.8 * 2e169], [1e-200, 0.0]]),
    ])
    def test_rows_whose_power_leaves_the_normal_range(self, tau, want):
        # ||w||^tau underflows for the first two rows and overflows for the last at tau=2
        w = np.array([[1e-300, 0.0], [3e-170, 4e-170], [1e200, 0.0]])
        out = tau_normalize(ModelState(cls_w=w, cls_b=np.zeros(3)), tau)
        np.testing.assert_allclose(out.cls_w, want, rtol=1e-14, atol=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_a_zero_entry_stays_zero_where_its_rows_result_overflows(self):
        # 1e-300^-2 overflows at tau=3: the nonzero entry reads +-inf, the zero keeps its sign
        w = np.array([[1e-300, 0.0], [-0.0, -1e-300], [0.0, 1.0]])
        with np.errstate(invalid="raise"):  # 0 * inf would be nan
            out = tau_normalize(ModelState(cls_w=w, cls_b=np.zeros(3)), 3.0)
        np.testing.assert_array_equal(out.cls_w, [[np.inf, 0.0], [0.0, -np.inf], [0.0, 1.0]])
        assert np.array_equal(np.signbit(out.cls_w), np.signbit(w))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                      elements=st.one_of(st.just(0.0), st.floats(1e-60, 1e60),
                                         st.floats(-1e60, -1e-60))),
           st.floats(-2.0, 3.0))
    def test_rows_in_normal_range_keep_the_plain_quotients_bits(self, w, tau):
        # norms within [1e-60, 3e60] keep ||w||^tau, and the quotients, in the normal range
        norms = weight_norms(ModelState(cls_w=w, cls_b=None))
        assume((norms > 0).all())
        out = tau_normalize(ModelState(cls_w=w, cls_b=np.zeros(w.shape[0])), tau)
        assert out.cls_w.tobytes() == (w / norms[:, None] ** tau).tobytes()


class TestWeightNorms:
    def test_rows(self):
        model = ModelState(cls_w=np.array([[3.0, 4.0], [0.0, 0.0]]), cls_b=np.zeros(2))
        np.testing.assert_array_equal(weight_norms(model), [5.0, 0.0])

    def test_rows_whose_squares_overflow_stay_finite(self):
        # an entry above ~1.3e154 squares past the float range; the other rows keep the
        # plain norm's bits
        w = np.array([[3e200, 4e200], [0.1, 0.7], [-1e308, 1e308]])
        model = ModelState(cls_w=w, cls_b=np.zeros(3))
        norms = weight_norms(model)
        np.testing.assert_allclose(norms, [5e200, np.hypot(0.1, 0.7), np.sqrt(2) * 1e308],
                                   rtol=1e-15)
        assert norms[1] == np.linalg.norm(w[1])
        out = tau_normalize(model, 1.0)
        np.testing.assert_allclose(weight_norms(out), np.ones(3), rtol=1e-15)

    def test_rows_whose_squares_underflow_keep_their_norm(self):
        # every entry below ~1.5e-154 squares to 0; a zero row still reads 0
        w = np.array([[1e-300, 0.0], [3e-170, 4e-170], [0.0, 0.0]])
        norms = weight_norms(ModelState(cls_w=w, cls_b=np.zeros(3)))
        np.testing.assert_allclose(norms, [1e-300, 5e-170, 0.0], rtol=1e-15, atol=0)
        out = tau_normalize(ModelState(cls_w=w[:2], cls_b=np.zeros(2)), 1.0)
        np.testing.assert_allclose(weight_norms(out), np.ones(2), rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                      elements=st.one_of(st.just(0.0), st.floats(1e-150, 1e150),
                                         st.floats(-1e150, -1e-150))),
           st.floats(0.1, 100.0))
    def test_rows_in_normal_range_keep_the_plain_norms_bits(self, w, temperature):
        plain = np.linalg.norm(w, axis=1)
        assert row_norms(w).tobytes() == plain.tobytes()
        assert weight_norms(ModelState(cls_w=w, cls_b=None)).tobytes() == plain.tobytes()
        model = ModelState(cls_w=w, cls_b=None, classifier_kind="cosine",
                           temperature=temperature)
        _, cache = forward_with_cache(model, w)  # the rows as features too
        assert cache["w_norm"].tobytes() == cache["x_norm"].tobytes() == plain.tobytes()


class TestNcm:
    def test_closest_mean_wins(self):
        ncm = NcmClassifier(means=np.array([[0.0, 0.0], [2.0, 2.0]]))
        scores = decision_scores(ncm, np.array([0.5, 0.5]))
        assert np.argmax(scores) == 0

    def test_equidistant_tie_breaks_to_lower_index(self):
        ncm = NcmClassifier(means=np.array([[0.0, 0.0], [2.0, 2.0]]))
        scores = decision_scores(ncm, np.array([1.0, 1.0]))
        assert scores[0] == scores[1]
        assert np.argmax(scores) == 0

    def test_scores_are_negative_distances(self):
        ncm = NcmClassifier(means=np.array([[0.0, 0.0], [3.0, 4.0]]))
        scores = decision_scores(ncm, np.array([0.0, 0.0]))
        np.testing.assert_allclose(scores, [0.0, -5.0])

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 8), d=st.integers(1, 6), hidden=st.booleans(),
           x_scale=st.integers(-3, 3), m_scale=st.integers(-3, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=5, k=4, d=3, hidden=False, x_scale=3, m_scale=3, seed=0)
    @example(n=9, k=6, d=2, hidden=True, x_scale=-3, m_scale=3, seed=1)
    def test_gemm_scores_within_bound_of_difference_form(self, n, k, d, hidden, x_scale,
                                                          m_scale, seed):
        rng = np.random.default_rng(seed)
        f = d + 2 if hidden else d
        ncm = NcmClassifier(means=10.0 ** m_scale * rng.standard_normal((k, f)))
        if hidden:
            ncm.encoder_w, ncm.encoder_b = rng.standard_normal((f, d)), rng.standard_normal(f)
        x = 10.0 ** x_scale * rng.standard_normal((n, d))
        z = x if not hidden else np.maximum(x @ ncm.encoder_w.T + ncm.encoder_b, 0.0)
        # the reference: squared distances from the out-of-place (n, K, d) difference form
        ref = ((z[:, None, :] - ncm.means[None, :, :]) ** 2).sum(axis=2)
        got = decision_scores(ncm, x)
        assert got.shape == (n, k) and np.all(got <= 0.0)
        # ||z||^2, z.m_c and ||m_c||^2 each round within f*eps of their magnitude, the
        # reference within f*eps of ||z - m_c||^2, and squaring the score back adds 2*eps:
        # all of it within 8*f*eps*(||z|| + ||m_c||)^2
        eps = np.finfo(np.float64).eps
        bound = 8 * f * eps * (np.linalg.norm(z, axis=1)[:, None]
                               + np.linalg.norm(ncm.means, axis=1)[None, :]) ** 2
        assert np.all(np.abs(got ** 2 - ref) <= bound)
        if k > 1:  # the nearest mean is the same wherever the reference's margin beats the error
            top2 = np.sort(ref, axis=1)[:, :2]
            clear = top2[:, 1] - top2[:, 0] > 2 * bound.max(axis=1)
            assert np.array_equal(got.argmax(axis=1)[clear], ref.argmin(axis=1)[clear])

    def test_scoring_memory_is_o_n_k(self):
        n, k, d = 200, 500, 128
        rng = np.random.default_rng(6)
        ncm, x = NcmClassifier(means=rng.standard_normal((k, d))), rng.standard_normal((n, d))
        scores, peak = traced_peak(decision_scores, ncm, x)
        assert scores.shape == (n, k)
        # a few (n, K) arrays and at most one (n, d) copy; a (rows, K, d) tensor is far above it
        assert peak < 3 * n * k * 8 + n * d * 8


class TestCheckpoints:
    def test_model_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        model = init_model(4, 6, hidden_dim=5, rng=rng)
        model.cls_w = rng.standard_normal(model.cls_w.shape)
        model.cls_b = rng.standard_normal(4)
        model.logit_scale = rng.standard_normal(4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, ModelState)
        np.testing.assert_array_equal(loaded.cls_w, model.cls_w)
        np.testing.assert_array_equal(loaded.encoder_w, model.encoder_w)
        np.testing.assert_array_equal(loaded.logit_scale, model.logit_scale)
        assert loaded.cls_b is not None and loaded.logit_offset is None

    def test_cosine_round_trip(self, tmp_path):
        model = init_model(3, 4, classifier_kind="cosine", temperature=12.5,
                           rng=np.random.default_rng(0))
        path = tmp_path / "cos.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.classifier_kind == "cosine"
        assert loaded.temperature == 12.5
        np.testing.assert_array_equal(loaded.cls_w, model.cls_w)

    def test_ncm_round_trip(self, tmp_path):
        ncm = NcmClassifier(means=np.random.default_rng(1).standard_normal((3, 4)))
        path = tmp_path / "ncm.json"
        save_checkpoint(ncm, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, NcmClassifier)
        np.testing.assert_array_equal(loaded.means, ncm.means)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bitwise_and_resave_byte_identical(self, tmp_path_factory, data):
        k, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        hidden = data.draw(st.none() | st.integers(1, 3))
        f = d if hidden is None else hidden

        def arr(*shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(width=64,
                                        allow_nan=False, allow_infinity=False)))

        encoder = {} if hidden is None else {"encoder_w": arr(hidden, d), "encoder_b": arr(hidden)}
        kind = data.draw(st.sampled_from(["linear", "cosine", "ncm"]))
        if kind == "ncm":
            classifier = NcmClassifier(means=arr(k, f), **encoder)
        else:
            cosine = kind == "cosine"
            classifier = ModelState(
                classifier_kind=kind, cls_w=arr(k, f), cls_b=None if cosine else arr(k),
                temperature=data.draw(st.floats(0.1, 100.0)) if cosine else None,
                logit_scale=arr(k) if data.draw(st.booleans()) else None,
                logit_offset=arr(k) if data.draw(st.booleans()) else None, **encoder)
        path = tmp_path_factory.mktemp("ckpt") / "c.json"
        save_checkpoint(classifier, path)
        loaded = load_checkpoint(path)
        assert type(loaded) is type(classifier)
        for name, value in vars(classifier).items():
            got = getattr(loaded, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.shape == value.shape, name
                assert got.tobytes() == value.tobytes(), name
            else:
                assert got == value, name
        text = path.read_bytes()
        save_checkpoint(loaded, path)
        assert path.read_bytes() == text

    def test_checkpoint_text_of_the_first_format_loads(self, tmp_path):
        # a checkpoint saved before its fields were written from the dataclass: files already
        # on disk keep loading, and saving them again gives the same bytes
        path = tmp_path / "ckpt.json"
        path.write_text(
            '{"format_version": 1, "kind": "model", "shape": {"num_classes": 3, '
            '"feature_dim": 2, "hidden_dim": 2}, "classifier_kind": "linear", '
            '"temperature": null, "cls_w": [[0.5, -1.25], [2.0, 0.0], '
            '[-0.10000000000000001, 3.0]], "cls_b": [0.25, -0.5, 1.0], "encoder_w": '
            '[[1.0, 0.5], [-2.0, 0.125]], "encoder_b": [0.0, 0.75], "logit_scale": '
            '[1.5, 1.0, 0.5], "logit_offset": [-0.25, 0.0, 0.10000000000000001]}\n')
        expected = ModelState(
            cls_w=np.array([[0.5, -1.25], [2.0, 0.0], [-0.1, 3.0]]),
            cls_b=np.array([0.25, -0.5, 1.0]),
            encoder_w=np.array([[1.0, 0.5], [-2.0, 0.125]]), encoder_b=np.array([0.0, 0.75]),
            logit_scale=np.array([1.5, 1.0, 0.5]), logit_offset=np.array([-0.25, 0.0, 0.1]))
        loaded = load_checkpoint(path)
        assert loaded.classifier_kind == "linear" and loaded.temperature is None
        for name in ("cls_w", "cls_b", "encoder_w", "encoder_b", "logit_scale", "logit_offset"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(expected, name))
        text = path.read_bytes()
        save_checkpoint(loaded, path)
        assert path.read_bytes() == text

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 999, "kind": "model"}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_shape_header_mismatch_rejected(self, tmp_path):
        model = init_model(3, 4, rng=np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["shape"]["feature_dim"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shape header"):
            load_checkpoint(path)


class TestShapeInvariants:
    @pytest.mark.parametrize("change, message", [
        ({"cls_w": np.zeros(3)}, "cls_w must be 2-D"),
        ({"cls_b": np.zeros(2)}, r"cls_b must have shape \(3,\)"),
        ({"logit_scale": np.ones(1)}, r"logit_scale must have shape \(3,\)"),
        ({"logit_offset": np.zeros((3, 1))}, r"logit_offset must have shape \(3,\)"),
        ({"encoder_w": np.zeros((4, 2))}, r"encoder must have shape \(5, d\)"),
        ({"encoder_b": np.zeros(4)}, r"encoder must have shape \(5, d\)"),
        ({"encoder_w": None}, "given together"),
    ])
    def test_model_refuses_arrays_that_do_not_fit(self, change, message):
        model = init_model(3, 4, hidden_dim=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            replace(model, **change)

    def test_ncm_refuses_arrays_that_do_not_fit(self):
        with pytest.raises(ValueError, match="means must be 2-D"):
            NcmClassifier(means=np.zeros(3))
        with pytest.raises(ValueError, match=r"encoder must have shape \(2, d\)"):
            NcmClassifier(means=np.zeros((3, 2)), encoder_w=np.zeros((3, 4)),
                          encoder_b=np.zeros(3))


def numeric_param_grad(model, key, features, targets, dist, spec, h=1e-6):
    original = np.atleast_1d(np.asarray(getattr(model, key), dtype=np.float64))

    def mean_loss_with(flat):
        candidate = model.copy()
        value = flat.reshape(original.shape)
        if key == "temperature":
            candidate.temperature = float(value.reshape(-1)[0])
        else:
            setattr(candidate, key, value)
        logits, _ = forward_with_cache(candidate, features)
        values, _ = batch_loss_and_grad(loss_plan(spec, dist), logits, targets)
        return values.mean()

    flat = original.reshape(-1)
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (mean_loss_with(up) - mean_loss_with(down)) / (2 * h)
    return grad.reshape(original.shape)


class TestBackward:
    @pytest.mark.parametrize("classifier_kind", ["linear", "cosine"])
    @pytest.mark.parametrize("hidden", [None, 5])
    def test_matches_finite_differences(self, classifier_kind, hidden):
        rng = np.random.default_rng(8)
        model = init_model(3, 4, hidden_dim=hidden, classifier_kind=classifier_kind,
                           temperature=8.0, rng=rng)
        if classifier_kind == "linear":
            model.cls_w = 0.5 * rng.standard_normal(model.cls_w.shape)
            model.cls_b = 0.1 * rng.standard_normal(3)
            model.logit_scale = 1.0 + 0.2 * rng.standard_normal(3)
            model.logit_offset = 0.1 * rng.standard_normal(3)
        features = rng.standard_normal((7, 4))
        targets = rng.integers(0, 3, size=7)
        dist = distribution_from_counts([5, 3, 2])
        spec = LossSpec("ce")

        logits, cache = forward_with_cache(model, features)
        values, grads = batch_loss_and_grad(loss_plan(spec, dist), logits, targets)
        param_grads = backward(model, cache, grads / len(features))

        keys = ["cls_w"]
        keys += ["cls_b", "logit_scale", "logit_offset"] if classifier_kind == "linear" else ["temperature"]
        if hidden is not None:
            keys += ["encoder_w", "encoder_b"]
        for key in keys:
            numeric = numeric_param_grad(model, key, features, targets, dist, spec)
            analytic = param_grads[key]
            scale = max(np.abs(numeric).max(), 1e-8)
            assert np.abs(np.asarray(analytic) - numeric).max() / scale < 1e-5, key


def head_for(kind, rng, k=4, d=3, hidden=5):
    """A model of one trainable head type, with its trainable keys in fit order."""
    if kind in ("linear", "cosine", "encoder", "cosine_encoder"):
        cosine = kind.startswith("cosine")
        model = init_model(k, d, hidden_dim=hidden if "encoder" in kind else None,
                           classifier_kind="cosine" if cosine else "linear", temperature=8.0,
                           rng=rng)
        if not cosine:
            model = replace(model, cls_w=rng.standard_normal((k, model.cls_w.shape[1])),
                            cls_b=rng.standard_normal(k))
        keys = ("cls_w", "temperature") if cosine else ("cls_w", "cls_b")
        return model, keys + (("encoder_w", "encoder_b") if "encoder" in kind else ())
    model = ModelState(cls_w=rng.standard_normal((k, d)), cls_b=rng.standard_normal(k),
                       logit_scale=1.0 + 0.1 * rng.standard_normal(k))
    if kind == "lws":
        return model, ("logit_scale",)
    model = replace(model, logit_offset=0.1 * rng.standard_normal(k))
    return model, ("logit_scale", "logit_offset")


def u64(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestKeptGradients:
    @pytest.mark.parametrize("kind", ["linear", "cosine", "encoder", "cosine_encoder", "lws",
                                      "disalign"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), subset=st.integers(1, 2 ** 4))
    def test_kept_keys_bitwise_equal_full_backward(self, kind, seed, n, subset):
        rng = np.random.default_rng(seed)
        model, trainable = head_for(kind, rng)
        x = rng.standard_normal((n, model.feature_dim))
        logits, cache = forward_with_cache(model, x)
        g = rng.standard_normal(logits.shape)
        full = backward(model, cache, g)
        assert set(trainable) <= set(full)
        # the fit's trainable keys, and any non-empty subset of them, in any order
        picked = tuple(k for i, k in enumerate(trainable) if subset >> i & 1) or trainable
        for keys in (trainable, picked, picked[::-1]):
            out = {key: np.empty_like(full[key]) for key in keys}
            kept = backward(model, cache, g, out=out)
            assert kept is out and tuple(kept) == keys
            for key in keys:
                assert np.array_equal(u64(kept[key]), u64(full[key])), key

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9))
    def test_in_place_encoder_and_head_bitwise_equal_out_of_place(self, seed, n):
        rng = np.random.default_rng(seed)
        model, _ = head_for("encoder", rng)
        x = rng.standard_normal((n, model.feature_dim))
        logits, cache = forward_with_cache(model, x)
        g = rng.standard_normal(logits.shape)
        grads = backward(model, cache, g)
        # the out-of-place expressions of the encoder, the linear head and the ReLU mask
        feats = np.maximum(x @ model.encoder_w.T + model.encoder_b, 0.0)
        g_pre = (g @ model.cls_w) * (feats > 0)
        assert np.array_equal(u64(cache["feats"]), u64(feats))
        assert np.array_equal(u64(logits), u64(feats @ model.cls_w.T + model.cls_b))
        assert np.array_equal(u64(grads["encoder_w"]), u64(g_pre.T @ x))
        assert np.array_equal(u64(grads["encoder_b"]), u64(g_pre.sum(axis=0)))
