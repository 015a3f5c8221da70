from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from longtail_lab import (LossSpec, ModelState, NcmClassifier, batch_loss_and_grad,
                          decision_scores, distribution_from_counts, forward,
                          init_model, load_checkpoint, loss_plan, save_checkpoint, tau_normalize,
                          weight_norms)
from longtail_lab import model as model_module
from longtail_lab.model import backward, forward_with_cache


class TestForward:
    def test_zero_parameters_zero_logits(self):
        model = init_model(3, 4)
        np.testing.assert_array_equal(forward(model, np.zeros(4)), np.zeros(3))

    def test_identity_weights(self):
        model = ModelState(cls_w=np.eye(2), cls_b=np.zeros(2))
        np.testing.assert_array_equal(forward(model, [3.0, -1.0]), [3.0, -1.0])

    def test_cosine_aligned_feature_gives_temperature(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        model = ModelState(cls_w=w, cls_b=None, classifier_kind="cosine", temperature=16.0)
        logits = forward(model, [5.0, 0.0])
        assert abs(logits[0] - 16.0) < 1e-12

    def test_dimension_mismatch(self):
        model = init_model(3, 4)
        with pytest.raises(ValueError, match="dimension"):
            forward(model, np.zeros(5))

    def test_hidden_layer_shapes(self):
        model = init_model(3, 4, hidden_dim=8, rng=np.random.default_rng(0))
        batch = forward(model, np.random.default_rng(1).standard_normal((6, 4)))
        assert batch.shape == (6, 3)

    def test_scale_offset_applied(self):
        model = ModelState(cls_w=np.eye(2), cls_b=np.zeros(2),
                           logit_scale=np.array([2.0, 1.0]),
                           logit_offset=np.array([0.0, -1.0]))
        np.testing.assert_array_equal(forward(model, [1.0, 1.0]), [2.0, 0.0])


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


class TestWeightNorms:
    def test_rows(self):
        model = ModelState(cls_w=np.array([[3.0, 4.0], [0.0, 0.0]]), cls_b=np.zeros(2))
        np.testing.assert_array_equal(weight_norms(model), [5.0, 0.0])


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


    @pytest.mark.parametrize("hidden", [None, 5])
    def test_chunked_scores_bitwise_equal_full_tensor(self, monkeypatch, hidden):
        rng = np.random.default_rng(4)
        ncm = NcmClassifier(means=rng.standard_normal((7, 5 if hidden else 3)))
        if hidden:
            ncm.encoder_w, ncm.encoder_b = rng.standard_normal((5, 3)), rng.standard_normal(5)
        x = rng.standard_normal((103, 3))
        feats = x if hidden is None else np.maximum(x @ ncm.encoder_w.T + ncm.encoder_b, 0.0)
        full = -np.sqrt(((feats[:, None, :] - ncm.means[None, :, :]) ** 2).sum(axis=2))
        # 10 rows per chunk: 103 rows leave a short last chunk
        monkeypatch.setattr(model_module, "NCM_CHUNK_ELEMENTS", 10 * ncm.means.size)
        assert decision_scores(ncm, x).tobytes() == full.tobytes()


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
        model = init_model(3, 4)
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
        model = init_model(3, 4, hidden_dim=5)
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
