from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from longtail_lab import (LossSpec, MixupSpec, OptimizerSpec, SamplerSpec,
                          Stage2Spec, TrainConfig, TrainingDivergedError, apply_stage2,
                          batch_loss_and_grad, decision_scores, distribution_from_counts,
                          evaluate_split, group_report, group_split, init_model, loss_plan,
                          jsonio, parse_config,
                          run_experiment, synth_gaussian, train_stage1, weight_norms)
from longtail_lab import Manifest, NcmClassifier, model as model_module, training as training_module
from longtail_lab import optim as optim_module, samplers as samplers_module
from longtail_lab.losses import LOSS_KINDS, MULTI_LABEL_KINDS, STOCHASTIC_KINDS, posthoc_shift
from longtail_lab.model import BLOCK_ROWS, ModelState, backward, encode, forward_with_cache
from longtail_lab.optim import Optimizer, flatten, global_grad_norm, sam_step, unflatten
from longtail_lab.training import stage2_ncm

from conftest import blob_manifest, multilabel_manifest, traced_peak


SGD = OptimizerSpec("sgd", lr=0.05)


def fit_stage2(kind, model, manifest, config, rng):
    """``apply_stage2`` with the stage-2 kind of ``config`` set to ``kind``."""
    config = replace(config, stage2=replace(config.stage2, kind=kind))
    return apply_stage2(model, manifest, config, rng)


def two_blob_manifest(seed=0):
    # means at angle 0 and pi on a radius-3 circle: 6 sigma apart
    return synth_gaussian(2, 4, 100, 1, class_separation=3.0, seed=seed,
                          val_per_class=40, test_per_class=40)


def groups_for(manifest, boundaries):
    return group_split(manifest.train_distribution(), boundaries)


class TestTrainStage1:
    @pytest.mark.filterwarnings("ignore:group 'tail' contains no classes")
    def test_separable_blobs_reach_high_accuracy(self):
        manifest = two_blob_manifest()
        config = TrainConfig(epochs=20, batch_size=32, seed=0, optimizer=SGD)
        _, history = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert len(history) == 20
        val_acc = np.nanmean(history.records[-1].val.per_class_acc)
        assert val_acc >= 95.0

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_deterministic_final_parameters(self):
        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=4, batch_size=16, seed=11, optimizer=SGD)
        groups = groups_for(manifest, (1, 2))
        a, _ = train_stage1(manifest, config, groups=groups)
        b, _ = train_stage1(manifest, config, groups=groups)
        assert np.array_equal(a.cls_w, b.cls_w)
        assert np.array_equal(a.cls_b, b.cls_b)

    @pytest.mark.parametrize("stage2", ["crt", "cosine_retrain"])
    def test_stage_by_stage_equals_run_experiment(self, stage2):
        config = parse_config({
            "seed": 6,
            "dataset": {"synth": {"num_classes": 4, "feature_dim": 4, "n0": 40, "ratio": 10.0,
                                  "val_per_class": 5, "test_per_class": 5},
                        "group_boundaries": [1, 3]},
            "train": {"epochs": 3, "batch_size": 16, "hidden_dim": 5,
                      "optimizer": jsonio.fields_to_config(SGD),
                      "stage2": {"kind": stage2, "epochs": 2}},
        })
        result = run_experiment(config)
        manifest = result.manifest
        model, _ = train_stage1(manifest, config.train, groups=groups_for(manifest, (1, 3)))
        final = apply_stage2(model, manifest, config.train)
        for got, want in ((model, result.stage1_model), (final, result.final_classifier)):
            for name, value in vars(want).items():
                other = getattr(got, name)
                assert (np.asarray(other).tobytes() == np.asarray(value).tobytes()
                        if isinstance(value, np.ndarray) else other == value), name

    def test_history_serialization_deterministic(self):
        from longtail_lab import jsonio

        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=3, batch_size=16, seed=2, optimizer=SGD)
        groups = groups_for(manifest, (1, 2))
        dumps = [jsonio.dumps(train_stage1(manifest, config, groups=groups)[1].to_dict())
                 for _ in range(2)]
        assert dumps[0] == dumps[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf ripples before the raise
    def test_divergence_carries_epoch_and_step(self):
        manifest = blob_manifest([20, 10, 5], val_per_class=5, test_per_class=5)
        config = TrainConfig(epochs=2, batch_size=8, seed=0, hidden_dim=8,
                             optimizer=OptimizerSpec("sgd", lr=1e200))
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert exc_info.value.epoch == 0
        assert exc_info.value.step >= 0

    @pytest.mark.parametrize("optimizer, temperature", [
        (OptimizerSpec("sgd", lr=10.0), 1.0),
        (OptimizerSpec("sgd", lr=0.01, sam=True, sam_rho=50.0), 0.1),
    ], ids=["step", "sam-shifted-point"])
    def test_temperature_crossing_zero_is_a_divergence(self, optimizer, temperature):
        manifest = blob_manifest([20, 10, 5])
        config = TrainConfig(epochs=2, batch_size=8, seed=0, classifier_kind="cosine",
                             temperature=temperature, optimizer=optimizer)
        with pytest.raises(TrainingDivergedError, match="temperature -[0-9.]+ is not a finite "
                                                        "number > 0|got -[0-9.]+$") as exc_info:
            train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert exc_info.value.epoch == 0
        if not optimizer.sam:
            assert exc_info.value.step == 0

    def test_cosine_temperature_refused_by_the_model(self):
        for temperature in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cosine temperature must be a finite number > 0"):
                init_model(3, 4, classifier_kind="cosine", temperature=temperature)

    def test_single_step_decreases_convex_batch_loss(self):
        rng = np.random.default_rng(4)
        dist = distribution_from_counts([10, 10, 10])
        spec = LossSpec("ce")
        for trial in range(10):
            model = init_model(3, 4)
            model.cls_w = 0.1 * rng.standard_normal((3, 4))
            features = rng.standard_normal((16, 4))
            targets = rng.integers(0, 3, size=16)

            def batch_loss(m):
                logits, _ = forward_with_cache(m, features)
                return batch_loss_and_grad(loss_plan(spec, dist), logits, targets)[0].mean()

            before = batch_loss(model)
            logits, cache = forward_with_cache(model, features)
            _, grads = batch_loss_and_grad(loss_plan(spec, dist), logits, targets)
            params = {"cls_w": model.cls_w, "cls_b": model.cls_b}
            out = {key: np.empty_like(value) for key, value in params.items()}
            param_grads = backward(model, cache, grads / 16, out=out)
            full = backward(model, cache, grads / 16)
            assert all(param_grads[key].tobytes() == full[key].tobytes() for key in params)
            opt = Optimizer(OptimizerSpec("sgd", lr=0.01, momentum=0.0))
            new = unflatten(opt.step(flatten(params), param_grads), params)
            model.cls_w, model.cls_b = new["cls_w"], new["cls_b"]
            assert batch_loss(model) < before

    def test_eval_every_thins_history_but_keeps_final(self):
        manifest = blob_manifest([20, 10, 5], val_per_class=5, test_per_class=5)
        config = TrainConfig(epochs=5, batch_size=16, seed=0, optimizer=SGD, eval_every=2)
        _, history = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert [r.epoch for r in history.records] == [1, 3, 4]

    def test_mixup_training_runs_and_is_deterministic(self):
        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=3, batch_size=16, seed=5, optimizer=SGD,
                             mixup=MixupSpec(alpha=0.2, enabled=True))
        groups = groups_for(manifest, (1, 2))
        a, _ = train_stage1(manifest, config, groups=groups)
        b, _ = train_stage1(manifest, config, groups=groups)
        assert np.array_equal(a.cls_w, b.cls_w)

    def test_difficulty_sampler_trains(self):
        manifest = blob_manifest([40, 20, 4], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=4, batch_size=16, seed=1, optimizer=SGD,
                             sampler=SamplerSpec("difficulty"))
        model, history = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert len(history) == 4

    def test_stochastic_loss_trains_deterministically(self):
        manifest = blob_manifest([40, 20, 4], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=3, batch_size=16, seed=1, optimizer=SGD,
                             loss=LossSpec("gcl"))
        groups = groups_for(manifest, (1, 2))
        a, _ = train_stage1(manifest, config, groups=groups)
        b, _ = train_stage1(manifest, config, groups=groups)
        assert np.array_equal(a.cls_w, b.cls_w)


class TestSamCollapse:
    def test_full_run_bit_identical(self):
        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        groups = groups_for(manifest, (1, 2))
        base = dict(epochs=10, batch_size=16, seed=7)
        plain, _ = train_stage1(manifest, TrainConfig(**base, optimizer=SGD), groups=groups)
        sam0, _ = train_stage1(
            manifest,
            TrainConfig(**base, optimizer=OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.0)),
            groups=groups)
        assert np.array_equal(plain.cls_w, sam0.cls_w)
        assert np.array_equal(plain.cls_b, sam0.cls_b)

    def test_sam_actually_changes_updates(self):
        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        groups = groups_for(manifest, (1, 2))
        base = dict(epochs=3, batch_size=16, seed=7)
        plain, _ = train_stage1(manifest, TrainConfig(**base, optimizer=SGD), groups=groups)
        sam, _ = train_stage1(
            manifest,
            TrainConfig(**base, optimizer=OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.05)),
            groups=groups)
        assert not np.array_equal(plain.cls_w, sam.cls_w)


class TestFlatParameterBuffer:
    @staticmethod
    def record_buffers(monkeypatch) -> list:
        """The ``params`` argument of every optimizer step from now on."""
        buffers, step = [], Optimizer.step

        def recording_step(self, params, grads):
            buffers.append(params)
            return step(self, params, grads)

        monkeypatch.setattr(Optimizer, "step", recording_step)
        return buffers

    @pytest.mark.parametrize("classifier_kind", ["linear", "cosine"])
    def test_stage1_result_owns_its_arrays(self, monkeypatch, classifier_kind):
        buffers = self.record_buffers(monkeypatch)
        manifest = blob_manifest([30, 15, 5], val_per_class=10, test_per_class=10)
        config = TrainConfig(epochs=2, batch_size=16, seed=3, hidden_dim=4,
                             classifier_kind=classifier_kind,
                             optimizer=OptimizerSpec("adam", lr=0.01, sam=True, sam_rho=0.05))
        model, _ = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        flat = buffers[0]
        assert all(b is flat for b in buffers)  # one buffer, moved in place, for the fit
        assert flat.size == sum(np.size(getattr(model, k)) for k in
                                ("cls_w", "cls_b", "temperature", "encoder_w", "encoder_b")
                                if getattr(model, k) is not None)
        for name in ("cls_w", "cls_b", "encoder_w", "encoder_b"):
            arr = getattr(model, name)
            assert arr is None or not np.shares_memory(arr, flat)
        if classifier_kind == "cosine":
            assert type(model.temperature) is float
        else:
            assert model.temperature is None

    def test_stage2_result_owns_its_arrays(self, monkeypatch):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest, epochs=2)
        buffers = self.record_buffers(monkeypatch)
        out = fit_stage2("disalign", model, manifest, config, np.random.default_rng(0))
        assert buffers and all(b is buffers[0] for b in buffers)
        for name in ("logit_scale", "logit_offset"):
            assert not np.shares_memory(getattr(out, name), buffers[0])


class TestTargetsCheckedOncePerFit:
    """A fit checks its sampler's targets once, before its first optimizer step; the loss
    kernels then read each batch's targets unchecked."""

    @pytest.mark.parametrize("label", [3, -1])
    def test_out_of_range_class_refused_before_the_first_step(self, monkeypatch, label):
        steps = TestFlatParameterBuffer.record_buffers(monkeypatch)
        manifest = blob_manifest([20, 10, 5])
        config = TrainConfig(epochs=2, batch_size=8, seed=0, optimizer=SGD)
        plan = loss_plan(config.loss, manifest.train_distribution())
        manifest.labels[manifest.split_indices("train")[7]] = label  # K = 3
        # train_stage1 counts the train labels first, and refuses them there
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            train_stage1(manifest, config, groups=groups_for(blob_manifest([20, 10, 5]), (1, 2)))
        # a fit whose plan was made before the change refuses them itself
        model = init_model(3, manifest.feature_dim)
        with pytest.raises(ValueError, match=r"^targets must lie in \[0, 3\)$"):
            training_module._fit(model, manifest, config, np.random.default_rng(0),
                                 ("cls_w", "cls_b"), SamplerSpec(), plan, MixupSpec(), 2)
        assert steps == []

    @pytest.mark.parametrize("entry", [2, -1])
    def test_non_binary_multi_label_entry_refused_before_the_first_step(self, monkeypatch,
                                                                        entry):
        steps = TestFlatParameterBuffer.record_buffers(monkeypatch)
        manifest = multilabel_manifest(n=60)
        manifest.labels[manifest.split_indices("train")[-1], 1] = entry
        config = TrainConfig(epochs=2, batch_size=8, seed=0, loss=LossSpec("bce_ml"),
                             optimizer=SGD)
        with pytest.raises(ValueError, match=r"^multi-label targets must be a binary \(n, 3\)"):
            train_stage1(manifest, config, groups=group_split(distribution_from_counts([5, 5, 5]),
                                                              (1, 2)))
        assert steps == []


def reference_backward(model, cache, g, keys):
    """Each gradient of ``keys`` as its own out-of-place expression into a new array: the
    reference for ``backward`` into a buffer."""
    grads = {}
    if model.logit_offset is not None:
        grads["logit_offset"] = g.sum(axis=0)
    if model.logit_scale is not None:
        grads["logit_scale"] = (g * cache["base"]).sum(axis=0)
        g = g * model.logit_scale
    feats = cache["feats"]
    if model.classifier_kind == "linear":
        grads["cls_w"] = g.T @ feats
        grads["cls_b"] = g.sum(axis=0)
        g_feats = g @ model.cls_w
    else:
        temp, g_cos = model.temperature, g * cache["cos"]
        grads["temperature"] = np.asarray(g_cos.sum())
        per_class = g.T @ cache["x_hat"] - g_cos.sum(axis=0)[:, None] * cache["w_hat"]
        grads["cls_w"] = temp * per_class / cache["w_safe"][:, None]
        grads["cls_w"][cache["w_norm"] == 0] = 0.0
        g_feats = temp * (g @ cache["w_hat"] - g_cos.sum(axis=1, keepdims=True)
                          * cache["x_hat"]) / cache["x_safe"][:, None]
        g_feats[cache["x_norm"] == 0] = 0.0
    if model.encoder_w is not None:
        g_pre = g_feats * (feats > 0)
        grads["encoder_w"] = g_pre.T @ cache["x"]
        grads["encoder_b"] = g_pre.sum(axis=0)
    return {k: grads[k] for k in keys}


def fit_model(kind, hidden, calibration, zero_rows, rng, k=4, d=3):
    """A model of one head kind, encoder and logit calibration, with random parameters."""
    model = init_model(k, d, hidden_dim=hidden, classifier_kind=kind, temperature=8.0, rng=rng)
    f = model.cls_w.shape[1]
    cls_w = rng.standard_normal((k, f))
    if zero_rows:
        cls_w[1] = 0.0  # a zero-norm cosine row
    model = replace(model, cls_w=cls_w,
                    cls_b=None if kind == "cosine" else rng.standard_normal(k))
    if calibration >= 1:
        model = replace(model, logit_scale=1.0 + 0.1 * rng.standard_normal(k))
    if calibration == 2:
        model = replace(model, logit_offset=0.1 * rng.standard_normal(k))
    return model


def fit_key_sets(model) -> list:
    """The trainable keys of stage 1 and of each head fit that apply to ``model``."""
    stage1 = training_module._head_keys(model) + (
        () if model.encoder_w is None else ("encoder_w", "encoder_b"))
    heads = [trainable(model) for _, trainable, _, _ in training_module._HEAD_FITS.values()]
    return [stage1] + [keys for keys in heads
                       if all(getattr(model, key) is not None for key in keys)]


model_cases = st.tuples(st.sampled_from(["linear", "cosine"]), st.sampled_from([None, 5]),
                        st.integers(0, 2), st.booleans(), st.integers(0, 2 ** 32 - 1))


class TestFlatGradientBuffer:
    @settings(max_examples=60, deadline=None)
    @given(case=model_cases, n=st.integers(1, 9))
    def test_backward_into_the_buffer_bitwise_equals_per_parameter_arrays(self, case, n):
        kind, hidden, calibration, zero_rows, seed = case
        rng = np.random.default_rng(seed)
        model = fit_model(kind, hidden, calibration, zero_rows, rng)
        x = rng.standard_normal((n, model.feature_dim))
        if zero_rows:
            x[0] = 0.0  # a zero-norm cosine input row, or an all-dead ReLU row
        logits, cache = forward_with_cache(model, x)
        g = rng.standard_normal(logits.shape)
        for keys in fit_key_sets(model):
            views = Optimizer(OptimizerSpec("adam")).gradients(
                {key: getattr(model, key) for key in keys})
            buffer = next(iter(views.values())).base
            assert backward(model, cache, g, out=views) is views
            assert tuple(views) == keys
            expected = reference_backward(model, cache, g, keys)
            for key in keys:
                assert views[key].base is buffer, key  # one flat buffer, written in place
                assert views[key].tobytes() == np.asarray(expected[key]).tobytes(), key
                assert views[key].tobytes() == backward(model, cache, g)[key].tobytes()

    @pytest.mark.parametrize("spec", [
        OptimizerSpec("sgd", lr=0.05, momentum=0.9), OptimizerSpec("adam", lr=0.01),
        OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.1),
        OptimizerSpec("adam", lr=0.01, sam=True, sam_rho=0.05)],
        ids=["sgd", "adam", "sgd-sam", "adam-sam"])
    @settings(max_examples=25, deadline=None)
    @given(case=model_cases, n=st.integers(1, 9))
    def test_steps_from_the_buffer_bitwise_equal_flattened_dict_steps(self, spec, case, n):
        kind, hidden, calibration, zero_rows, seed = case
        rng = np.random.default_rng(seed)
        model = fit_model(kind, hidden, calibration, zero_rows, rng)
        x = rng.standard_normal((n, model.feature_dim))
        y = rng.integers(0, model.num_classes, size=n)
        plan = loss_plan(LossSpec("ce"), distribution_from_counts([9, 5, 3, 2]))

        def logit_grads(candidate):
            logits, cache = forward_with_cache(candidate, x)
            values, g = batch_loss_and_grad(plan, logits, y)
            return float(values.sum() / n), cache, g / n

        for keys in fit_key_sets(model):
            layout = {key: getattr(model, key) for key in keys}
            # the fit's path: backward into the optimizer's buffer, read by the step
            fit_opt, params = Optimizer(spec), flatten(layout)
            views = fit_opt.gradients(layout)

            def grad_fn(p):
                candidate = replace(model, **unflatten(p, layout))
                value, cache, g = logit_grads(candidate)
                return value, backward(candidate, cache, g, out=views)

            # the dict path: per-parameter arrays, flattened into a new buffer for the step
            dict_opt, expected = Optimizer(spec), flatten(layout)

            def grads_at(p):
                candidate = replace(model, **unflatten(p, layout))
                _, cache, g = logit_grads(candidate)
                return reference_backward(candidate, cache, g, keys)

            for _ in range(3):
                sam_step(fit_opt, params, grad_fn)
                grads = grads_at(expected)
                if spec.sam:
                    scale = spec.sam_rho / (global_grad_norm(grads) + 1e-12)
                    grads = grads_at(expected + scale * flatten(grads))
                dict_opt.step(expected, {"all": flatten(grads)})
                assert params.tobytes() == expected.tobytes(), keys

    def test_fit_steps_read_one_buffer_and_flatten_only_the_parameters(self, monkeypatch):
        seen, step = [], Optimizer.step

        def recording_step(self, params, grads):
            seen.append(grads)
            return step(self, params, grads)

        flattened = []

        def counting_flatten(arrays):
            flattened.append(tuple(arrays))
            return flatten(arrays)

        monkeypatch.setattr(Optimizer, "step", recording_step)
        monkeypatch.setattr(training_module, "flatten", counting_flatten)
        monkeypatch.setattr(optim_module, "flatten", None)  # no step may flatten
        manifest = blob_manifest([30, 15, 5])
        config = TrainConfig(epochs=2, batch_size=16, seed=3, hidden_dim=4,
                             classifier_kind="cosine",
                             optimizer=OptimizerSpec("adam", lr=0.01, sam=True, sam_rho=0.05))
        train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        assert flattened == [("cls_w", "temperature", "encoder_w", "encoder_b")]  # once a fit
        assert len(seen) > 1 and all(grads is seen[0] for grads in seen)
        buffer = seen[0]["cls_w"].base
        assert buffer.ndim == 1 and buffer.size == sum(np.size(v) for v in seen[0].values())
        assert all(view.base is buffer for view in seen[0].values())


def trained_stage1(manifest, seed=0, epochs=8, hidden=None):
    config = TrainConfig(epochs=epochs, batch_size=32, seed=seed, optimizer=SGD,
                         hidden_dim=hidden)
    groups = groups_for(manifest, (1, 2))
    model, _ = train_stage1(manifest, config, rng=np.random.default_rng(seed), groups=groups)
    return model, config, groups


class TestEvaluateSplit:
    def test_posthoc_tau_scores_the_adjusted_argmax(self):
        manifest = blob_manifest([80, 20, 4], val_per_class=10, test_per_class=10)
        model, _, groups = trained_stage1(manifest, epochs=3)
        idx = manifest.split_indices("test")
        scores = decision_scores(model, manifest.features[idx])
        plain = evaluate_split(model, manifest, "test", groups).to_dict()
        assert evaluate_split(model, manifest, "test", groups, posthoc_tau=0.0).to_dict() == plain
        for tau in (0.5, 1.0, 3.0):
            adjusted = scores - posthoc_shift(manifest.train_distribution(), tau)
            expected = group_report(np.argmax(adjusted, axis=1), manifest.labels[idx], groups)
            got = evaluate_split(model, manifest, "test", groups, posthoc_tau=tau)
            assert got.to_dict() == expected.to_dict()

    def test_non_finite_posthoc_shift_is_refused_before_scoring(self, monkeypatch):
        manifest = blob_manifest([80, 20, 4], val_per_class=10, test_per_class=10)
        model, _, groups = trained_stage1(manifest, epochs=1)
        calls = []

        def counting_scores(classifier, features):
            calls.append(len(features))
            return decision_scores(classifier, features)

        monkeypatch.setattr(training_module, "decision_scores", counting_scores)
        with pytest.raises(ValueError, match="posthoc tau 1e\\+308 gives a logit shift"):
            evaluate_split(model, manifest, "test", groups, posthoc_tau=1e308)
        assert calls == []

    def test_posthoc_tau_on_a_multilabel_split_is_refused_before_scoring(self, monkeypatch):
        # a per-label constant shift would leave every AP as it is: the tau would do nothing
        manifest = multilabel_manifest()
        model = init_model(3, 4, rng=np.random.default_rng(0))
        groups = group_split(distribution_from_counts([5, 5, 5]), (1, 2))
        monkeypatch.setattr(training_module, "decision_scores", None)  # scoring would raise
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError, match="^post-hoc adjustment applies to single-label"):
                evaluate_split(model, manifest, "test", groups, posthoc_tau=tau)


class TestStage2Crt:
    def test_encoder_frozen_bit_identical(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest, hidden=6)
        before = model.encoder_w.copy()
        out = fit_stage2("crt", model, manifest, config, np.random.default_rng(3))
        assert np.array_equal(out.encoder_w, before)
        assert np.array_equal(model.encoder_w, before)
        assert not np.array_equal(out.cls_w, model.cls_w)

    def test_deterministic(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        a = fit_stage2("crt", model, manifest, config, np.random.default_rng(3))
        b = fit_stage2("crt", model, manifest, config, np.random.default_rng(3))
        assert np.array_equal(a.cls_w, b.cls_w)

    def test_balanced_data_accuracy_within_two_points(self):
        diffs = []
        for seed in range(5):
            manifest = blob_manifest([40, 40, 40], val_per_class=20, test_per_class=20,
                                     seed=seed)
            model, config, groups = trained_stage1(manifest, seed=seed, epochs=10)
            acc1 = np.nanmean(evaluate_split(model, manifest, "test", groups).per_class_acc)
            out = fit_stage2("crt", model, manifest, config, np.random.default_rng(seed + 100))
            acc2 = np.nanmean(evaluate_split(out, manifest, "test", groups).per_class_acc)
            diffs.append(acc1 - acc2)
        assert abs(np.mean(diffs)) <= 2.0


class TestStage2Lws:
    def test_zero_epochs_identity_predictions(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, groups = trained_stage1(manifest)
        config0 = TrainConfig(epochs=config.epochs, batch_size=config.batch_size,
                              seed=config.seed, optimizer=SGD,
                              stage2=Stage2Spec("lws", epochs=0))
        out = fit_stage2("lws", model, manifest, config0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.logit_scale, np.ones(3))
        test_idx = manifest.split_indices("test")
        np.testing.assert_array_equal(
            np.argmax(decision_scores(out, manifest.features[test_idx]), axis=1),
            np.argmax(decision_scores(model, manifest.features[test_idx]), axis=1))

    def test_frozen_weights_and_reasonable_scales_on_balanced_data(self):
        scales = []
        for seed in range(5):
            manifest = blob_manifest([40, 40, 40], val_per_class=10, test_per_class=10,
                                     seed=seed)
            model, config, _ = trained_stage1(manifest, seed=seed)
            out = fit_stage2("lws", model, manifest, config, np.random.default_rng(seed))
            assert np.array_equal(out.cls_w, model.cls_w)
            assert np.array_equal(out.cls_b, model.cls_b)
            scales.append(out.logit_scale)
        scales = np.concatenate(scales)
        assert scales.min() > 0.5 and scales.max() < 2.0


class TestStage2EncodesOnce:
    @pytest.mark.parametrize("epochs", [1, 4])
    @pytest.mark.parametrize("kind", ["crt", "lws", "disalign", "cosine_retrain"])
    def test_one_pass_over_train_rows(self, monkeypatch, kind, epochs):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, _, _ = trained_stage1(manifest, epochs=2, hidden=6)
        config = TrainConfig(epochs=2, batch_size=8, seed=0, hidden_dim=6,
                             optimizer=OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.05),
                             stage2=Stage2Spec(kind, epochs=epochs))
        encode, encoded_rows = model_module.encode, []

        def counting_encode(classifier, x):
            if classifier.encoder_w is not None:
                encoded_rows.append(len(x))
            return encode(classifier, x)

        monkeypatch.setattr(model_module, "encode", counting_encode)
        out = apply_stage2(model, manifest, config, np.random.default_rng(0))
        assert encoded_rows == [manifest.split_indices("train").size]
        assert np.array_equal(out.encoder_w, model.encoder_w)


def blocked_manifest(n_train, n_test, k, d, seed):
    """Random rows: ``n_train`` train rows with every class present, ``n_test`` test rows."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(n_train) % k, rng.integers(0, k, n_test)])
    return Manifest(ids=tuple(f"r{i}" for i in range(n_train + n_test)),
                    features=rng.standard_normal((n_train + n_test, d)), labels=labels,
                    splits=np.array(["train"] * n_train + ["test"] * n_test), num_classes=k,
                    feature_dim=d, task_kind="single")


def random_classifier(kind, k, d, hidden, rng):
    """A linear, cosine, LWS- or DisAlign-calibrated model, or an NCM head, with random arrays."""
    cosine = kind == "cosine"
    model = init_model(k, d, hidden_dim=hidden, classifier_kind="cosine" if cosine else "linear",
                       rng=rng)
    model.cls_w = rng.standard_normal(model.cls_w.shape)
    if not cosine:
        model.cls_b = rng.standard_normal(k)
    if kind in ("lws", "disalign"):
        model.logit_scale = rng.uniform(0.5, 2.0, k)
    if kind == "disalign":
        model.logit_offset = rng.standard_normal(k)
    if kind == "ncm":
        return NcmClassifier(means=rng.standard_normal(model.cls_w.shape),
                             encoder_w=model.encoder_w, encoder_b=model.encoder_b)
    return model


def fields(classifier):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(classifier).items()}


def encode_whole(classifier, features, idx):
    return encode(classifier, features[idx])


# split sizes either side of one and two blocks; the equal blocks never leave a lone row
BLOCK_EDGES = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
CLASSIFIER_KINDS = ("linear", "cosine", "lws", "disalign", "ncm")


class TestBlockedEvaluation:
    """Single-label evaluation scores row blocks; it predicts what scoring the whole split does.

    K, d and the hidden width are drawn from 2-12, where OpenBLAS gives a GEMM row the same
    bits whatever the row count. Elsewhere it need not: a product with 1-4 output columns
    over 32 or more inputs, or with 300, can differ in the last bits.
    """

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(2, 12), d=st.integers(2, 12),
           hidden=st.none() | st.integers(2, 12),
           tau=st.none() | st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_predict_the_whole_split_argmax(self, kind, n, k, d, hidden, tau, seed):
        manifest = blocked_manifest(2 * k, n, k, d, seed)
        classifier = random_classifier(kind, k, d, hidden, np.random.default_rng(seed))
        scores = decision_scores(classifier, manifest.features[manifest.split_indices("test")])
        if tau is not None:
            scores = scores - posthoc_shift(manifest.train_distribution(), tau)
        with mock.patch.object(training_module, "group_report",
                               lambda predictions, truths, groups: predictions):
            got = evaluate_split(classifier, manifest, "test", None, posthoc_tau=tau)
        assert got.tobytes() == np.argmax(scores, axis=1).tobytes()

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_peak_memory_does_not_grow_with_split_beyond_a_block(self, kind):
        k, d, peaks = 64, 32, []
        sizes = (2 * BLOCK_ROWS, 16 * BLOCK_ROWS)
        for n in sizes:
            manifest = blocked_manifest(2 * k, n, k, d, seed=0)
            classifier = random_classifier(kind, k, d, 32, np.random.default_rng(1))
            groups = group_split(manifest.train_distribution(), (1, 2))
            manifest.split_indices("test")  # the split's row index is kept on the manifest
            peaks.append(traced_peak(evaluate_split, classifier, manifest, "test", groups)[1])
        # a whole-split score matrix alone takes 8 * K bytes a row; the predictions and the
        # report's own per-row arrays take a few dozen at most: under an eighth of that
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) * (8 * k) / 8
        assert peaks[1] < sizes[1] * 8 * k


class TestBlockedStage2:
    """Stage 2 encodes the train rows in blocks: the same arrays as encoding them all at once."""

    @pytest.mark.parametrize("n_train", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["crt", "lws", "disalign", "cosine_retrain", "ncm"])
    def test_same_classifier_as_encoding_all_rows_at_once(self, kind, n_train):
        manifest = blocked_manifest(n_train, 10, 5, 6, seed=n_train)
        model = random_classifier("linear", 5, 6, 8, np.random.default_rng(2))
        config = TrainConfig(epochs=1, batch_size=64, seed=0, hidden_dim=8,
                             optimizer=OptimizerSpec("adam", lr=0.01),
                             stage2=Stage2Spec(kind, **({} if kind == "ncm" else {"epochs": 2})))
        got = apply_stage2(model, manifest, config, np.random.default_rng(3))
        with mock.patch.object(training_module, "encode_rows", encode_whole):
            expected = apply_stage2(model, manifest, config, np.random.default_rng(3))
        assert fields(got) == fields(expected)

    @pytest.mark.parametrize("kind", ["crt", "disalign", "ncm"])
    def test_peak_memory_below_raw_rows_plus_encoded_copy(self, kind):
        n_train, k, d, hidden = 8 * BLOCK_ROWS, 8, 32, 32
        manifest = blocked_manifest(n_train, 10, k, d, seed=0)
        model = random_classifier("linear", k, d, hidden, np.random.default_rng(1))
        config = TrainConfig(epochs=1, batch_size=256, seed=0, hidden_dim=hidden,
                             stage2=Stage2Spec(kind, **({} if kind == "ncm" else {"epochs": 1})))
        manifest.split_indices("train")
        _, peak = traced_peak(apply_stage2, model, manifest, config, np.random.default_rng(0))
        # a gathered copy of the raw train rows held beside the encoded ones reaches this alone
        assert peak < n_train * (d + hidden) * 8


class TestStage2Ncm:
    def test_identity_encoder_recovers_generator_means(self):
        manifest = blob_manifest([200, 200, 200], feature_dim=4, separation=4.0, seed=3)
        model, _, _ = trained_stage1(manifest, epochs=1)
        ncm = stage2_ncm(model, manifest)
        expected = 4.0 * np.eye(4)[:3]
        assert np.abs(ncm.means - expected).max() < 0.3

    def test_empty_class_rejected(self):
        manifest = blob_manifest([10, 10, 10])
        keep = [i for i in range(len(manifest))
                if not (manifest.splits[i] == "train" and manifest.labels[i] == 2)]
        broken = manifest.subset(keep)
        model, _, _ = trained_stage1(manifest, epochs=1)
        with pytest.raises(ValueError, match="class 2"):
            stage2_ncm(model, broken)


class TestStage2Disalign:
    @pytest.mark.parametrize("kind", ["disalign", "crt"])
    def test_empty_train_class_rejected(self, kind):
        # DisAlign's inverse-frequency weights would be 1/0; it refuses as cRT's sampler does
        manifest = blob_manifest([20, 10, 0])
        config = TrainConfig(epochs=2, batch_size=16, seed=0, optimizer=SGD,
                             stage2=Stage2Spec(kind))
        with pytest.raises(ValueError, match="class 2 has no training samples"):
            apply_stage2(init_model(3, 4), manifest, config, np.random.default_rng(0))

    def test_zero_epochs_identity_calibration(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        config0 = TrainConfig(epochs=1, batch_size=16, seed=0, optimizer=SGD,
                              stage2=Stage2Spec("disalign", epochs=0))
        out = fit_stage2("disalign", model, manifest, config0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.logit_scale, np.ones(3))
        np.testing.assert_array_equal(out.logit_offset, np.zeros(3))

    def test_base_classifier_frozen(self):
        manifest = blob_manifest([60, 20, 4], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        out = fit_stage2("disalign", model, manifest, config, np.random.default_rng(1))
        assert np.array_equal(out.cls_w, model.cls_w)
        assert np.array_equal(out.cls_b, model.cls_b)

    def test_tail_recall_not_hurt_on_imbalanced_blobs(self):
        before_tail, after_tail = [], []
        for seed in range(5):
            manifest = blob_manifest([99, 33, 1], feature_dim=4, separation=2.5,
                                     val_per_class=30, test_per_class=30, seed=seed)
            model, config, groups = trained_stage1(manifest, seed=seed, epochs=10)
            before_tail.append(evaluate_split(model, manifest, "test", groups).tail)
            out = fit_stage2("disalign", model, manifest, config, np.random.default_rng(seed))
            after_tail.append(evaluate_split(out, manifest, "test", groups).tail)
        assert np.mean(after_tail) >= np.mean(before_tail)


class TestStage2CosineRetrain:
    def test_swaps_head_and_trains(self):
        manifest = blob_manifest([60, 20, 4], val_per_class=10, test_per_class=10)
        model, config, groups = trained_stage1(manifest, epochs=6)
        out = fit_stage2("cosine_retrain", model, manifest, config, np.random.default_rng(2))
        assert out.classifier_kind == "cosine"
        assert out.cls_b is None
        report = evaluate_split(out, manifest, "test", groups)
        assert report.average > 50.0


class TestWeightNormTrend:
    def test_erm_norms_track_class_frequency(self):
        manifest = blob_manifest([200, 60, 18, 5], feature_dim=6, separation=2.0,
                                 val_per_class=20, test_per_class=20, seed=0)
        config = TrainConfig(epochs=15, batch_size=32, seed=0, optimizer=SGD)
        groups = groups_for(manifest, (1, 3))
        model, _ = train_stage1(manifest, config, groups=groups)
        norms = weight_norms(model)
        counts = manifest.train_distribution().counts
        corr = np.corrcoef(np.log(counts), norms)[0, 1]
        assert corr > 0.5


def model_bytes(classifier) -> dict:
    return {name: np.asarray(value).tobytes() for name, value in vars(classifier).items()
            if value is not None and not isinstance(value, str)}


class TestMultiBatchDrawInFits:
    """A fit in which the sampler is the generator's only consumer draws an epoch's batches
    together; the fitted models are those of one batch per draw, whatever the fit."""

    @staticmethod
    def record_draws(monkeypatch) -> list:
        """(count, batch_size) of every sampler draw from now on."""
        draws, draw = [], samplers_module.BatchSampler.draw

        def recording_draw(self, count, batch_size, rng):
            draws.append((count, batch_size))
            return draw(self, count, batch_size, rng)

        monkeypatch.setattr(samplers_module.BatchSampler, "draw", recording_draw)
        return draws

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_stage1_models_equal_one_batch_per_draw(self, monkeypatch, loss_kind):
        multi = loss_kind in MULTI_LABEL_KINDS
        manifest = (multilabel_manifest(n=54) if multi
                    else blob_manifest([20, 9, 5], val_per_class=4, test_per_class=4))
        groups = groups_for(manifest, (1, 2))
        configs = [TrainConfig(epochs=2, batch_size=7, seed=5, hidden_dim=3,
                               loss=LossSpec(loss_kind), sampler=SamplerSpec(sampler),
                               mixup=MixupSpec(enabled=mixup),
                               optimizer=OptimizerSpec("adam", lr=0.01, sam=sam))
                   for mixup, sam, sampler in product(
                       (False, True), (False, True),
                       ("original",) if multi else samplers_module.SAMPLER_KINDS)]
        draws = self.record_draws(monkeypatch)
        shipped = []
        for config in configs:
            draws.clear()
            shipped.append(model_bytes(train_stage1(manifest, config, groups=groups)[0]))
            alone = config.mixup.enabled or loss_kind in STOCHASTIC_KINDS
            assert all(count == 1 for count, _ in draws) == alone, config
        monkeypatch.setattr(training_module, "MAX_DRAWN_ROWS", 1)  # one batch per draw
        for config, expected in zip(configs, shipped):
            assert model_bytes(train_stage1(manifest, config, groups=groups)[0]) == expected

    @pytest.mark.parametrize("sam", [False, True])
    @pytest.mark.parametrize("kind", sorted(training_module._HEAD_FITS))
    def test_head_fits_equal_one_batch_per_draw(self, monkeypatch, kind, sam):
        manifest = blob_manifest([20, 9, 5], val_per_class=4, test_per_class=4)
        config = TrainConfig(epochs=2, batch_size=7, seed=5, hidden_dim=3,
                             optimizer=OptimizerSpec("adam", lr=0.01, sam=sam),
                             stage2=Stage2Spec(kind, epochs=2))
        model, _ = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))
        draws = self.record_draws(monkeypatch)
        shipped = model_bytes(apply_stage2(model, manifest, config, np.random.default_rng(2)))
        assert max(count for count, _ in draws) > 1
        monkeypatch.setattr(training_module, "MAX_DRAWN_ROWS", 1)
        assert model_bytes(apply_stage2(model, manifest, config,
                                        np.random.default_rng(2))) == shipped

    def test_a_long_epoch_never_draws_more_than_the_cap(self, monkeypatch):
        draws = self.record_draws(monkeypatch)
        cap = training_module.MAX_DRAWN_ROWS
        manifest = blob_manifest([20, 9, 5])
        config = TrainConfig(epochs=2, batch_size=100, seed=1, optimizer=SGD,
                             sampler=SamplerSpec("class_balanced", epoch_length=10 * cap))
        train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)), keep_history=False)
        steps = -(-10 * cap // 100)
        assert max(count * size for count, size in draws) <= cap
        assert sum(count for count, _ in draws) == 2 * steps  # each epoch's batches, no more
        assert len(draws) >= 2 * (10 * cap // cap)

    def test_a_batch_above_the_cap_is_drawn_alone(self, monkeypatch):
        draws = self.record_draws(monkeypatch)
        big = training_module.MAX_DRAWN_ROWS + 1
        manifest = blob_manifest([20, 9, 5])
        config = TrainConfig(epochs=1, batch_size=big, seed=1, optimizer=SGD,
                             sampler=SamplerSpec(epoch_length=3 * big))
        train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)), keep_history=False)
        assert draws == [(1, big)] * 3

    @settings(max_examples=40, deadline=None)
    @given(epoch_length=st.integers(1, 60), batch_size=st.integers(1, 12),
           cap=st.integers(1, 40), kind=st.sampled_from(samplers_module.SAMPLER_KINDS),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(epoch_length=20, batch_size=3, cap=9, kind="difficulty", seed=0)  # 7 steps, 3 a draw
    @example(epoch_length=5, batch_size=1, cap=16, kind="original", seed=0)  # steps < ahead
    @example(epoch_length=30, batch_size=10, cap=8, kind="class_balanced", seed=0)  # batch > cap
    def test_each_epoch_draws_its_steps_into_the_models_of_cap_1(self, epoch_length, batch_size,
                                                                 cap, kind, seed):
        manifest = blob_manifest([20, 9, 5], val_per_class=4, test_per_class=4)
        groups = groups_for(manifest, (1, 2))
        config = TrainConfig(epochs=3, batch_size=batch_size, seed=seed, optimizer=SGD,
                             sampler=SamplerSpec(kind, epoch_length=epoch_length))
        models = []
        for limit in (cap, 1):
            with pytest.MonkeyPatch.context() as patch:
                draws = self.record_draws(patch)
                patch.setattr(training_module, "MAX_DRAWN_ROWS", limit)
                model, _ = train_stage1(manifest, config, groups=groups, keep_history=False)
            models.append(model_bytes(model))
            counts = [count for count, _ in draws]
            steps = -(-epoch_length // batch_size)
            # no draw crosses an epoch's end, and none holds more than the cap or one batch
            assert sum(counts) == 3 * steps
            assert {steps, 2 * steps} <= set(np.cumsum(counts).tolist())
            assert all(count == 1 or count * batch_size <= limit for count in counts)
        assert models[0] == models[1]

    def test_stage1_fit_holds_no_copy_of_the_train_rows(self):
        manifest = blob_manifest([3000] * 4, feature_dim=64, val_per_class=2, test_per_class=2)
        train_bytes = manifest.split_indices("train").size * 64 * 8  # 6.1 MB
        config = TrainConfig(epochs=1, batch_size=64, seed=0, optimizer=SGD)
        _, peak = traced_peak(train_stage1, manifest, config,
                              groups=groups_for(manifest, (1, 2)), keep_history=False)
        assert peak < train_bytes / 8


def reference_sam_fit(manifest, config) -> dict:
    """A SAM stage-1 fit that builds a new model and a new params + scale * g for every
    shifted point, and steps on a flattened gradient dict: the trained parameters."""
    rng = training_module.stage_rngs(config.seed)[1]
    model = init_model(manifest.num_classes, manifest.feature_dim, hidden_dim=config.hidden_dim,
                       classifier_kind=config.classifier_kind, temperature=config.temperature,
                       rng=rng)
    keys = training_module._head_keys(model) + ("encoder_w", "encoder_b")
    layout = {key: getattr(model, key) for key in keys}
    params, optimizer = flatten(layout), Optimizer(config.optimizer)
    sampler = samplers_module.BatchSampler(config.sampler, manifest)
    plan = loss_plan(config.loss, manifest.train_distribution())

    def grads_at(p, x, y):
        candidate = replace(model, **unflatten(p, layout))
        logits, cache = forward_with_cache(candidate, x)
        _, g = batch_loss_and_grad(plan, logits, y)
        return reference_backward(candidate, cache, g / len(x), keys)

    steps = -(-sampler.epoch_length // config.batch_size)
    for _ in range(config.epochs * steps):
        x, y = sampler.next_batch(sampler.draw(1, config.batch_size, rng)[0])
        grads = grads_at(params, x, y)
        scale = config.optimizer.sam_rho / (global_grad_norm(grads) + 1e-12)
        grads = grads_at(params + scale * flatten(grads), x, y)
        optimizer.step(params, {"all": flatten(grads)})
    return {key: value.tobytes() for key, value in unflatten(params, layout).items()}


class TestSamShiftedPoint:
    """SAM's shifted point lives in one buffer, bound once to a model of its own."""

    @pytest.mark.parametrize("optimizer", [OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.1),
                                           OptimizerSpec("adam", lr=0.01, sam=True, sam_rho=0.05)],
                             ids=["sgd-sam", "adam-sam"])
    @pytest.mark.parametrize("classifier_kind", ["linear", "cosine"])
    def test_fit_equals_a_new_shifted_model_per_step(self, optimizer, classifier_kind):
        manifest = blob_manifest([30, 15, 5], val_per_class=4, test_per_class=4)
        config = TrainConfig(epochs=3, batch_size=8, seed=4, hidden_dim=4,
                             classifier_kind=classifier_kind, temperature=5.0,
                             optimizer=optimizer)
        model, _ = train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)),
                                keep_history=False)
        expected = reference_sam_fit(manifest, config)
        assert {key: np.asarray(getattr(model, key)).tobytes() for key in expected} == expected
        if classifier_kind == "cosine":  # the temperature trained
            assert expected["temperature"] != np.asarray(5.0).tobytes()

    def test_temperature_leaving_zero_at_the_shifted_point_stops_the_fit(self):
        manifest = blob_manifest([20, 10, 5])
        config = TrainConfig(epochs=2, batch_size=8, seed=0, classifier_kind="cosine",
                             temperature=0.1,
                             optimizer=OptimizerSpec("sgd", lr=0.01, sam=True, sam_rho=50.0))
        # the message of the shifted point's check, not of the stepped model's
        with pytest.raises(TrainingDivergedError,
                           match="cosine temperature must be a finite number > 0, got -"):
            train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)))

    def test_no_model_is_built_per_step(self, monkeypatch):
        built, post_init = [], ModelState.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ModelState, "__post_init__", counting_post_init)
        manifest = blob_manifest([30, 15, 5])
        counts = []
        for epochs in (1, 4):
            config = TrainConfig(epochs=epochs, batch_size=8, seed=4, hidden_dim=4,
                                 classifier_kind="cosine",
                                 optimizer=OptimizerSpec("adam", lr=0.01, sam=True))
            built.clear()
            train_stage1(manifest, config, groups=groups_for(manifest, (1, 2)),
                         keep_history=False)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_sam_step_writes_the_shifted_point_into_the_given_buffer(self):
        rng = np.random.default_rng(3)
        params, shifted = rng.standard_normal(5), np.empty(5)
        grad = rng.standard_normal(5)
        seen = []

        def grad_fn(p):
            seen.append(p.copy())
            return 1.0, {"all": grad}

        spec = OptimizerSpec("sgd", lr=0.1, sam=True, sam_rho=0.3)
        expected = params + spec.sam_rho / (global_grad_norm({"all": grad}) + 1e-12) * grad
        sam_step(Optimizer(spec), params, grad_fn, shifted=shifted)
        assert seen[1].tobytes() == expected.tobytes() == shifted.tobytes()
