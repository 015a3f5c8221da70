import numpy as np
import pytest

from longtail_lab import (LossContext, LossSpec, MixupSpec, OptimizerSpec, SamplerSpec,
                          Stage2Spec, TrainConfig, TrainingDivergedError, apply_stage2,
                          batch_loss_and_grad, decision_scores, distribution_from_counts,
                          evaluate_split, group_report, group_split, init_model, loss_plan,
                          parse_config,
                          posthoc_adjust, run_experiment, synth_gaussian, train_stage1,
                          weight_norms)
from longtail_lab import model as model_module, training as training_module
from longtail_lab.model import forward_with_cache, backward
from longtail_lab.optim import Optimizer
from longtail_lab.training import (stage2_cosine_retrain, stage2_crt, stage2_disalign,
                                   stage2_lws, stage2_ncm)

from conftest import blob_manifest


SGD = OptimizerSpec("sgd", lr=0.05)


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
            "train": {"epochs": 3, "batch_size": 16, "hidden_dim": 5, "optimizer": SGD.to_config(),
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
            param_grads = backward(model, cache, grads / 16)
            opt = Optimizer(OptimizerSpec("sgd", lr=0.01, momentum=0.0))
            new = opt.step({"cls_w": model.cls_w, "cls_b": model.cls_b}, param_grads)
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
        out = stage2_disalign(model, manifest, config, np.random.default_rng(0))
        assert buffers and all(b is buffers[0] for b in buffers)
        for name in ("logit_scale", "logit_offset"):
            assert not np.shares_memory(getattr(out, name), buffers[0])


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
            adjusted = posthoc_adjust(scores, manifest.train_distribution(), tau)
            expected = group_report(np.argmax(adjusted, axis=1), manifest.labels[idx], groups)
            got = evaluate_split(model, manifest, "test", groups, posthoc_tau=tau)
            assert got.to_dict() == expected.to_dict()


class TestStage2Crt:
    def test_encoder_frozen_bit_identical(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest, hidden=6)
        before = model.encoder_w.copy()
        out = stage2_crt(model, manifest, config, np.random.default_rng(3))
        assert np.array_equal(out.encoder_w, before)
        assert np.array_equal(model.encoder_w, before)
        assert not np.array_equal(out.cls_w, model.cls_w)

    def test_deterministic(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        a = stage2_crt(model, manifest, config, np.random.default_rng(3))
        b = stage2_crt(model, manifest, config, np.random.default_rng(3))
        assert np.array_equal(a.cls_w, b.cls_w)

    def test_balanced_data_accuracy_within_two_points(self):
        diffs = []
        for seed in range(5):
            manifest = blob_manifest([40, 40, 40], val_per_class=20, test_per_class=20,
                                     seed=seed)
            model, config, groups = trained_stage1(manifest, seed=seed, epochs=10)
            acc1 = np.nanmean(evaluate_split(model, manifest, "test", groups).per_class_acc)
            out = stage2_crt(model, manifest, config, np.random.default_rng(seed + 100))
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
        out = stage2_lws(model, manifest, config0, np.random.default_rng(0))
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
            out = stage2_lws(model, manifest, config, np.random.default_rng(seed))
            assert np.array_equal(out.cls_w, model.cls_w)
            assert np.array_equal(out.cls_b, model.cls_b)
            scales.append(out.logit_scale)
        scales = np.concatenate(scales)
        assert scales.min() > 0.5 and scales.max() < 2.0


class TestStage2EncodesOnce:
    @pytest.mark.parametrize("epochs", [1, 4])
    @pytest.mark.parametrize("fit", [stage2_crt, stage2_lws, stage2_disalign,
                                     stage2_cosine_retrain])
    def test_one_pass_over_train_rows(self, monkeypatch, fit, epochs):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, _, _ = trained_stage1(manifest, epochs=2, hidden=6)
        kind = fit.__name__.removeprefix("stage2_")
        config = TrainConfig(epochs=2, batch_size=8, seed=0, hidden_dim=6,
                             optimizer=OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.05),
                             stage2=Stage2Spec(kind, epochs=epochs))
        encode, encoded_rows = model_module.encode, []

        def counting_encode(classifier, x):
            if classifier.encoder_w is not None:
                encoded_rows.append(len(x))
            return encode(classifier, x)

        monkeypatch.setattr(model_module, "encode", counting_encode)
        monkeypatch.setattr(training_module, "encode", counting_encode)
        out = fit(model, manifest, config, np.random.default_rng(0))
        assert encoded_rows == [manifest.split_indices("train").size]
        assert np.array_equal(out.encoder_w, model.encoder_w)


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
    @pytest.mark.parametrize("fit", [stage2_disalign, stage2_crt])
    def test_empty_train_class_rejected(self, fit):
        # DisAlign's inverse-frequency weights would be 1/0; it refuses as cRT's sampler does
        manifest = blob_manifest([20, 10, 0])
        config = TrainConfig(epochs=2, batch_size=16, seed=0, optimizer=SGD,
                             stage2=Stage2Spec(fit.__name__.removeprefix("stage2_")))
        with pytest.raises(ValueError, match="class 2 has no training samples"):
            fit(init_model(3, 4), manifest, config, np.random.default_rng(0))

    def test_zero_epochs_identity_calibration(self):
        manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        config0 = TrainConfig(epochs=1, batch_size=16, seed=0, optimizer=SGD,
                              stage2=Stage2Spec("disalign", epochs=0))
        out = stage2_disalign(model, manifest, config0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.logit_scale, np.ones(3))
        np.testing.assert_array_equal(out.logit_offset, np.zeros(3))

    def test_base_classifier_frozen(self):
        manifest = blob_manifest([60, 20, 4], val_per_class=10, test_per_class=10)
        model, config, _ = trained_stage1(manifest)
        out = stage2_disalign(model, manifest, config, np.random.default_rng(1))
        assert np.array_equal(out.cls_w, model.cls_w)
        assert np.array_equal(out.cls_b, model.cls_b)

    def test_tail_recall_not_hurt_on_imbalanced_blobs(self):
        before_tail, after_tail = [], []
        for seed in range(5):
            manifest = blob_manifest([99, 33, 1], feature_dim=4, separation=2.5,
                                     val_per_class=30, test_per_class=30, seed=seed)
            model, config, groups = trained_stage1(manifest, seed=seed, epochs=10)
            before_tail.append(evaluate_split(model, manifest, "test", groups).tail)
            out = stage2_disalign(model, manifest, config, np.random.default_rng(seed))
            after_tail.append(evaluate_split(out, manifest, "test", groups).tail)
        assert np.mean(after_tail) >= np.mean(before_tail)


class TestStage2CosineRetrain:
    def test_swaps_head_and_trains(self):
        manifest = blob_manifest([60, 20, 4], val_per_class=10, test_per_class=10)
        model, config, groups = trained_stage1(manifest, epochs=6)
        out = stage2_cosine_retrain(model, manifest, config, np.random.default_rng(2))
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
