"""Stage-1 training and the decoupled stage-2 classifier schemes."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import ClassDistribution, GroupSplit, default_boundaries, group_split
from .losses import LossSpec, batch_loss_and_grad, draw_noise
from .manifest import Manifest
from .metrics import EpochRecord, GroupReport, RunHistory, average_precision_per_label, group_report, group_report_from_values
from .model import (ModelState, NcmClassifier, backward, check_classifier_kind, check_hidden_dim,
                    decision_scores, forward_with_cache, init_model, weight_norms)
from .optim import Optimizer, OptimizerSpec, sam_step
from .samplers import BatchSampler, MixupSpec, SamplerSpec, mixup_batch

STAGE2_KINDS = ("none", "crt", "tau_norm", "lws", "ncm", "disalign", "cosine_retrain")


class TrainingDivergedError(RuntimeError):
    """Raised when the loss (or anything downstream of it) goes non-finite."""

    def __init__(self, epoch: int, step: int, detail: str):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {detail}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class Stage2Spec:
    kind: str = "none"
    tau: float = 1.0
    epochs: int | None = None
    temperature: float = 16.0

    def __post_init__(self):
        if self.kind not in STAGE2_KINDS:
            raise ValueError(f"unknown stage-2 kind {self.kind!r}")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("stage-2 epochs must be >= 0")
        _check_temperature(self.temperature, "stage-2 temperature")

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.kind == "tau_norm":
            cfg["tau"] = self.tau
        if self.kind in ("crt", "lws", "disalign", "cosine_retrain") and self.epochs is not None:
            cfg["epochs"] = self.epochs
        if self.kind == "cosine_retrain":
            cfg["temperature"] = self.temperature
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "Stage2Spec":
        unknown = set(cfg) - {"kind", "tau", "epochs", "temperature"}
        if unknown:
            raise ValueError(f"unknown stage-2 config keys: {sorted(unknown)}")
        return cls(**cfg)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    loss: LossSpec = field(default_factory=lambda: LossSpec("ce"))
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    mixup: MixupSpec = field(default_factory=MixupSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    stage2: Stage2Spec = field(default_factory=Stage2Spec)
    eval_every: int = 1
    hidden_dim: int | None = None
    classifier_kind: str = "linear"
    temperature: float = 16.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        check_classifier_kind(self.classifier_kind)
        check_hidden_dim(self.hidden_dim)
        _check_temperature(self.temperature, "temperature")


def _check_temperature(value, name: str) -> None:
    """A configured cosine temperature (the trained one may move; ModelState is not checked)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def evaluate_split(classifier, manifest: Manifest, split: str, groups: GroupSplit) -> GroupReport:
    """Group report over one split: top-1 accuracy, or per-label AP when multi-label."""
    idx = manifest.split_indices(split)
    if idx.size == 0:
        raise ValueError(f"{split} split is empty")
    scores = decision_scores(classifier, manifest.features[idx])
    if manifest.task_kind == "single":
        return group_report(np.argmax(scores, axis=1), manifest.labels[idx], groups)
    aps = average_precision_per_label(scores, manifest.labels[idx])
    return group_report_from_values(100.0 * aps, groups)


def train_stage1(manifest: Manifest, config: TrainConfig,
                 rng: np.random.Generator | None = None,
                 groups: GroupSplit | None = None):
    """First-stage training; returns the model and its per-epoch history."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    dist = manifest.train_distribution()
    if groups is None:
        groups = group_split(dist, default_boundaries(manifest.num_classes))
    model = init_model(
        manifest.num_classes, manifest.feature_dim, hidden_dim=config.hidden_dim,
        classifier_kind=config.classifier_kind, temperature=config.temperature, rng=rng,
    )
    return _fit(
        model, manifest, dist, _trainable_keys(model), config.sampler, config.loss,
        config.mixup, config.optimizer, config.epochs, config.batch_size, rng,
        groups=groups, eval_every=config.eval_every, record_history=True,
    )


def stage2_crt(model: ModelState, manifest: Manifest, config: TrainConfig,
               rng: np.random.Generator | None = None) -> ModelState:
    """Classifier re-training: frozen encoder, re-initialized head, class-balanced CE."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    out = model.copy()
    out.cls_w = 0.01 * rng.standard_normal(out.cls_w.shape)
    if out.cls_b is not None:
        out.cls_b = 0.01 * rng.standard_normal(out.cls_b.shape)
    return _retrain_head(out, manifest, config, rng, _head_keys(out))


def stage2_lws(model: ModelState, manifest: Manifest, config: TrainConfig,
               rng: np.random.Generator | None = None) -> ModelState:
    """Learnable per-class weight scaling; only the scales train."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    out = model.copy()
    out.logit_scale = np.ones(model.num_classes)
    return _retrain_head(out, manifest, config, rng, ("logit_scale",))


def stage2_disalign(model: ModelState, manifest: Manifest, config: TrainConfig,
                    rng: np.random.Generator | None = None) -> ModelState:
    """Affine logit calibration z' = scale * z + offset under 1/n_c-reweighted CE."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    out = model.copy()
    out.logit_scale = np.ones(model.num_classes)
    out.logit_offset = np.zeros(model.num_classes)
    dist = manifest.train_distribution()
    inv = 1.0 / dist.counts.astype(np.float64)
    class_weights = inv * (dist.num_classes / inv.sum())
    epochs = config.stage2.epochs if config.stage2.epochs is not None else config.epochs
    fitted, _ = _fit(
        out, manifest, dist, ("logit_scale", "logit_offset"),
        SamplerSpec("original", epoch_length=config.sampler.epoch_length),
        LossSpec("ce"), MixupSpec(enabled=False), config.optimizer,
        epochs, config.batch_size, rng, class_weights=class_weights,
    )
    return fitted


def stage2_cosine_retrain(model: ModelState, manifest: Manifest, config: TrainConfig,
                          rng: np.random.Generator | None = None) -> ModelState:
    """Swap in a re-initialized cosine head and retrain it with class-balanced CE."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    out = model.copy()
    out = replace(out, cls_w=0.01 * rng.standard_normal(out.cls_w.shape), cls_b=None,
                  classifier_kind="cosine", temperature=float(config.stage2.temperature),
                  logit_scale=None, logit_offset=None)
    return _retrain_head(out, manifest, config, rng, _head_keys(out))


def stage2_ncm(model: ModelState, manifest: Manifest) -> NcmClassifier:
    """Nearest-class-mean classifier from train-split means through the frozen encoder."""
    train_idx = manifest.split_indices("train")
    if train_idx.size == 0:
        raise ValueError("train split is empty")
    if manifest.task_kind != "single":
        raise ValueError("nearest class mean requires single-label data")
    feats = manifest.features[train_idx]
    if model.encoder_w is not None:
        feats = np.maximum(feats @ model.encoder_w.T + model.encoder_b, 0.0)
    labels = manifest.labels[train_idx]
    means = np.empty((manifest.num_classes, feats.shape[1]))
    for c in range(manifest.num_classes):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"class {c} has no training samples")
        means[c] = feats[mask].mean(axis=0)
    enc_w = None if model.encoder_w is None else model.encoder_w.copy()
    enc_b = None if model.encoder_b is None else model.encoder_b.copy()
    return NcmClassifier(means=means, encoder_w=enc_w, encoder_b=enc_b)


def apply_stage2(model: ModelState, manifest: Manifest, config: TrainConfig,
                 rng: np.random.Generator | None = None):
    """Dispatch the configured stage-2 scheme; returns the final classifier."""
    from .model import tau_normalize

    kind = config.stage2.kind
    if kind == "none":
        return model
    if kind == "tau_norm":
        return tau_normalize(model, config.stage2.tau)
    if kind == "ncm":
        return stage2_ncm(model, manifest)
    if kind == "crt":
        return stage2_crt(model, manifest, config, rng)
    if kind == "lws":
        return stage2_lws(model, manifest, config, rng)
    if kind == "disalign":
        return stage2_disalign(model, manifest, config, rng)
    if kind == "cosine_retrain":
        return stage2_cosine_retrain(model, manifest, config, rng)
    raise AssertionError(f"unhandled stage-2 kind {kind!r}")


def _head_keys(model: ModelState) -> tuple[str, ...]:
    keys = ["cls_w"]
    if model.cls_b is not None:
        keys.append("cls_b")
    if model.classifier_kind == "cosine":
        keys.append("temperature")
    return tuple(keys)


def _trainable_keys(model: ModelState) -> tuple[str, ...]:
    keys = list(_head_keys(model))
    if model.encoder_w is not None:
        keys += ["encoder_w", "encoder_b"]
    if model.logit_scale is not None:
        keys.append("logit_scale")
    if model.logit_offset is not None:
        keys.append("logit_offset")
    return tuple(keys)


def _extract_params(model: ModelState, keys) -> dict:
    values = {
        "cls_w": model.cls_w, "cls_b": model.cls_b,
        "encoder_w": model.encoder_w, "encoder_b": model.encoder_b,
        "logit_scale": model.logit_scale, "logit_offset": model.logit_offset,
        "temperature": None if model.temperature is None else np.asarray(model.temperature),
    }
    return {k: np.asarray(values[k], dtype=np.float64).copy() for k in keys}


def _with_params(model: ModelState, params: dict) -> ModelState:
    updates = {}
    for key, value in params.items():
        if key == "temperature":
            updates[key] = float(value)
        else:
            updates[key] = value
    return replace(model, **updates)


def _retrain_head(model: ModelState, manifest: Manifest, config: TrainConfig,
                  rng: np.random.Generator, trainable) -> ModelState:
    dist = manifest.train_distribution()
    epochs = config.stage2.epochs if config.stage2.epochs is not None else config.epochs
    fitted, _ = _fit(
        model, manifest, dist, trainable,
        SamplerSpec("class_balanced", epoch_length=config.sampler.epoch_length),
        LossSpec("ce"), MixupSpec(enabled=False), config.optimizer,
        epochs, config.batch_size, rng,
    )
    return fitted


def _fit(model: ModelState, manifest: Manifest, dist: ClassDistribution, trainable,
         sampler_spec: SamplerSpec, loss_spec: LossSpec, mixup: MixupSpec,
         opt_spec: OptimizerSpec, epochs: int, batch_size: int, rng: np.random.Generator,
         *, groups: GroupSplit | None = None, eval_every: int = 1,
         class_weights: np.ndarray | None = None, record_history: bool = False):
    if record_history and groups is None:
        raise ValueError("history recording needs a group split")
    if loss_spec.multi_label != (manifest.task_kind == "multi"):
        raise ValueError(f"loss kind {loss_spec.kind!r} does not match task {manifest.task_kind!r}")
    if class_weights is not None and mixup.enabled:
        raise ValueError("class-reweighted training does not combine with mixup")
    sampler = BatchSampler(sampler_spec, manifest)
    optimizer = Optimizer(opt_spec)
    params = _extract_params(model, trainable)
    steps = max(1, math.ceil(sampler.epoch_length / batch_size))
    history = RunHistory()

    for epoch in range(epochs):
        epoch_loss = 0.0
        for step in range(steps):
            features, targets = sampler.next_batch(batch_size, rng)
            mixed = None
            if mixup.enabled:
                perm = rng.permutation(len(features))
                mixed = mixup_batch((features, targets), (features[perm], targets[perm]),
                                    mixup, rng)
                features = mixed.features
            noise = draw_noise(loss_spec, rng, len(features), manifest.num_classes)

            def grad_fn(p):
                candidate = _with_params(model, p)
                logits, cache = forward_with_cache(candidate, features)
                if mixed is not None:
                    va, ga = batch_loss_and_grad(loss_spec, logits, mixed.labels_a, dist,
                                                 noise=noise)
                    vb, gb = batch_loss_and_grad(loss_spec, logits, mixed.labels_b, dist,
                                                 noise=noise)
                    values = mixed.lam * va + (1.0 - mixed.lam) * vb
                    grads = mixed.lam * ga + (1.0 - mixed.lam) * gb
                else:
                    values, grads = batch_loss_and_grad(loss_spec, logits, targets, dist,
                                                        noise=noise)
                if class_weights is not None:
                    values = values * class_weights[targets]
                    grads = grads * class_weights[targets][:, None]
                param_grads = backward(candidate, cache, grads / len(features))
                return float(values.mean()), {k: param_grads[k] for k in p}

            try:
                value, params = sam_step(optimizer, params, grad_fn)
            except ValueError as exc:
                raise TrainingDivergedError(epoch, step, str(exc)) from exc
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch, step, f"loss value {value}")
            epoch_loss += value

        model = _with_params(model, params)
        evaluate_now = (epoch + 1) % eval_every == 0 or epoch == epochs - 1
        if record_history and evaluate_now:
            val_report = evaluate_split(model, manifest, "val", groups)
            test_report = evaluate_split(model, manifest, "test", groups)
            history.records.append(EpochRecord(
                epoch=epoch, train_loss=epoch_loss / steps,
                val=val_report, test=test_report, weight_norms=weight_norms(model),
            ))
            if sampler_spec.kind == "difficulty":
                acc = np.nan_to_num(val_report.per_class_acc / 100.0, nan=1.0)
                sampler.update_difficulty(acc)
    return model, history
