"""Stage-1 training and the decoupled stage-2 classifier schemes.

Stage 2 keeps the stage-1 encoder frozen. The head-fit schemes (cRT, LWS,
DisAlign, cosine retrain) are each described in ``_HEAD_FITS`` by four
fields: the head init, the trainable keys, the sampler (``class_balanced``,
or ``original`` for DisAlign) and whether the CE plan's per-sample ``weight``
is inverse frequency (DisAlign). ``_fit_head`` serves all four: it encodes the
train rows once, trains a head-only model on them and puts the encoder back.
``apply_stage2`` calls ``_fit_head(kind, ...)`` for a kind in ``_HEAD_FITS``,
and ``tau_normalize`` or ``stage2_ncm`` for the other two schemes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Annotated

import numpy as np

from . import jsonio, losses
from .distribution import GroupSplit, group_split
from .losses import LossSpec, draw_noise, loss_plan, posthoc_shift
from .manifest import Manifest
from .metrics import EpochRecord, GroupReport, RunHistory, average_precision_per_label, group_report, group_report_from_values
from .model import (ModelState, NcmClassifier, backward, check_classifier_kind, check_hidden_dim,
                    check_temperature, decision_scores, encode_rows, forward_with_cache,
                    init_model, row_blocks, tau_normalize, weight_norms)
from .optim import Optimizer, OptimizerSpec, flatten, sam_step, unflatten
from .samplers import BatchSampler, MixupSpec, SamplerSpec, mixup_batch

STAGE2_KINDS = ("none", "crt", "tau_norm", "lws", "ncm", "disalign", "cosine_retrain")
MAX_BATCH_SIZE = 1 << 16  # rows per training batch; a larger batch is a config error
# train indices a fit draws at once (unless one batch is larger): bounds a draw and its
# uniforms, whatever the epoch length
MAX_DRAWN_ROWS = 1 << 13
# a cosine temperature; a config value that is not a number is refused in the words of
# _check_temperature
Temperature = Annotated[float, "a finite number > 0"]


class TrainingDivergedError(RuntimeError):
    """Raised when the loss (or anything downstream of it) goes non-finite."""

    def __init__(self, epoch: int, step: int, detail: str):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {detail}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class Stage2Spec:
    kind: str = "none"
    tau: float = field(default=1.0, metadata=jsonio.takes(lambda spec: spec.kind == "tau_norm"))
    epochs: int | None = field(  # None: the train section's epochs
        default=None,
        metadata=jsonio.takes(lambda spec: spec.kind in _HEAD_FITS) | jsonio.OMIT_UNSET)
    temperature: Temperature = field(
        default=16.0, metadata=jsonio.takes(lambda spec: spec.kind == "cosine_retrain"))

    def __post_init__(self):
        if self.kind not in STAGE2_KINDS:
            raise ValueError(f"unknown stage-2 kind {self.kind!r}")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("stage-2 epochs must be >= 0")
        _check_temperature(self.temperature, "stage-2 temperature")
        jsonio.check_finite(self)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    seed: int = field(default=0, metadata={"config": False})  # the experiment's seed
    loss: LossSpec = field(default_factory=lambda: LossSpec("ce"))
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    mixup: MixupSpec = field(default_factory=MixupSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    stage2: Stage2Spec = field(default_factory=Stage2Spec)
    eval_every: int = 1
    hidden_dim: int | None = None
    classifier_kind: str = "linear"
    temperature: Temperature = 16.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must lie in [1, {MAX_BATCH_SIZE}]")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        check_classifier_kind(self.classifier_kind)
        check_hidden_dim(self.hidden_dim)
        _check_temperature(self.temperature, "temperature")


def _check_temperature(value, name: str) -> None:
    """A configured cosine temperature; ``ModelState`` checks a model's, trained or loaded."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def stage_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (dataset, train, stage-2) generators for a run seeded with ``seed``.

    The one seed derivation, also of the stages called without ``rng``: a run
    in one go, stage by stage, or resumed from a stage-1 checkpoint gives the
    same models.
    """
    return tuple(np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(3))


def evaluate_split(classifier, manifest: Manifest, split: str, groups: GroupSplit,
                   posthoc_tau: float | None = None) -> GroupReport:
    """Group report over one split: top-1 accuracy, or per-label AP when multi-label.

    The one evaluation entry point; each row is scored once. A single-label
    split is gathered, scored and reduced to its argmax one block of rows
    (``model.row_blocks``) at a time, so no (rows, K) score matrix or (rows, d)
    gather of the whole split is held. A multi-label split is scored whole,
    because AP ranks every row, and its report's ``map`` comes from the AP
    vector of ``per_class_acc``. With ``posthoc_tau``, the scores are first
    shifted by ``-posthoc_tau * log`` of the train class priors; the shift
    (``losses.posthoc_shift``) is computed, or refused, before any row is scored.
    A multi-label split refuses ``posthoc_tau``: a per-label constant shift
    leaves every AP as it is.
    """
    if posthoc_tau is not None and manifest.task_kind != "single":
        raise ValueError("post-hoc adjustment applies to single-label tasks")
    idx = _scored_rows(manifest, split)
    shift = None if posthoc_tau is None else posthoc_shift(manifest.train_distribution(),
                                                            posthoc_tau)

    def scores_of(rows):
        scores = decision_scores(classifier, manifest.features[rows])
        if shift is not None:
            scores -= shift
        return scores

    if manifest.task_kind == "single":
        predictions = np.empty(idx.size, dtype=np.int64)
        for block in row_blocks(idx.size):
            predictions[block] = np.argmax(scores_of(idx[block]), axis=1)
        return group_report(predictions, manifest.labels[idx], groups)
    aps = average_precision_per_label(scores_of(idx), manifest.labels[idx])
    # the group report raises first if no label has positives, so the mean is over some AP
    return replace(group_report_from_values(100.0 * aps, groups), map=float(np.nanmean(aps)))


def _scored_rows(manifest: Manifest, split: str) -> np.ndarray:
    idx = manifest.split_indices(split)
    if idx.size == 0:
        raise ValueError(f"{split} split is empty")
    return idx


def check_scorable(manifest: Manifest, groups: GroupSplit) -> None:
    """Refuse a val or test split that ``evaluate_split`` could not score, before any training.

    A split is refused if it is empty, or if a group has no class with an
    evaluation sample in it (single-label) or with a positive (multi-label);
    the ``ValueError`` is the one ``evaluate_split`` would raise.
    """
    for split in ("val", "test"):
        labels = manifest.labels[_scored_rows(manifest, split)]
        present = (np.bincount(labels, minlength=manifest.num_classes)
                   if manifest.task_kind == "single" else labels.sum(axis=0)) > 0
        with warnings.catch_warnings():  # the scoring itself warns of the classes it skips
            warnings.simplefilter("ignore")
            group_report_from_values(np.where(present, 0.0, np.nan), groups)


def train_stage1(manifest: Manifest, config: TrainConfig,
                 rng: np.random.Generator | None = None,
                 groups: GroupSplit | None = None, *, keep_history: bool = True):
    """First-stage training; returns the model and its per-epoch history.

    With ``keep_history`` (the default), val and test are scored on every
    ``eval_every``-th epoch and at the last, each such epoch a record of the
    history. Without it, the history is None and an epoch is scored only on
    val, only for the ``difficulty`` sampler; the model is the same.
    """
    rng = rng if rng is not None else stage_rngs(config.seed)[1]
    if groups is None:
        groups = group_split(manifest.train_distribution())
    model = init_model(
        manifest.num_classes, manifest.feature_dim, hidden_dim=config.hidden_dim,
        classifier_kind=config.classifier_kind, temperature=config.temperature, rng=rng,
    )
    trainable = _head_keys(model) + (() if model.encoder_w is None else ("encoder_w", "encoder_b"))
    plan = loss_plan(config.loss, manifest.train_distribution())
    history = RunHistory() if keep_history else None
    model = _fit(model, manifest, config, rng, trainable, config.sampler, plan, config.mixup,
                 config.epochs, groups=groups, history=history)
    return model, history


def stage2_ncm(model: ModelState, manifest: Manifest) -> NcmClassifier:
    """Nearest-class-mean classifier from train-split means through the frozen encoder.

    The train rows are encoded a row block at a time (``model.encode_rows``),
    so the raw rows are never held whole beside their encoded copy.
    """
    train_idx = manifest.split_indices("train")
    if train_idx.size == 0:
        raise ValueError("train split is empty")
    if manifest.task_kind != "single":
        raise ValueError("nearest class mean requires single-label data")
    feats = encode_rows(model, manifest.features, train_idx)
    labels = manifest.labels[train_idx]
    means = np.empty((manifest.num_classes, feats.shape[1]))
    for c in range(manifest.num_classes):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"class {c} has no training samples")
        means[c] = feats[mask].mean(axis=0)
    frozen = model.copy()
    return NcmClassifier(means=means, encoder_w=frozen.encoder_w, encoder_b=frozen.encoder_b)


def apply_stage2(model: ModelState, manifest: Manifest, config: TrainConfig,
                 rng: np.random.Generator | None = None):
    """Run the configured stage-2 scheme (see the module docstring); returns the final
    classifier."""
    kind = config.stage2.kind
    if kind in _HEAD_FITS:
        return _fit_head(kind, model, manifest, config, rng)
    if kind == "tau_norm":
        return tau_normalize(model, config.stage2.tau)
    if kind == "ncm":
        return stage2_ncm(model, manifest)
    return model  # "none"


def _head_keys(model: ModelState) -> tuple[str, ...]:
    keys = ["cls_w"]
    if model.cls_b is not None:
        keys.append("cls_b")
    if model.classifier_kind == "cosine":
        keys.append("temperature")
    return tuple(keys)


def _redraw_head(head: ModelState, config: TrainConfig, rng: np.random.Generator) -> ModelState:
    cls_w = 0.01 * rng.standard_normal(head.cls_w.shape)
    cls_b = None if head.cls_b is None else 0.01 * rng.standard_normal(head.cls_b.shape)
    return replace(head, cls_w=cls_w, cls_b=cls_b)


def _scaled_head(head: ModelState, config: TrainConfig, rng: np.random.Generator) -> ModelState:
    return replace(head, logit_scale=np.ones(head.num_classes))


def _aligned_head(head: ModelState, config: TrainConfig, rng: np.random.Generator) -> ModelState:
    return replace(head, logit_scale=np.ones(head.num_classes),
                   logit_offset=np.zeros(head.num_classes))


def _cosine_head(head: ModelState, config: TrainConfig, rng: np.random.Generator) -> ModelState:
    return replace(head, cls_w=0.01 * rng.standard_normal(head.cls_w.shape), cls_b=None,
                   classifier_kind="cosine", temperature=float(config.stage2.temperature),
                   logit_scale=None, logit_offset=None)


# kind: (head init, trainable keys of the head, sampler kind, inverse-frequency loss weights)
_HEAD_FITS = {
    "crt": (_redraw_head, _head_keys, "class_balanced", False),
    "lws": (_scaled_head, lambda head: ("logit_scale",), "class_balanced", False),
    "disalign": (_aligned_head, lambda head: ("logit_scale", "logit_offset"), "original", True),
    "cosine_retrain": (_cosine_head, _head_keys, "class_balanced", False),
}


def _fit_head(kind: str, model: ModelState, manifest: Manifest, config: TrainConfig,
              rng: np.random.Generator | None) -> ModelState:
    """Re-fit a head-only model on the train rows, encoded once by the frozen encoder."""
    init, trainable, sampler_kind, reweight = _HEAD_FITS[kind]
    rng = rng if rng is not None else stage_rngs(config.seed)[2]
    frozen = model.copy()
    head = init(replace(frozen, encoder_w=None, encoder_b=None), config, rng)
    dist = manifest.train_distribution()
    plan = loss_plan(LossSpec("ce"), dist)
    if reweight:
        empty = np.flatnonzero(dist.counts == 0)
        if empty.size:
            raise ValueError(f"class {int(empty[0])} has no training samples")
        inv = 1.0 / dist.counts.astype(np.float64)
        plan = replace(plan, weight=inv * (inv.size / inv.sum()))
    epochs = config.stage2.epochs if config.stage2.epochs is not None else config.epochs
    fitted = _fit(head, manifest, config, rng, trainable(head),
                  SamplerSpec(sampler_kind, epoch_length=config.sampler.epoch_length),
                  plan, MixupSpec(), epochs, encoder=frozen)
    return replace(fitted, encoder_w=frozen.encoder_w, encoder_b=frozen.encoder_b)


def _owned(model: ModelState, trainable) -> ModelState:
    """``model`` with its own copy of each trainable array, and a float temperature."""
    return replace(model, **{k: float(getattr(model, k)) if k == "temperature"
                             else getattr(model, k).copy() for k in trainable})


def _fit(model: ModelState, manifest: Manifest, config: TrainConfig, rng: np.random.Generator,
         trainable, sampler_spec: SamplerSpec, plan: losses.LossPlan, mixup: MixupSpec,
         epochs: int, *, encoder: ModelState | None = None, groups: GroupSplit | None = None,
         history: RunHistory | None = None) -> ModelState:
    """Train the ``trainable`` parameters; the optimizer and batch size come from ``config``.

    Every batch's loss comes from ``plan`` (``losses.loss_plan``): its per-class
    constants, per-sample weights included, are computed once for the fit.

    The trainable parameters live in one flat float64 buffer for the whole
    fit. One ``ModelState`` is bound to views of it, once, so each optimizer
    step moves that model in place; SAM's shifted point is a second buffer,
    bound once to a model of its own and rewritten in place for each
    gradient pass. A model that owns its arrays, with a float temperature, is
    built only for evaluation and for the result; with ``epochs == 0`` the
    result is ``model`` itself.

    Besides the plan and the buffers, a fit sets up once: the sampler, with the
    train targets' check and class CDF (recomputed on each difficulty update), and
    the optimizer's moments and gradient buffer, whose views ``backward`` fills with
    the trainable keys' gradients only. A step then gathers a batch, runs forward,
    the loss (targets unchecked) and backward, and updates the buffer; its loss is
    the mean of the per-sample values. The batches' indices come from
    ``BatchSampler.draw``, one batch a draw; when the sampler is the only consumer of
    ``rng`` (no MixUp, and a loss kind that draws no noise), a draw takes up to
    ``MAX_DRAWN_ROWS`` indices (one batch, if larger): the same numbers, so the same
    model. No draw crosses an epoch's end, so each difficulty update reaches the next.
    A trained cosine temperature that leaves (0, inf), at a step or at SAM's shifted
    point, stops the fit with ``TrainingDivergedError``.

    With ``encoder``, ``model`` is a head that reads the encoder's features
    of the train rows. They are computed once, a row block at a time
    (``model.encode_rows``), and handed to the sampler, which gathers the
    batches from them instead of from the manifest's rows. Every
    ``eval_every``-th epoch and the last are evaluated epochs, scored by
    ``groups``. Such an epoch scores
    val when ``history`` is given or the sampler is ``difficulty``, whose class
    CDF the per-class val accuracy updates, and scores test and appends an
    ``EpochRecord`` to ``history`` when it is given; else it scores nothing.
    Scoring draws nothing from ``rng``, so the trained model is the same either way.
    """
    if plan.spec.multi_label != (manifest.task_kind == "multi"):
        raise ValueError(f"loss kind {plan.spec.kind!r} does not match task {manifest.task_kind!r}")
    train_rows = (None if encoder is None
                  else encode_rows(encoder, manifest.features, manifest.split_indices("train")))
    sampler = BatchSampler(sampler_spec, manifest, train_rows)
    losses.check_targets(plan, sampler.labels, len(sampler.labels))  # each batch is cut from them
    loss_of = partial(losses.batch_loss_and_grad, plan, targets_checked=True)
    optimizer = Optimizer(config.optimizer)
    layout = {k: getattr(model, k) for k in trainable}
    params = flatten(layout)
    grad_views = optimizer.gradients(layout)
    bound = replace(model, **unflatten(params, layout))
    shifted = params.copy() if config.optimizer.sam else None
    shifted_model = None if shifted is None else replace(model, **unflatten(shifted, layout))
    steps = max(1, math.ceil(sampler.epoch_length / config.batch_size))
    # within an epoch only the sampler, MixUp and a noise-drawing loss kind draw from rng
    draws_ahead = not mixup.enabled and plan.spec.kind not in losses.STOCHASTIC_KINDS
    ahead = max(1, MAX_DRAWN_ROWS // config.batch_size) if draws_ahead else 1
    trains_temperature = "temperature" in layout
    difficulty = sampler_spec.kind == "difficulty"
    scores_val = history is not None or difficulty
    result = model

    for epoch in range(epochs):
        epoch_loss = 0.0
        for step in range(steps):
            if step % ahead == 0:
                drawn = sampler.draw(min(ahead, steps - step), config.batch_size, rng)
            features, targets = sampler.next_batch(drawn[step % ahead])
            mixed = None
            if mixup.enabled:
                perm = rng.permutation(len(features))
                mixed = mixup_batch((features, targets), (features[perm], targets[perm]),
                                    mixup, rng)
                features = mixed.features
            noise = draw_noise(plan.spec, rng, len(features), manifest.num_classes)

            def grad_fn(p):
                candidate = bound if p is params else shifted_model
                if candidate is shifted_model and trains_temperature:
                    check_temperature(shifted_model.temperature)
                logits, cache = forward_with_cache(candidate, features)
                if mixed is not None:
                    va, ga = loss_of(logits, mixed.labels_a, noise=noise)
                    vb, gb = loss_of(logits, mixed.labels_b, noise=noise)
                    values = mixed.lam * va + (1.0 - mixed.lam) * vb
                    grads = mixed.lam * ga + (1.0 - mixed.lam) * gb
                else:
                    values, grads = loss_of(logits, targets, noise=noise)
                grads /= len(features)
                param_grads = backward(candidate, cache, grads, out=grad_views)
                return float(values.sum() / len(values)), param_grads  # the bits of values.mean()

            try:
                value, _ = sam_step(optimizer, params, grad_fn,  # moves params, so bound
                                    shifted=shifted)
            except ValueError as exc:
                raise TrainingDivergedError(epoch, step, str(exc)) from exc
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch, step, f"loss value {value}")
            if trains_temperature and not 0.0 < bound.temperature < math.inf:
                detail = f"temperature {float(bound.temperature)} is not a finite number > 0"
                raise TrainingDivergedError(epoch, step, detail)
            epoch_loss += value

        last = epoch == epochs - 1
        evaluate_now = scores_val and ((epoch + 1) % config.eval_every == 0 or last)
        if evaluate_now or last:
            result = _owned(bound, trainable)
        if evaluate_now:
            val_report = evaluate_split(result, manifest, "val", groups)
            if history is not None:
                test_report = evaluate_split(result, manifest, "test", groups)
                history.records.append(EpochRecord(
                    epoch=epoch, train_loss=epoch_loss / steps,
                    val=val_report, test=test_report, weight_norms=weight_norms(result),
                ))
            if difficulty:
                acc = np.nan_to_num(val_report.per_class_acc / 100.0, nan=1.0)
                sampler.update_difficulty(acc)
    return result
