"""Batch construction over the train split: original, class-balanced, difficulty, MixUp.

A ``BatchSampler`` gathers each batch from the manifest's features through the
train index (or from the encoded rows stage 2 hands it), so it copies no train
rows. It keeps no draw state: ``draw`` returns the train indices of any number
of batches from one generator call, and ``next_batch`` gathers one of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio

SAMPLER_KINDS = ("original", "class_balanced", "difficulty")


@dataclass(frozen=True)
class SamplerSpec:
    """How train batches are drawn.

    original: every record equally likely.
    class_balanced: P(y=c) uniform, then a uniform record of that class.
    difficulty: P(y=c) proportional to 1/max(a_c, difficulty_floor) where a_c is
    the latest per-class validation accuracy (all ones before the first update).
    """

    kind: str = "original"
    difficulty_floor: float = field(
        default=0.01, metadata=jsonio.takes(lambda spec: spec.kind == "difficulty"))
    epoch_length: int | None = field(default=None, metadata=jsonio.OMIT_UNSET)

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.difficulty_floor <= 0:
            raise ValueError("difficulty_floor must be positive")
        if self.epoch_length is not None and self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        jsonio.check_finite(self)


@dataclass(frozen=True)
class MixupSpec:
    """MixUp batch augmentation: one lambda ~ Beta(alpha, alpha) per batch."""

    alpha: float = 0.2
    enabled: bool = False

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("mixup alpha must be positive")
        jsonio.check_finite(self)


class BatchSampler:
    """With-replacement batch source over a manifest's train split.

    All randomness comes from the generator passed to ``draw``. A batch is
    gathered from the manifest's features through the train index, so no copy
    of the train rows is held; stage 2 passes its frozen-encoder features
    instead, one row for each train row in manifest order. The class CDF of
    the class-conditional kinds is computed on construction and again on each
    ``update_difficulty``, and a draw reads the CDF current at the draw.

    ``draw(count, size, rng)`` returns the train indices of ``count`` batches
    from one generator call. numpy's ``Generator`` gives the same numbers, and
    leaves the same state, for one call of shape ``(count, size)`` as for
    ``count`` calls of ``size``, so the batches and the generator's state do
    not depend on how many are drawn at once. That is a property of numpy's
    implementation, not of its documented API; ``TestMultiBatchDraw`` in
    ``tests/test_samplers.py`` pins it for every kind.
    """

    def __init__(self, spec: SamplerSpec, manifest, features: np.ndarray | None = None):
        self.spec = spec
        train_idx = manifest.split_indices("train")
        if train_idx.size == 0:
            raise ValueError("train split is empty")
        # a batch's feature rows: manifest rows through the train index, or the caller's rows
        self._features, self._rows = ((manifest.features, train_idx) if features is None
                                      else (features, None))
        self.labels = manifest.labels[train_idx]
        self._num_classes = manifest.num_classes
        self.epoch_length = spec.epoch_length or int(train_idx.size)

        if spec.kind in ("class_balanced", "difficulty"):
            if manifest.task_kind != "single":
                raise ValueError(f"{spec.kind} sampling requires single-label data")
            # flat pool grouped by class so a (class, offset) pair indexes a record
            order = np.argsort(self.labels, kind="stable")
            self._pool = order
            counts = np.bincount(self.labels, minlength=self._num_classes)
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                raise ValueError(f"class {int(empty[0])} has no training samples")
            self._pool_sizes = counts
            self._pool_offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._accuracy = np.ones(self._num_classes)
        self._cdf = None if spec.kind == "original" else np.cumsum(self.class_probabilities())

    def update_difficulty(self, per_class_val_accuracy) -> None:
        """Replace the stored per-class accuracies used by the difficulty kind."""
        acc = np.asarray(per_class_val_accuracy, dtype=np.float64)
        if acc.shape != (self._num_classes,):
            raise ValueError(f"expected {self._num_classes} per-class accuracies")
        if np.isnan(acc).any() or acc.min() < 0 or acc.max() > 1:
            raise ValueError("accuracies must lie in [0, 1]")
        self._accuracy = acc.copy()
        if self.spec.kind != "original":
            self._cdf = np.cumsum(self.class_probabilities())

    def class_probabilities(self) -> np.ndarray:
        """Class draw distribution for the class-conditional kinds."""
        if self.spec.kind == "class_balanced":
            return np.full(self._num_classes, 1.0 / self._num_classes)
        if self.spec.kind == "difficulty":
            inv = 1.0 / np.maximum(self._accuracy, self.spec.difficulty_floor)
            return inv / inv.sum()
        raise ValueError("original sampling has no class distribution")

    def draw(self, count: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Train indices of ``count`` batches, shape (count, batch_size), in one generator call."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.spec.kind == "original":
            return rng.integers(0, len(self.labels), size=(count, batch_size))
        uniforms = rng.random((count, 2, batch_size))  # per batch: its classes, then offsets
        classes = np.searchsorted(self._cdf, uniforms[:, 0], side="right")
        np.minimum(classes, self._num_classes - 1, out=classes)
        offsets = (uniforms[:, 1] * self._pool_sizes[classes]).astype(np.int64)
        return self._pool[self._pool_offsets[classes] + offsets]

    def next_batch(self, indices: np.ndarray):
        """The (features, labels) of one batch: a row of ``draw``'s train indices."""
        rows = indices if self._rows is None else self._rows.take(indices)
        # take: the rows of fancy indexing, gathered in about a third of the time
        return self._features.take(rows, axis=0), self.labels.take(indices, axis=0)


@dataclass(frozen=True)
class MixedBatch:
    features: np.ndarray
    labels_a: np.ndarray
    labels_b: np.ndarray
    lam: float


def mixup_batch(batch_a, batch_b, spec: MixupSpec, rng: np.random.Generator,
                lam: float | None = None) -> MixedBatch:
    """Convexly combine two equally-shaped batches with a single shared lambda.

    The loss on the result is lam * L(logits, labels_a) + (1 - lam) * L(logits,
    labels_b). Pass ``lam`` to bypass the Beta draw (tests / identity checks).
    """
    features_a, labels_a = batch_a
    features_b, labels_b = batch_b
    features_a = np.asarray(features_a, dtype=np.float64)
    features_b = np.asarray(features_b, dtype=np.float64)
    if features_a.shape != features_b.shape:
        raise ValueError("mixup batches must have identical shapes")
    if len(labels_a) != len(features_a) or len(labels_b) != len(features_b):
        raise ValueError("labels must match batch size")
    if lam is None:
        lam = float(rng.beta(spec.alpha, spec.alpha))
    mixed = lam * features_a + (1.0 - lam) * features_b
    return MixedBatch(mixed, np.asarray(labels_a), np.asarray(labels_b), lam)
