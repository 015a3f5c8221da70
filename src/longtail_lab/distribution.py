"""Class-count bookkeeping, Pareto long-tail targets, and head/medium/tail splits."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Products like 1000 * 100**(-1/2) should be exactly 100 but IEEE evaluation can
# land a hair below; values this close (relative) to an integer are snapped to it
# before flooring.
_INTEGER_SNAP = 1e-9


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class counts with derived frequencies and the descending-count rank order."""

    counts: np.ndarray
    total: int
    frequencies: np.ndarray
    rank_order: np.ndarray
    zero_classes: tuple[int, ...] = ()

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def imbalance_ratio(self) -> float:
        """Largest count over smallest count; inf when some class is empty."""
        head = int(self.counts[self.rank_order[0]])
        tail = int(self.counts[self.rank_order[-1]])
        return math.inf if tail == 0 else head / tail


def compute_distribution(labels, num_classes: int) -> ClassDistribution:
    """Tally class labels into a ClassDistribution.

    Zero-count classes are permitted and listed in ``zero_classes``. Rank ties
    are broken by ascending class index.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty dataset")
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    counts = np.bincount(labels, minlength=num_classes).astype(np.int64)
    return distribution_from_counts(counts)


def distribution_from_counts(counts) -> ClassDistribution:
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty one-dimensional sequence")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty dataset")
    frequencies = counts / total
    # sort by descending count, ties by ascending class index
    rank_order = np.lexsort((np.arange(counts.size), -counts)).astype(np.int64)
    zero = tuple(int(c) for c in np.flatnonzero(counts == 0))
    return ClassDistribution(counts, total, frequencies, rank_order, zero)


def pareto_targets(n0: int, num_classes: int, ratio: float) -> np.ndarray:
    """Per-class counts N_c = max(1, floor(N0 * r^(-c/(K-1)))) for c = 0..K-1.

    The head class gets n0 samples and the last class n0/r, giving the
    imbalance ratio r between the extremes (exactly, whenever n0/r is integral).
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be a finite number, got {ratio!r}")
    if ratio < 1:
        raise ValueError("imbalance ratio must be >= 1")
    if n0 < 1:
        raise ValueError("head class count must be >= 1")
    targets = np.empty(num_classes, dtype=np.int64)
    for c in range(num_classes):
        raw = n0 * ratio ** (-c / (num_classes - 1))
        nearest = round(raw)
        if abs(raw - nearest) <= _INTEGER_SNAP * max(1.0, abs(raw)):
            raw = float(nearest)
        targets[c] = max(1, math.floor(raw))
    return targets


@dataclass(frozen=True)
class GroupSplit:
    """Head/medium/tail class-index sets cut from the rank order at (h, m)."""

    boundaries: tuple[int, int, int]
    head: tuple[int, ...]
    medium: tuple[int, ...]
    tail: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return self.boundaries[2]

    def groups(self):
        return (("head", self.head), ("medium", self.medium), ("tail", self.tail))


def group_split(dist: ClassDistribution, boundaries: tuple[int, int] | None = None) -> GroupSplit:
    """Split classes into head/medium/tail at cumulative rank indices (h, m).

    ``boundaries`` None means ``default_boundaries(K)``; ValueError unless 0 < h < m <= K.
    """
    if boundaries is None:
        boundaries = default_boundaries(dist.num_classes)
    h, m = int(boundaries[0]), int(boundaries[1])
    k = dist.num_classes
    if not (0 < h < m <= k):
        raise ValueError(f"boundaries must satisfy 0 < h < m <= K, got ({h}, {m}) with K={k}")
    order = [int(c) for c in dist.rank_order]
    return GroupSplit((h, m, k), tuple(order[:h]), tuple(order[h:m]), tuple(order[m:]))


def default_boundaries(num_classes: int) -> tuple[int, int]:
    """Even thirds of the rank order, the fallback when no split is configured."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    h = max(1, round(num_classes / 3))
    m = min(num_classes, max(h + 1, round(2 * num_classes / 3)))
    return h, m
