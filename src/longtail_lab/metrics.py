"""Shot-based group evaluation, multi-label mAP, and checkpoint-gap analysis.

Group values are MACRO means: the unweighted average of the member classes'
per-class accuracies, and the overall average is the unweighted mean of the
three group values. This is the only reading consistent with published
head/medium/tail tables (e.g. (79.00 + 60.67 + 38.33)/3 = 59.33).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import GroupSplit

# (label, sample) elements per AP block: 256 KB per temporary, small enough to
# stay in cache, which makes the sorts and gathers faster than in larger blocks
AP_CHUNK_ELEMENTS = 1 << 15


@dataclass
class GroupReport:
    """Per-class accuracies (percent) plus macro head/medium/tail/average values.

    Groups whose every class lacks evaluation samples raise; a group that
    contains no classes at all (possible when K = 2) reports NaN and is
    excluded from the average.
    For multi-label data ``per_class_acc`` is per-label AP (percent) and ``map``
    the mean of that AP vector (a fraction), else None; ``to_dict`` leaves it out.
    """

    per_class_acc: np.ndarray
    head: float
    medium: float
    tail: float
    average: float
    map: float | None = None

    def to_dict(self) -> dict:
        return {
            "per_class_acc": [float(v) for v in self.per_class_acc],
            "head": self.head,
            "medium": self.medium,
            "tail": self.tail,
            "average": self.average,
        }


def group_report(predictions, truths, split: GroupSplit) -> GroupReport:
    """Macro head/medium/tail top-1 accuracy report from predicted class indices."""
    preds = np.asarray(predictions, dtype=np.int64)
    trues = np.asarray(truths, dtype=np.int64)
    if preds.shape != trues.shape or preds.ndim != 1:
        raise ValueError("predictions and truths must be equal-length 1-d sequences")
    if preds.size == 0:
        raise ValueError("empty evaluation set")
    k = split.num_classes
    if trues.min() < 0 or trues.max() >= k:
        raise ValueError(f"truth classes must lie in [0, {k})")
    # a sum of 0/1 hits is exact, so each value is the float64 quotient a per-class mean gives
    counts = np.bincount(trues, minlength=k)
    hits = np.bincount(trues, weights=preds == trues, minlength=k)
    per_class = np.full(k, np.nan)
    seen = counts > 0
    per_class[seen] = 100.0 * (hits[seen] / counts[seen])
    return group_report_from_values(per_class, split)


def group_report_from_values(per_class_values, split: GroupSplit) -> GroupReport:
    """Build a report from precomputed per-class values (percent; NaN = no samples)."""
    values = np.asarray(per_class_values, dtype=np.float64)
    if values.shape != (split.num_classes,):
        raise ValueError(f"expected {split.num_classes} per-class values")
    missing = np.flatnonzero(np.isnan(values)).tolist()
    if missing:
        warnings.warn(f"classes {missing} have no evaluation samples; excluded from group means")
    group_values = {}
    for name, members in split.groups():
        if not members:
            warnings.warn(f"group '{name}' contains no classes")
            group_values[name] = float("nan")
            continue
        member_vals = values[list(members)]
        valid = member_vals[~np.isnan(member_vals)]
        if valid.size == 0:
            raise ValueError(f"every class in group '{name}' has zero evaluation samples")
        group_values[name] = float(valid.mean())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        average = float(np.nanmean([group_values["head"], group_values["medium"],
                                    group_values["tail"]]))
    return GroupReport(values, group_values["head"], group_values["medium"],
                       group_values["tail"], average)


def average_precision_per_label(scores, truths) -> np.ndarray:
    """AP per label; NaN (with a warning) for labels with no positives.

    Ranking is by descending score, ties broken by ascending sample index
    (NaN scores rank last, and -0.0 ties with 0.0). Labels are scored in blocks
    of rows of a transposed (labels, samples) layout, at most
    ``AP_CHUNK_ELEMENTS`` elements per block, so memory stays bounded for any
    size. Each label's ranking is a contiguous row, so its final sum is the
    same pairwise 1-d sum as when that label is scored alone, and every AP is
    bitwise equal to a per-label loop. Rows are ordered by one default
    argsort, which is several times faster than a stable one where numpy has
    SIMD sorts. A row whose ranked scores are strictly decreasing has only one
    sorted order, which is therefore the stable one; only the other rows (a
    tie, -0.0 against 0.0, or a NaN) are re-sorted stably.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truths)
    if s.ndim != 2 or s.shape != t.shape:
        raise ValueError("scores and truths must be equal-shape (n, K) arrays")
    if not ((t == 0) | (t == 1)).all():
        raise ValueError("truths must be binary")
    n, k = s.shape
    aps = np.full(k, np.nan)
    positives = t.sum(axis=0)
    scored = np.flatnonzero(positives > 0)
    flat_truths = t.ravel()
    ranks = np.arange(1, n + 1)
    block = max(1, AP_CHUNK_ELEMENTS // max(1, n))
    for start in range(0, scored.size, block):
        labels = scored[start:start + block]
        keys = s.T[labels]
        np.negative(keys, out=keys)
        order = np.argsort(keys, axis=1)
        ranked = np.take_along_axis(keys, order, axis=1)
        unsure = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        if unsure.any():
            order[unsure] = np.argsort(keys[unsure], axis=1, kind="stable")
        order *= k  # flat positions of the ranked samples in t
        order += labels[:, None]
        rel = flat_truths.take(order).astype(np.float64)
        precision = np.cumsum(rel, axis=1)
        precision /= ranks
        precision *= rel
        aps[labels] = precision.sum(axis=1) / positives[labels]
    empty = [int(c) for c in np.flatnonzero(np.isnan(aps))]
    if empty:
        warnings.warn(f"labels {empty} have no positives; skipped in mAP")
    return aps


def mean_average_precision(scores, truths) -> float:
    """Mean over labels (with >= 1 positive) of ranking average precision."""
    aps = average_precision_per_label(scores, truths)
    if np.isnan(aps).all():
        raise ValueError("no positive labels anywhere")
    return float(np.nanmean(aps))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val: GroupReport
    test: GroupReport
    weight_norms: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val": self.val.to_dict(),
            "test": self.test.to_dict(),
            "weight_norms": None if self.weight_norms is None
            else [float(v) for v in self.weight_norms],
        }


@dataclass
class RunHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> list[dict]:
        return [r.to_dict() for r in self.records]


@dataclass(frozen=True)
class GapStats:
    """Test-accuracy gaps around the validation-selected epoch."""

    gap_best: float
    gap_final: float
    epoch_best_val: int
    epoch_best_test: int

    def to_dict(self) -> dict:
        return {
            "gap_best": self.gap_best,
            "gap_final": self.gap_final,
            "epoch_best_val": self.epoch_best_val,
            "epoch_best_test": self.epoch_best_test,
        }


def gaps_from_series(val_averages, test_averages, epochs=None) -> GapStats:
    """Gap statistics from per-epoch val/test average accuracies.

    gap_best = best test - test at the (earliest) best-val epoch; gap_final =
    test at that epoch - final-epoch test (negative only if the final epoch
    beats the selected one).
    """
    val = np.asarray(val_averages, dtype=np.float64)
    test = np.asarray(test_averages, dtype=np.float64)
    if val.size == 0 or val.shape != test.shape or val.ndim != 1:
        raise ValueError("need equal-length non-empty val/test series")
    epochs = np.arange(val.size) if epochs is None else np.asarray(epochs, dtype=np.int64)
    best_val = int(np.argmax(val))
    best_test = int(np.argmax(test))
    return GapStats(
        gap_best=float(test.max() - test[best_val]),
        gap_final=float(test[best_val] - test[-1]),
        epoch_best_val=int(epochs[best_val]),
        epoch_best_test=int(epochs[best_test]),
    )


def checkpoint_gaps(history) -> GapStats:
    """Gap statistics over a run history (selection by the 'average' field).

    ``history`` is a ``RunHistory`` or its dict form, a run report's ``history``.
    """
    records = history.to_dict() if isinstance(history, RunHistory) else history
    if not isinstance(records, list):
        raise ValueError("run history must be a list of epoch records")
    if not records:
        raise ValueError("empty run history")
    for i, r in enumerate(records):
        if not (isinstance(r, dict) and "epoch" in r
                and all(isinstance(r.get(s), dict) and "average" in r[s] for s in ("val", "test"))):
            raise ValueError(f"history record {i} has no epoch, val.average or test.average")
    return gaps_from_series(
        [r["val"]["average"] for r in records],
        [r["test"]["average"] for r in records],
        [r["epoch"] for r in records],
    )
