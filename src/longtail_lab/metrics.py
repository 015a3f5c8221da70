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
    size. Only the positives are ranked. They are found, and counted per label,
    through a bool view of 1-byte 0/1 truths (other dtypes are compared with 0).
    Each row of negated scores is sorted by value, and one binary search over
    all positives of the block counts the keys below each positive's key. A
    positive whose key equals another sample's gets the count of equal keys at
    a lower sample index added, which gives its place in the (score, index)
    order. Its precision, hits / rank, is put at that rank in a row of zeros,
    and each row is summed. That row is the one a cumulative sum over the whole
    ranked row gives, and it is contiguous, so its pairwise sum, and every AP,
    is bitwise equal to a per-label loop.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truths)
    if s.ndim != 2 or s.shape != t.shape:
        raise ValueError("scores and truths must be equal-shape (n, K) arrays")
    if not is_binary(t):
        raise ValueError("truths must be binary")
    n, k = s.shape
    aps = np.full(k, np.nan)
    positive = t.view(np.bool_) if t.dtype.itemsize == 1 else t != 0  # 0/1 bytes read as bools
    scored = np.flatnonzero(positive.any(axis=0))
    block = max(1, AP_CHUNK_ELEMENTS // max(1, n))
    for start in range(0, scored.size, block):
        labels = scored[start:start + block]
        keys = s.T[labels]
        np.negative(keys, out=keys)
        flat = keys.ravel()
        at = np.flatnonzero(positive.T[labels])  # flat positions of the positives, row by row
        own = flat[at]
        keys.sort(axis=1)  # NaN last
        row = at // n
        row_start = row * n
        below = _count_below(flat, row_start, own, n, np.less)
        nan = np.isnan(own)
        if nan.any():  # a NaN key ranks after every number of its row
            below[nan] = _count_below(flat, row_start[nan], np.inf, n, np.less_equal)
        # a tie: the sorted value after the first one equal to the key is equal to it too
        next_key = flat[np.minimum(below + 1, n - 1) + row_start]
        tied = np.flatnonzero((below + 1 < n) & ((next_key == own) | nan))
        if tied.size:
            below[tied] += _equal_keys_before(s, labels, at[tied], row_start[tied] + below[tied],
                                              n, block)
        ranked = np.sort(row_start + below)  # flat positions of the positives' ranks
        # hits at a rank: 1 + the positives of the same row ranked before it
        hits = np.arange(1, ranked.size + 1) - np.searchsorted(row_start, row_start)
        precision = np.zeros_like(keys)
        precision.ravel()[ranked] = hits / (ranked - row_start + 1)
        aps[labels] = precision.sum(axis=1) / np.bincount(row, minlength=labels.size)
    empty = [int(c) for c in np.flatnonzero(np.isnan(aps))]
    if empty:
        warnings.warn(f"labels {empty} have no positives; skipped in mAP")
    return aps


def is_binary(t: np.ndarray) -> bool:
    """Whether every entry of ``t`` is 0 or 1: integers by their min and max, with no temporary."""
    if t.dtype.kind in "biu":
        return not t.size or bool(t.min() >= 0 and t.max() <= 1)
    return bool(((t == 0) | (t == 1)).all())


def _count_below(flat, row_start, keys, n, before):
    """For each key, how many of the n sorted values of its row, which begins at
    ``row_start`` in ``flat``, compare ``before`` it: one branchless binary search."""
    found = row_start.copy()
    size = n
    while size > 1:
        half = size // 2
        found += half * before(flat[found + half], keys)
        size -= half
    found += before(flat[found], keys)
    return found - row_start


def _equal_keys_before(s, labels, at, first, n, block):
    """For each tied positive at flat block position ``at``, whose run of equal keys
    begins at the flat sorted position ``first``, how many samples at a lower index
    have a score equal to its own (NaN equal to NaN): one running count per run,
    ``block`` runs at a time."""
    runs, one, run_of = np.unique(first, return_index=True, return_inverse=True)
    rows, cols = np.divmod(at, n)
    counts = np.empty(at.size, dtype=np.int64)
    for start in range(0, runs.size, block):
        some = one[start:start + block]
        values = s.T[labels[rows[some]]]
        own = values[np.arange(some.size), cols[some]][:, None]
        seen = np.cumsum((values == own) | (np.isnan(values) & np.isnan(own)), axis=1)
        mine = np.flatnonzero((run_of >= start) & (run_of < start + block))
        counts[mine] = seen[run_of[mine] - start, cols[mine]] - 1
    return counts


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
    beats the selected one). An unscored average (null, read as NaN) is
    skipped: the best-val epoch is chosen among the epochs with both averages,
    the best-test and final epochs among those with a test average. A series
    with no epoch of both raises ``ValueError``.
    """
    val = np.asarray(val_averages, dtype=np.float64)
    test = np.asarray(test_averages, dtype=np.float64)
    if val.size == 0 or val.shape != test.shape or val.ndim != 1:
        raise ValueError("need equal-length non-empty val/test series")
    epochs = np.arange(val.size) if epochs is None else np.asarray(epochs, dtype=np.int64)
    tested = np.flatnonzero(~np.isnan(test))
    scored = tested[~np.isnan(val[tested])]
    if scored.size == 0:
        raise ValueError("no epoch has both a val and a test average")
    best_val = int(scored[np.argmax(val[scored])])
    best_test = int(tested[np.argmax(test[tested])])
    return GapStats(
        gap_best=float(test[best_test] - test[best_val]),
        gap_final=float(test[best_val] - test[tested[-1]]),
        epoch_best_val=int(epochs[best_val]),
        epoch_best_test=int(epochs[best_test]),
    )


def checkpoint_gaps(history) -> GapStats:
    """Gap statistics over a run history (selection by the 'average' field).

    ``history`` is a ``RunHistory`` or its dict form, a run report's ``history``:
    each record's ``epoch`` an int, its ``val.average`` and ``test.average`` each
    a number or null (never a bool); any other record raises ``ValueError``.
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
        if isinstance(r["epoch"], bool) or not isinstance(r["epoch"], int):
            raise ValueError(f"history record {i}: epoch must be an integer, got {r['epoch']!r}")
        for s in ("val", "test"):
            average = r[s]["average"]
            if average is not None and (isinstance(average, bool)
                                        or not isinstance(average, (int, float))):
                raise ValueError(f"history record {i}: {s}.average must be a number or null, "
                                 f"got {average!r}")
    return gaps_from_series(
        [r["val"]["average"] for r in records],
        [r["test"]["average"] for r in records],
        [r["epoch"] for r in records],
    )
