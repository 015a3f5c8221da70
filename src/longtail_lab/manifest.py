"""Labeled feature-vector manifests: JSONL IO, Pareto subsetting, synthetic blobs.

On-disk format (JSON Lines, UTF-8, one ``"\n"`` after every line)::

    {"num_classes": 3, "feature_dim": 2, "task": "single"}
    {"id": "a", "features": [0.5, -1.0], "label": 2, "split": "train"}

The header line comes first; each record line has its keys in the order
``id, features, label, split`` (``labels``, a 0/1 list of length
``num_classes``, for ``task: "multi"``). Separators are ``", "`` and
``": "``. Floats are written with 17 significant digits (``%.17g``, so they
round-trip exactly), with ``.0`` appended when that prints neither a point
nor an exponent; labels are plain integers. Ids are written as
``json.dumps(id, ensure_ascii=False)`` writes them, so U+0085, U+2028 and
U+2029 stand raw in them. A line ends only at ``"\n"``, ``"\r\n"`` or
``"\r"``, which JSON cannot hold raw; every other character, these three
among them, is an ordinary character of its line.

``save_manifest`` renders and writes the records a block of rows at a time
(``SAVE_BLOCK_VALUES`` feature values): one ``%.17g`` pass over the block's
features, 0/1 label rows from one byte table, and one record template for
the block. The bytes equal those of encoding each record with
``jsonio.dumps``, and memory does not grow with the number of records.

``load_manifest`` checks the records in file order and names the first line
at fault. It holds no whole form of the file: it hashes the bytes, and on a
miss reads them as text through ``io.TextIOWrapper`` twice, to count the
record lines and then to parse them into preallocated columns. It parses a
given file content once per process: one module slot keeps the last manifest
it parsed, keyed on the sha256 of the file's bytes (not on the path, size or
mtime); a hit decodes nothing. The kept parse's ``features``, ``labels`` and
``splits`` are read-only, and every load of the same bytes returns a new
``Manifest`` that shares them. A failed parse is never kept, and
``save_manifest`` does not fill the slot.

In memory a manifest's ``labels`` column is (n,) int64 for single-label (the
labels index classes) and (n, K) int8 for multi-label, one byte per 0/1 entry.
"""
from __future__ import annotations

import copy
import hashlib
import io
import json
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from . import jsonio, model
from .distribution import ClassDistribution, compute_distribution, distribution_from_counts, pareto_targets
from .model import row_blocks

SPLITS = ("train", "val", "test")
TASK_KINDS = ("single", "multi")


class ManifestFormatError(ValueError):
    """A manifest file whose records violate its own header."""


@dataclass
class Manifest:
    """A split-tagged collection of feature vectors with single- or multi-labels.

    Columnar storage: ``labels`` is (n,) int64 class indices for single-label
    or an (n, K) int8 0/1 matrix for multi-label. Labels are checked on the
    array as given: floats must be whole numbers and are converted through
    int64; a multi-label int8 array is kept as it is, and any other is
    narrowed once after its 0/1 check. Splits partition the records.
    ``ids`` is a tuple of unique strings (a list is stored as a tuple), checked
    by ``_checked_ids``. Features are checked for finiteness a row block
    (``model.row_blocks``) at a time, and integer labels by their minimum and
    maximum, so the checks hold no whole-array temporary.

    ``splits`` is always read-only. A manifest returned by ``load_manifest``
    shares read-only ``features`` and ``labels`` with the kept parse: writing
    into them raises ``ValueError``; ``subset`` returns writable copies. A
    caller's writable ``features`` or ``labels`` already of the stored dtype
    is kept by reference: a later write into it bypasses every check.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    splits: np.ndarray
    num_classes: int
    feature_dim: int
    task_kind: str

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"task_kind must be one of {TASK_KINDS}")
        self.ids = _checked_ids(self.ids)
        n = len(self.ids)
        self.features = np.asarray(self.features, dtype=np.float64)
        splits = self.splits
        if not isinstance(splits, np.ndarray):  # a str array would drop trailing NULs
            splits = np.array(splits, dtype=object)
        if self.features.shape != (n, self.feature_dim):
            raise ValueError(f"features must have shape ({n}, {self.feature_dim})")
        if not all(np.isfinite(self.features[block]).all() for block in row_blocks(n)):
            raise ValueError("features must be finite")
        if splits.shape != (n,):
            raise ValueError(f"splits must have shape ({n},)")
        if not np.isin(splits, SPLITS).all():
            raise ValueError(f"splits must be one of {SPLITS}")
        shared = splits.dtype == "U8" and not splits.flags.writeable  # a caller's is never frozen
        self.splits = splits if shared else splits.astype("U8")
        self.splits.flags.writeable = False
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biu":  # checked, then converted, before any narrowing
            labels = labels.astype(np.float64, copy=False)
            if not (np.trunc(labels) == labels).all():  # NaN too
                raise ValueError("labels must be whole numbers")
            with np.errstate(invalid="ignore"):  # inf or beyond int64: out of range, refused below
                labels = labels.astype(np.int64)
        if self.task_kind == "single":
            self.labels = labels.astype(np.int64, copy=False)
            if self.labels.shape != (n,):
                raise ValueError("single-label manifest needs one class index per record")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ValueError(f"labels must lie in [0, {self.num_classes})")
        else:
            if labels.shape != (n, self.num_classes):
                raise ValueError(f"multi-label manifest needs (n, {self.num_classes}) label matrix")
            if labels.size and (labels.min() < 0 or labels.max() > 1):
                raise ValueError("multi-label entries must be 0 or 1")
            self.labels = labels.astype(np.int8, copy=False)

    def __len__(self) -> int:
        return len(self.ids)

    def split_indices(self, split: str) -> np.ndarray:
        """Record indices of ``split``: read-only, computed once per ``splits`` array.

        The cache is keyed on the ``splits`` object, so replacing ``splits``
        recomputes it; the array set by the constructor is read-only.
        """
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        cached = self.__dict__.get("_split_cache")
        if cached is None or cached[0] is not self.splits:
            cached = self._split_cache = (self.splits, {})
        idx = cached[1].get(split)
        if idx is None:
            idx = cached[1][split] = np.flatnonzero(self.splits == split)
            idx.flags.writeable = False
        return idx

    def subset(self, indices) -> "Manifest":
        idx = np.asarray(indices, dtype=np.int64)
        splits = self.splits[idx]  # a new U8 array: read-only, the constructor keeps it
        splits.flags.writeable = False
        return Manifest(
            ids=tuple(map(self.ids.__getitem__, idx.tolist())),
            features=self.features[idx],
            labels=self.labels[idx],
            splits=splits,
            num_classes=self.num_classes,
            feature_dim=self.feature_dim,
            task_kind=self.task_kind,
        )

    def train_distribution(self) -> ClassDistribution:
        """Class counts over the train split (positives per label when multi-label)."""
        idx = self.split_indices("train")
        if idx.size == 0:
            raise ValueError("empty dataset")
        if self.task_kind == "single":
            return compute_distribution(self.labels[idx], self.num_classes)
        return distribution_from_counts(self.labels[idx].sum(axis=0))


def _checked_ids(ids) -> tuple[str, ...]:
    """``ids`` as a tuple, refused unless it holds unique strings.

    The tuple kept by the synth layout slot, immutable and checked when it was
    built, passes unchecked: every ``synth_gaussian`` call of its layout reuses it.
    """
    ids = tuple(ids)
    synth = _synth_ids  # read once: another thread may replace the slot
    if synth is not None and ids is synth[1]:
        return ids
    if not ids:
        raise ValueError("manifest has no records")
    if not all(map(isinstance, ids, repeat(str))):
        at = next(i for i, rid in enumerate(ids) if not isinstance(rid, str))
        raise ValueError(f"id at position {at} must be a string, not {ids[at]!r}")
    if len(set(ids)) != len(ids):
        dup = next(rid for rid, count in Counter(ids).items() if count > 1)
        raise ValueError(f"duplicate id {dup!r}")
    return ids


def subsample_longtail(manifest: Manifest, targets, seed: int) -> Manifest:
    """Cut the train split down to exactly ``targets[c]`` records per class.

    Records are drawn uniformly without replacement, one class at a time in
    rank order, from a generator seeded with ``seed``; val/test are untouched.
    """
    if manifest.task_kind != "single":
        raise ValueError("Pareto subsetting defined for single-label only")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (manifest.num_classes,):
        raise ValueError(f"targets must have length {manifest.num_classes}")
    if (targets < 0).any():
        raise ValueError("targets must be non-negative")
    train_idx = manifest.split_indices("train")
    if train_idx.size == 0:
        raise ValueError("empty dataset")
    train_labels = manifest.labels[train_idx]
    dist = compute_distribution(train_labels, manifest.num_classes)
    rng = np.random.default_rng(seed)
    kept = []
    for c in dist.rank_order:
        pool = train_idx[train_labels == c]
        want = int(targets[c])
        if pool.size < want:
            raise ValueError(
                f"class {int(c)} has {pool.size} train records, {want} requested "
                f"(short {want - pool.size})"
            )
        chosen = rng.choice(pool.size, size=want, replace=False)
        kept.append(pool[np.sort(chosen)])
    other = np.flatnonzero(manifest.splits != "train")
    selected = np.sort(np.concatenate(kept + [other]))
    return manifest.subset(selected)


def synth_targets(num_classes: int, feature_dim: int, n0: int, ratio: float,
                  class_separation: float, val_per_class: int, test_per_class: int) -> np.ndarray:
    """Train counts of a ``synth_gaussian`` dataset; ValueError if it cannot be built."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if feature_dim < 2:
        raise ValueError("need at least two feature dimensions")
    if not math.isfinite(class_separation):
        raise ValueError(f"class_separation must be a finite number, got {class_separation!r}")
    if class_separation < 0:
        raise ValueError("class_separation must be non-negative")
    if val_per_class < 1 or test_per_class < 1:
        raise ValueError("val/test per-class counts must be >= 1")
    return pareto_targets(n0, num_classes, ratio)


# (num_classes and the per-(split, class) counts, their ids): the last synth_gaussian layout
_synth_ids: tuple[tuple[int, tuple[int, ...]], tuple[str, ...]] | None = None


def synth_gaussian(
    num_classes: int,
    feature_dim: int,
    n0: int,
    ratio: float,
    class_separation: float = 3.0,
    seed: int = 0,
    val_per_class: int = 100,
    test_per_class: int = 100,
) -> Manifest:
    """Gaussian-blob dataset with a Pareto long-tailed train split.

    Class means sit evenly spaced on a radius-``class_separation`` circle in
    the first two feature coordinates, with unit isotropic noise in all
    dimensions. Train counts follow pareto_targets(n0, K, ratio); val and test
    are balanced at the given per-class counts.

    Records run split by split (train, val, test), class by class within a
    split; record ``i`` of class ``c`` has the id ``f"{split}-{c}-{i}"``. The
    features are one ``standard_normal`` draw of all records, and the class
    means are added to it a row block (``model.row_blocks``) at a time: the
    same elementwise adds as one whole-array add, with no (n, d) gather of
    means held. The ids tuple depends only on the layout
    (K and the per-(split, class) counts), so the last layout's tuple is kept
    and reused by a call of the same layout, whatever its seed.
    """
    targets = synth_targets(num_classes, feature_dim, n0, ratio, class_separation,
                            val_per_class, test_per_class)
    means = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    means[:, 0] = class_separation * np.cos(angles)
    means[:, 1] = class_separation * np.sin(angles)

    # records run split by split, class by class within a split
    counts = np.concatenate([targets, np.full(num_classes, val_per_class),
                             np.full(num_classes, test_per_class)])
    classes = np.tile(np.arange(num_classes), len(SPLITS))
    split_of = np.repeat(SPLITS, num_classes)  # the split of each (split, class) run
    labels = np.repeat(classes, counts)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((labels.size, feature_dim))
    for block in row_blocks(labels.size):
        features[block] += means[labels[block]]

    global _synth_ids
    layout = (num_classes, tuple(counts.tolist()))
    kept = _synth_ids  # read once: another thread may replace the slot meanwhile
    if kept is not None and kept[0] == layout:
        ids = kept[1]
    else:
        ids = tuple(f"{split}-{c}-{i}" for split, c, n
                    in zip(split_of.tolist(), classes.tolist(), layout[1]) for i in range(n))
    manifest = Manifest(
        ids=ids,
        features=features,
        labels=labels,
        splits=np.repeat(split_of, counts),
        num_classes=num_classes,
        feature_dim=feature_dim,
        task_kind="single",
    )
    _synth_ids = (layout, ids)  # set only once the constructor has accepted the ids
    return manifest


_LABEL_KEY = {"single": "label", "multi": "labels"}
# feature values save_manifest renders and writes at a time: with 64 features and 200
# labels a block's text is about 0.25 MB; blocks of 2**14 values or more raised the
# peak RSS of the multi-label bench process
SAVE_BLOCK_VALUES = 2 ** 13
_json_string = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(s, ensure_ascii=False)


def save_manifest(manifest: Manifest, path) -> None:
    """Write JSON Lines, a header line and then one record per line, atomically.

    Records are rendered and written a block of rows (``SAVE_BLOCK_VALUES``
    feature values) at a time, so memory does not grow with the manifest.
    """
    jsonio.write_atomic(path, _manifest_blocks(manifest))


def _manifest_blocks(manifest: Manifest):
    """The text of a manifest file: its header line, then one chunk of record lines a block."""
    header = {
        "num_classes": manifest.num_classes,
        "feature_dim": manifest.feature_dim,
        "task": manifest.task_kind,
    }
    yield jsonio.dumps(header) + "\n"
    record = ('{"id": %s, "features": %s, "' + _LABEL_KEY[manifest.task_kind]
              + '": %s, "split": "%s"}\n')
    rows = max(1, SAVE_BLOCK_VALUES // max(1, manifest.feature_dim))
    for start in range(0, len(manifest), rows):
        block = slice(start, start + rows)
        ids = [_json_string(rid) for rid in manifest.ids[block]]
        labels = manifest.labels[block]
        labels = labels.tolist() if labels.ndim == 1 else jsonio.row_texts(labels)
        fields = zip(ids, jsonio.row_texts(manifest.features[block]), labels,
                     manifest.splits[block].tolist())
        yield (record * len(ids)) % tuple(chain.from_iterable(fields))


# (sha256 of a file's bytes, the Manifest parsed from them): the last successful parse
_last_parse: tuple[bytes, Manifest] | None = None
# bytes a load hashes at a time, read from its file into one buffer it reuses
READ_BUFFER_BYTES = 2 ** 20


def load_manifest(path) -> Manifest:
    """Read a JSONL manifest, rejecting records that violate the header.

    One open file is read in passes. The first hashes its bytes through one reusable
    buffer (``READ_BUFFER_BYTES``); when their sha256 is that of the last successful
    parse in this process, that parse is returned and nothing is decoded. Otherwise
    ``io.TextIOWrapper`` (UTF-8, universal newlines: the same three breaks) decodes
    the same file a chunk at a time: one pass over its lines checks that it is UTF-8
    and counts the record lines, to size the columns, and one hands the lines to
    ``_parse``. So what is parsed is the bytes that were hashed, even if the path is
    replaced meanwhile. Every load, the first included, returns a new ``Manifest``
    sharing the kept parse's read-only arrays.
    """
    global _last_parse
    buf = memoryview(bytearray(READ_BUFFER_BYTES))
    with open(path, "rb", buffering=0) as fh:
        sha, size = hashlib.sha256(), 0
        while got := fh.readinto(buf):
            sha.update(buf[:got])
            size += got
        digest = sha.digest()
        kept = _last_parse  # read once: another thread may replace the slot meanwhile
        if kept is not None and kept[0] == digest:
            return copy.copy(kept[1])
        if not size:
            raise ManifestFormatError("manifest file is empty")
        del buf  # not held while the file is decoded
        fh.seek(0)
        text = io.TextIOWrapper(fh, encoding="utf-8", newline=None)
        try:  # every line is decoded before any is parsed
            records = sum(1 for line in islice(text, 1, None) if line.strip())
        except UnicodeDecodeError as exc:
            raise _non_utf8_error(fh) from exc
        text.seek(0)
        manifest = _parse(text, records)
    _last_parse = (digest, manifest)
    return copy.copy(manifest)


def _non_utf8_error(fh) -> ManifestFormatError:
    """The error naming the first line of file ``fh`` that is not UTF-8, read in binary.

    ``bytes.splitlines`` cuts only at the three breaks, and no UTF-8 sequence
    holds a ``\\r`` or ``\\n`` byte, so each line decodes, or fails, on its own.
    """
    fh.seek(0)
    with io.BufferedReader(fh) as binary:  # closes fh too: the load fails
        lines = chain.from_iterable(map(bytes.splitlines, binary))
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return ManifestFormatError(f"line {lineno}: not valid UTF-8")
    return ManifestFormatError("manifest file changed while it was read")


def _parse(lines: Iterator[str], n: int) -> Manifest:
    """Check a manifest file's lines into read-only columns, naming the first line at fault.

    ``lines`` yields the file's lines, the header first, each with or without
    its ``"\\n"``; ``n``, the number of record lines that are not blank, sizes
    the preallocated ``features``, ``labels`` and ``splits`` columns. Blank
    lines are skipped. The record lines are drawn, parsed and checked a row
    block (``model.BLOCK_ROWS``) of lines at a time, and then the block's
    values are written into the columns, so one block of lines and their
    parsed values is held at a time.

    A structural fault raises at once, so the first in file order wins. A
    non-finite feature (``NaN``, ``Infinity`` and ``1e400`` all parse, and an
    integer beyond float range does not convert) is noted and raised only
    after every line has passed those checks. A repeated id shows only once
    every id is read, and is named before a non-finite feature, as
    ``Manifest`` checks ids first.
    """
    header = _parse_line(next(lines), 1)
    if set(header) != {"num_classes", "feature_dim", "task"}:
        raise ManifestFormatError("header must carry exactly num_classes, feature_dim, task")
    k, d, task = header["num_classes"], header["feature_dim"], header["task"]
    if not _is_int(k) or not _is_int(d) or k < 2 or d < 1 or task not in TASK_KINDS:
        raise ManifestFormatError("malformed header values")
    if not n:
        raise ManifestFormatError("manifest has no records")

    label_key = _LABEL_KEY[task]
    keys = {"id", "features", label_key, "split"}
    numbers, bits = frozenset((int, float)), frozenset((0, 1))  # a JSON true loads as a bool
    features = np.empty((n, d))
    labels = np.empty((n, k), dtype=np.int8) if task == "multi" else np.empty(n, dtype=np.int64)
    splits = np.empty(n, dtype="U8")
    ids, linenos, nonfinite, start, first = [], [], None, 0, 2  # line 1 is the header
    while chunk := list(islice(lines, model.BLOCK_ROWS)):
        block_features, block_labels, block_splits = [], [], []
        for lineno, line in enumerate(chunk, start=first):
            if not line.strip():
                continue
            record = _parse_line(line, lineno)
            if record.keys() != keys:
                raise ManifestFormatError(f"line {lineno}: record keys must be {sorted(keys)}")
            rid, feats, label = record["id"], record["features"], record[label_key]
            if not isinstance(rid, str):
                raise ManifestFormatError(f"line {lineno}: id must be a string")
            if (not isinstance(feats, list) or len(feats) != d
                    or not numbers.issuperset(map(type, feats))):
                raise ManifestFormatError(f"line {lineno}: features must be {d} numbers")
            if task == "single":
                if not _is_int(label) or not 0 <= label < k:
                    raise ManifestFormatError(f"line {lineno}: label must be an int in [0, {k})")
            else:
                try:  # 0 or 1 as `v in (0, 1)` tells: 1.0, -0.0 and true are; a list or object is not
                    binary = isinstance(label, list) and len(label) == k and bits.issuperset(label)
                except TypeError:
                    binary = False
                if not binary:
                    raise ManifestFormatError(f"line {lineno}: labels must be {k} binary values")
            if record["split"] not in SPLITS:
                raise ManifestFormatError(f"line {lineno}: split must be one of {SPLITS}")
            ids.append(rid)
            block_features.append(feats)
            block_labels.append(label)
            block_splits.append(record["split"])
            linenos.append(lineno)
        if block_features:
            rows = slice(start, start + len(block_features))
            start = rows.stop
            labels[rows] = block_labels
            splits[rows] = block_splits
            if nonfinite is None:  # once a row is at fault the columns are not kept
                try:
                    features[rows] = block_features
                    finite = np.isfinite(features[rows]).all()
                except OverflowError:  # an int beyond float range
                    finite = False
                if not finite:
                    nonfinite = next(lineno for lineno, row in zip(linenos[rows], block_features)
                                     if not _finite(row))
        first += len(chunk)
        del chunk, block_features, block_labels, block_splits
    if nonfinite is not None:
        raise ManifestFormatError(_duplicate_id(ids, linenos)
                                  or f"line {nonfinite}: features must be finite")
    features.flags.writeable = labels.flags.writeable = splits.flags.writeable = False
    try:
        return Manifest(ids=tuple(ids), features=features, labels=labels, splits=splits,
                        num_classes=k, feature_dim=d, task_kind=task)
    except ValueError as exc:  # a repeated id
        raise ManifestFormatError(_duplicate_id(ids, linenos) or str(exc)) from exc


def _duplicate_id(ids: list[str], linenos: list[int]) -> str | None:
    """Name the line of the first repeated id and the line it first stood on, if any."""
    first_seen: dict[str, int] = {}
    for rid, lineno in zip(ids, linenos):
        if rid in first_seen:
            return f"line {lineno}: duplicate id {rid!r} (first on line {first_seen[rid]})"
        first_seen[rid] = lineno
    return None


def _finite(row: list) -> bool:
    """Whether every number of a parsed features row converts to a finite float."""
    try:
        return all(map(math.isfinite, row))
    except OverflowError:  # an int beyond float range
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_line(line: str, lineno: int) -> dict:
    try:  # without its break: in a string left open, json would name the break
        obj = json.loads(line.removesuffix("\n"))
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ManifestFormatError(f"line {lineno}: expected a JSON object")
    return obj
