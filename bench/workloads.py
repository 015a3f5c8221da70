"""The three benchmark workloads: inputs made from a seed, timed steps, checks.

Each workload builds its inputs (configs, and for ``multilabel_io`` an
in-memory manifest) from the seed alone. ``STEPS`` turns them into the
pass's units: one sweep row or one run each (plus the manifest save on
``multilabel_io``), called through the public ``longtail_lab`` API. The
worker times each step, and compares every unit's canonical bytes with the
first pass's, so any nondeterminism, and any difference between traced and
untraced passes, counts as a failure.

Library functions are looked up as module attributes at call time
(``longtail_lab.harness.run_sweep``), so the tracer's wrappers see them.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import longtail_lab

# Why each workload exists; README.md gives the long form and the traced shares.
WHY = {
    "desk_sweep": "23 tiny configs over every loss, sampler, MixUp, SAM and stage-2 kind; "
                  "per-step Python overhead in losses/optim/samplers dominates",
    "mid_stage2": "one K=100 encoder recipe under crt/lws/disalign/ncm, two seeds each; encoder "
                  "forward/backward and stage-2 re-encoding dominate, NCM sets peak memory",
    "multilabel_io": "save a 200-label long-tailed manifest, then train bce_ml and "
                     "focal_bce_ml from the file; manifest/jsonio I/O and per-label AP carry the load",
}
WORKLOADS = tuple(WHY)
SAVE_UNIT = "save_manifest"
MIN_POSITIVES = 5
TAIL_EXPONENT = 0.5  # label frequency ~ rank^-0.5: head/tail ratio ~14 at K=200
SIGNAL = 4.0
WORLD_SEED = 2410_02010  # label frequencies and means are fixed; records follow --seed


@dataclass
class Unit:
    """One step's outcome: canonical output bytes plus its accuracies."""

    name: str
    output: bytes
    error: str | None
    avg: float | None
    tail: float | None
    result: object = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------- desk_sweep

def _desk_configs(seed: int, tiny: bool) -> list:
    synth = ({"num_classes": 4, "feature_dim": 4, "n0": 40, "ratio": 10.0,
              "val_per_class": 10, "test_per_class": 10} if tiny else
             {"num_classes": 10, "feature_dim": 16, "n0": 1000, "ratio": 100.0,
              "test_per_class": 300})
    base_train = {"epochs": 2 if tiny else 8, "batch_size": 64,
                  "optimizer": {"kind": "adam", "lr": 0.01}}

    def entry(name, **train):
        return name, {"name": name, "dataset": {"synth": synth}, "train": {**base_train, **train}}

    entries = [entry(f"loss-{kind}", loss={"kind": kind})
               for kind in longtail_lab.losses.SINGLE_LABEL_KINDS]
    entries += [
        entry("sampler-class_balanced", sampler={"kind": "class_balanced"}),
        entry("sampler-difficulty", sampler={"kind": "difficulty"}),
        entry("mixup", mixup={"enabled": True, "alpha": 0.2}),
        entry("sam", optimizer={"kind": "adam", "lr": 0.01, "sam": True, "sam_rho": 0.05}),
    ]
    stage2_epochs = 1 if tiny else 3
    for kind in ("crt", "tau_norm", "lws", "ncm", "disalign", "cosine_retrain"):
        stage2 = {"kind": kind}
        if kind in ("crt", "lws", "disalign", "cosine_retrain"):
            stage2["epochs"] = stage2_epochs
        entries.append(entry(f"stage2-{kind}", stage2=stage2))
    for i, (_, cfg) in enumerate(entries):
        cfg["seed"] = seed * len(entries) + i
    return entries


# ---------------------------------------------------------------- mid_stage2

def _mid_configs(seed: int, tiny: bool) -> list:
    synth = ({"num_classes": 10, "feature_dim": 8, "n0": 50, "ratio": 10.0,
              "class_separation": 30.0, "val_per_class": 10, "test_per_class": 10} if tiny else
             {"num_classes": 100, "feature_dim": 64, "n0": 250, "ratio": 100.0,
              "class_separation": 30.0, "val_per_class": 10, "test_per_class": 30})
    train = {"epochs": 2 if tiny else 5, "batch_size": 128,
             "hidden_dim": 16 if tiny else 64,
             "optimizer": {"kind": "adam", "lr": 0.001}}
    runs = [(kind, rep) for rep in range(2) for kind in ("crt", "lws", "disalign", "ncm")]
    return [(f"stage2-{kind}-{rep}",
             {"seed": seed * len(runs) + i, "name": f"stage2-{kind}-{rep}",
              "dataset": {"synth": synth}, "train": {**train, "stage2": {"kind": kind}}})
            for i, (kind, rep) in enumerate(runs)]


def _check_sweep(inputs: dict, units: list[Unit]) -> list[str]:
    """Group values in range, average = mean of the groups, better than chance."""
    failed = []
    for unit in units:
        if unit.error is not None:
            failed.append(f"{unit.name}: row error {unit.error}")
            continue
        row = json.loads(unit.output)
        groups = [row["head"], row["medium"], row["tail"]]
        if not all(0.0 <= v <= 100.0 for v in groups):
            failed.append(f"{unit.name}: group value outside [0, 100]")
        if abs(row["avg"] - sum(groups) / 3.0) > 1e-9:
            failed.append(f"{unit.name}: avg is not the mean of head/medium/tail")
    chance = 100.0 / inputs["num_classes"]
    ok = [u.avg for u in units if u.error is None]
    if ok and sum(ok) / len(ok) < 2.0 * chance:
        failed.append(f"mean avg {sum(ok) / len(ok):.2f}% is not above twice chance")
    return failed


def _sweep_inputs(entries) -> dict:
    return {"entries": entries,
            "num_classes": entries[0][1]["dataset"]["synth"]["num_classes"]}


def build_desk_sweep(seed: int, tiny: bool, workdir: str) -> dict:
    return _sweep_inputs(_desk_configs(seed, tiny))


def build_mid_stage2(seed: int, tiny: bool, workdir: str) -> dict:
    return _sweep_inputs(_mid_configs(seed, tiny))


def _sweep_row(entry) -> Unit:
    (row,) = longtail_lab.harness.run_sweep([entry], parallelism=1)
    return Unit(row["method"], _canonical(row), row["error"], row["avg"], row["tail"])


def sweep_steps(inputs: dict) -> list:
    """``run_sweep`` one entry at a time, so each row is timed on its own."""
    return [partial(_sweep_row, entry) for entry in inputs["entries"]]


# ------------------------------------------------------------- multilabel_io

def multilabel_manifest(seed: int, num_classes: int, feature_dim: int, n: int,
                        cardinality: float) -> longtail_lab.Manifest:
    """Long-tailed multi-label records: label frequency ~ rank^-TAIL_EXPONENT.

    Label frequencies and label means come from ``WORLD_SEED``; the records
    (labels, splits, Gaussian noise) from ``seed``. A record's features are its
    labels' mean vectors, summed and scaled by 1/sqrt(#labels), plus unit
    noise. Every record has at least one label, and every label has at least
    ``MIN_POSITIVES`` positives in each split, so every per-label AP is defined.
    """
    world = np.random.default_rng(WORLD_SEED)
    weights = np.arange(1, num_classes + 1) ** -TAIL_EXPONENT
    probs = np.minimum(cardinality * weights / weights.sum(), 0.9)[world.permutation(num_classes)]
    means = SIGNAL * world.standard_normal((num_classes, feature_dim))
    rng = np.random.default_rng(seed)
    labels = (rng.random((n, num_classes)) < probs).astype(np.int64)
    empty = np.flatnonzero(labels.sum(axis=1) == 0)
    labels[empty, rng.choice(num_classes, size=empty.size, p=probs / probs.sum())] = 1
    n_val, n_test = n // 10, n * 3 // 10
    splits = np.array(["train"] * (n - n_val - n_test) + ["val"] * n_val
                      + ["test"] * n_test)[rng.permutation(n)]
    for split in ("train", "val", "test"):
        rows = np.flatnonzero(splits == split)
        for c in np.flatnonzero(labels[rows].sum(axis=0) < MIN_POSITIVES):
            labels[rng.choice(rows, size=MIN_POSITIVES, replace=False), c] = 1
    features = (labels @ means) / np.sqrt(labels.sum(axis=1))[:, None]
    features += rng.standard_normal((n, feature_dim))
    return longtail_lab.Manifest(
        ids=tuple(f"r{i:06d}" for i in range(n)), features=features, labels=labels,
        splits=splits, num_classes=num_classes, feature_dim=feature_dim, task_kind="multi")


def build_multilabel_io(seed: int, tiny: bool, workdir: str) -> dict:
    if tiny:
        manifest = multilabel_manifest(seed, 12, 8, 400, 2.3)
        epochs = 2
    else:
        manifest = multilabel_manifest(seed, 200, 64, 3000, 2.3)
        epochs = 12
    path = os.path.join(workdir, "multilabel.jsonl")
    configs = []
    for kind in ("bce_ml", "focal_bce_ml"):
        raw = {"seed": seed, "name": kind, "dataset": {"manifest": path},
               "train": {"epochs": epochs, "batch_size": 128, "loss": {"kind": kind},
                         "optimizer": {"kind": "adam", "lr": 0.03}}}
        configs.append((kind, longtail_lab.parse_config(raw),
                        os.path.join(workdir, f"report-{kind}.json")))
    return {"manifest": manifest, "path": path, "configs": configs}


def _save(manifest, path) -> Unit:
    longtail_lab.manifest.save_manifest(manifest, path)
    with open(path, "rb") as fh:
        saved = hashlib.sha256(fh.read()).hexdigest().encode("ascii")
    return Unit(SAVE_UNIT, saved, None, None, None)


def _train_from_file(name, config, report_path) -> Unit:
    try:
        result = longtail_lab.harness.run_experiment(config, out_path=report_path)
    except Exception as exc:  # a failed run is a counted unit, not a crash
        return Unit(name, b"", f"{type(exc).__name__}: {exc}", None, None)
    with open(report_path, "rb") as fh:
        output = fh.read()
    final = result.report["final"]["group_report"]
    return Unit(name, output, None, final["average"], final["tail"], result)


def multilabel_steps(inputs: dict) -> list:
    """Save the manifest once, then train from the file twice."""
    return ([partial(_save, inputs["manifest"], inputs["path"])]
            + [partial(_train_from_file, *config) for config in inputs["configs"]])


def _reference_ap(scores: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per-label AP by its definition: mean over positives of precision at their rank."""
    n = scores.shape[0]
    aps = np.empty(scores.shape[1])
    for c in range(scores.shape[1]):
        order = np.lexsort((np.arange(n), -scores[:, c]))
        hits = np.flatnonzero(truths[order, c] == 1)
        aps[c] = np.mean(np.arange(1, hits.size + 1) / (hits + 1))
    return aps


def _check_multilabel(inputs: dict, units: list[Unit]) -> list[str]:
    """Manifest round trip is exact; reported per-label AP matches a reference."""
    failed = []
    saved = inputs["manifest"]
    loaded = longtail_lab.manifest.load_manifest(inputs["path"])
    if loaded.ids != saved.ids:
        failed.append("load_manifest: ids differ from what was saved")
    if (loaded.features.shape != saved.features.shape
            or not np.array_equal(loaded.features.view(np.uint64),
                                  saved.features.view(np.uint64))):
        failed.append("load_manifest: features are not bitwise equal")
    if not np.array_equal(loaded.labels, saved.labels):
        failed.append("load_manifest: labels differ")
    if not np.array_equal(loaded.splits, saved.splits):
        failed.append("load_manifest: splits differ")
    test = saved.split_indices("test")
    truths = saved.labels[test]
    for unit in units[1:]:
        if unit.error is not None:
            failed.append(f"{unit.name}: {unit.error}")
            continue
        head = unit.result.final_classifier
        scores = saved.features[test] @ head.cls_w.T + head.cls_b
        expected = 100.0 * _reference_ap(scores, truths)
        report = json.loads(unit.output)["final"]["group_report"]
        if not np.allclose(report["per_class_acc"], expected, rtol=1e-9, atol=1e-9):
            failed.append(f"{unit.name}: reported per-label AP differs from the reference")
        groups = [report["head"], report["medium"], report["tail"]]
        if abs(report["average"] - sum(groups) / 3.0) > 1e-9:
            failed.append(f"{unit.name}: average is not the mean of head/medium/tail")
    return failed


# ------------------------------------------------------------------ registry

BUILD = {"desk_sweep": build_desk_sweep, "mid_stage2": build_mid_stage2,
         "multilabel_io": build_multilabel_io}
STEPS = {"desk_sweep": sweep_steps, "mid_stage2": sweep_steps,
         "multilabel_io": multilabel_steps}
CHECK = {"desk_sweep": _check_sweep, "mid_stage2": _check_sweep,
         "multilabel_io": _check_multilabel}


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def outputs_digest(units: list[Unit]) -> str:
    """sha256 over every unit's name and canonical output bytes, in order."""
    h = hashlib.sha256()
    for unit in units:
        h.update(unit.name.encode("utf-8") + b"\0" + unit.output + b"\0")
    return h.hexdigest()
