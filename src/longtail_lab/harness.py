"""Config-driven experiment runner: dataset -> stage-1 -> stage-2 -> report.

A config section's keys are the fields of its dataclass, and each value's type
is the field's annotation; every section, the dataset's too, is read by
``jsonio.parse_fields`` and written by ``jsonio.fields_to_config``. A field's
metadata says which specs take it (a loss hyperparameter its kinds, ``sam_rho``
a SAM optimizer), and a config key that the run would ignore is refused.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import jsonio
from .distribution import group_split, pareto_targets
from .manifest import Manifest, load_manifest, subsample_longtail, synth_gaussian, synth_targets
from .metrics import checkpoint_gaps
from .model import ModelState, weight_norms
from .training import (TrainConfig, apply_stage2, check_scorable, evaluate_split, stage_rngs,
                       train_stage1)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit status 2)."""


class ExperimentError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 10
    feature_dim: int = 16
    n0: int = 1000
    ratio: float = 100.0
    class_separation: float = 3.0
    val_per_class: int = 100
    test_per_class: int = 100

    def __post_init__(self):
        synth_targets(**vars(self))  # the fields are synth_targets' and synth_gaussian's arguments


@dataclass(frozen=True)
class ParetoSpec:
    n0: int
    ratio: float

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError(f"pareto n0 must be >= 1, got {self.n0!r}")
        if not self.ratio >= 1:
            raise ValueError(f"pareto ratio must be >= 1, got {self.ratio!r}")
        jsonio.check_finite(self)


@dataclass(frozen=True)
class DatasetConfig:
    """A synth draw, or a manifest file with an optional Pareto cut; and the group boundaries.

    A section that is unset is absent from the config: ``synth``, ``pareto`` and
    ``group_boundaries`` may not be null.
    """

    synth: SynthSpec = field(default=None, metadata=jsonio.OMIT_UNSET)
    manifest: Annotated[str | None, "a string path"] = field(
        default=None, metadata=jsonio.OMIT_UNSET)
    pareto: ParetoSpec = field(default=None, metadata=jsonio.OMIT_UNSET)
    group_boundaries: Annotated[tuple[int, int], "a [h, m] pair of integers"] = field(
        default=None, metadata=jsonio.OMIT_UNSET)

    def __post_init__(self):
        if (self.synth is None) == (self.manifest is None):
            raise ConfigError("dataset needs exactly one of 'synth' or 'manifest'")
        if self.synth is not None and self.pareto is not None:
            raise ConfigError("'pareto' applies to loaded manifests; synth is already long-tailed")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: DatasetConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    name: str | None = None
    report_path: str | None = None

    def __post_init__(self):
        check_seed(self.seed)

    def to_config(self) -> dict:
        return jsonio.fields_to_config(self)

    @property
    def digest(self) -> str:
        """Content hash of the run semantics (name and report path excluded)."""
        cfg = self.to_config()
        cfg.pop("name")
        cfg.pop("report_path")
        return jsonio.digest(cfg)


def check_seed(seed: int) -> None:
    """Refuse a seed below 0 (``np.random.SeedSequence`` cannot take it) or beyond int64."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if seed > jsonio.INT64.max:
        raise ConfigError(f"seed must lie within the int64 range, got {seed}")


@contextmanager
def config_values():
    """Raise the ``ValueError`` of a spec that refuses a config or flag value as a ``ConfigError``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON config dict; rejected before any compute on error."""
    # the experiment seed is the one seed authority: the caller derives each stage's
    # generator from it with stage_rngs
    with config_values():
        return jsonio.parse_fields(ExperimentConfig, raw, "config")


def check_task(train: TrainConfig, task_kind: str) -> None:
    """Reject a loss, sampler or stage-2 scheme that ``task_kind`` data cannot train.

    Run as soon as the dataset is built, before any training: multi-label data
    needs a multi-label loss, the ``original`` sampler, and stage 2 ``none`` or
    ``tau_norm``; single-label data needs a single-label loss.
    """
    if train.loss.multi_label != (task_kind == "multi"):
        raise ConfigError(f"loss kind {train.loss.kind!r} does not match task {task_kind!r}")
    if task_kind == "multi" and train.sampler.kind != "original":
        raise ConfigError(f"{train.sampler.kind} sampling requires single-label data")
    if task_kind == "multi" and train.stage2.kind not in ("none", "tau_norm"):
        raise ConfigError(f"stage-2 kind {train.stage2.kind!r} requires single-label data")


@dataclass
class ExperimentResult:
    report: dict
    manifest: Manifest
    stage1_model: ModelState
    final_classifier: object
    history: object


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ExperimentError, ConfigError):
        raise
    except Exception as exc:
        raise ExperimentError(name, exc) from exc


def build_dataset(dataset: DatasetConfig, seed) -> Manifest:
    """Materialize a dataset section: a synth draw, or a loaded manifest and optional Pareto cut.

    The one dataset entry point of ``run_experiment`` and the CLI. ``seed``, an
    int or a ``np.random.Generator``, drives the synth draw or the Pareto cut. A
    Pareto cut the manifest cannot give raises ``ConfigError``.
    """
    if dataset.synth is not None:
        return synth_gaussian(**vars(dataset.synth), seed=seed)
    manifest = load_manifest(dataset.manifest)
    if dataset.pareto is not None:
        targets = pareto_targets(dataset.pareto.n0, manifest.num_classes, dataset.pareto.ratio)
        with config_values():  # a multi-label manifest, or n0 beyond a class's train records
            manifest = subsample_longtail(manifest, targets, seed)
    return manifest


def _run_stages(config: ExperimentConfig, keep_history: bool):
    """The stages of a run up to its final classifier: dataset, task check, stage 1, stage 2.

    The dataset stage refuses, with ``ConfigError``, group boundaries that do not
    fit the manifest's K and val or test splits that cannot be scored
    (``training.check_scorable``). ``keep_history`` is ``train_stage1``'s.
    Returns the manifest, the groups, the stage-1 model, its history and the
    final classifier.
    """
    data_rng, train_rng, stage2_rng = stage_rngs(config.seed)
    with _stage("dataset"):
        manifest = build_dataset(config.dataset, data_rng)
        with config_values():
            groups = group_split(manifest.train_distribution(), config.dataset.group_boundaries)
            check_scorable(manifest, groups)
    check_task(config.train, manifest.task_kind)
    with _stage("train"):
        model, history = train_stage1(manifest, config.train, rng=train_rng, groups=groups,
                                      keep_history=keep_history)
    with _stage("stage2"):
        final = apply_stage2(model, manifest, config.train, rng=stage2_rng)
    return manifest, groups, model, history, final


def run_experiment(config: ExperimentConfig, out_path=None) -> ExperimentResult:
    """Execute one configured run and (optionally) write its report JSON.

    Reports are written atomically after success, so a failed run leaves no
    partial output. Identical configs give byte-identical reports on one numpy
    and BLAS build at one BLAS thread count; the thread count can change the
    bits of a GEMM, and so a report's (at K=1000, its ``weight_norms``).
    """
    manifest, groups, model, history, final = _run_stages(config, keep_history=True)
    with _stage("evaluate"):
        if final is model:  # stage 2 changed nothing: the last epoch, always evaluated, is final
            last = history.records[-1]
            final_test, final_val, norms = last.test, last.val, last.weight_norms
        else:
            final_test = evaluate_split(final, manifest, "test", groups)
            final_val = evaluate_split(final, manifest, "val", groups)
            norms = weight_norms(final) if isinstance(final, ModelState) else None
        history_dicts = history.to_dict()
        final_block = {
            "group_report": final_test.to_dict(),
            "val_group_report": final_val.to_dict(),
            "weight_norms": None if norms is None else [float(v) for v in norms],
            "gaps": checkpoint_gaps(history_dicts).to_dict(),
        }
        if manifest.task_kind == "multi":
            final_block["map"] = final_test.map
        report = {
            "config_digest": config.digest,
            "name": config.name,
            "seed": config.seed,
            "task": manifest.task_kind,
            "history": history_dicts,
            "final": final_block,
        }
    if out_path is not None:
        with _stage("report"):
            jsonio.write_atomic(out_path, jsonio.dumps(report) + "\n")
    return ExperimentResult(report=report, manifest=manifest, stage1_model=model,
                            final_classifier=final, history=history)


def _sweep_worker(name: str, config: ExperimentConfig) -> dict:
    row = {"method": name, "head": None, "medium": None, "tail": None,
           "avg": None, "error": None}
    try:
        manifest, groups, _, _, final = _run_stages(config, keep_history=False)
        with _stage("evaluate"):
            report = evaluate_split(final, manifest, "test", groups)
        row.update(head=report.head, medium=report.medium, tail=report.tail, avg=report.average)
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(entries, parallelism: int = 1) -> list[dict]:
    """Run (name, raw_config) pairs, up to ``parallelism`` at a time.

    A ``parallelism`` that is not an int >= 1 (a bool included) is refused with
    ``ConfigError`` before any config is parsed. Every config is parsed, and a
    bad one refused, before any row runs. A row runs the stages of
    ``run_experiment`` without its history, then scores the final classifier
    once on test: its head/medium/tail/avg are those of the run's
    ``report["final"]["group_report"]``, and a failed row's error is the run's.
    No epoch is scored but for the ``difficulty`` sampler, which needs val on
    each evaluated epoch.

    Each run executes in its own process with isolated state; failures are
    recorded per-row and do not stop the sweep. Row order follows input order.
    ``load_manifest`` keeps its last parse, so rows that read one manifest file
    parse it once per worker process (once in all when ``parallelism`` is 1).
    """
    if isinstance(parallelism, bool) or not isinstance(parallelism, int):
        raise ConfigError(f"parallelism must be an integer, got {parallelism!r}")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    entries = [(name, parse_config(raw)) for name, raw in entries]
    if not entries:
        raise ConfigError("sweep needs at least one config")
    workers = sweep_workers(parallelism, len(entries), os.cpu_count())
    if workers <= 1:
        return [_sweep_worker(name, config) for name, config in entries]
    from concurrent.futures import ProcessPoolExecutor  # imported only for a parallel sweep

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_worker, name, config) for name, config in entries]
        return [f.result() for f in futures]


def sweep_workers(parallelism: int, num_entries: int, cpu_count: int | None) -> int:
    """Worker processes for a sweep: no more than entries to run or CPUs to run them."""
    return min(parallelism, num_entries, cpu_count or 1)


def sweep_csv(rows) -> str:
    """Head/Medium/Tail/Avg summary table, two-decimal percent, '.' decimal."""
    def fmt(value):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            return ""
        return f"{float(value):.2f}"

    def text(value):  # one cell on one line: "," would start a cell, "\r" or "\n" a row;
        # a cell holding '"' is quoted with its '"' doubled, so a reader cannot open a
        # quoted cell at a leading '"' and read on past the row
        value = value.replace(",", ";").replace("\r", " ").replace("\n", " ")
        return '"' + value.replace('"', '""') + '"' if '"' in value else value

    lines = ["method,head,medium,tail,avg,error"]
    for row in rows:
        lines.append(",".join([
            text(str(row["method"])), fmt(row["head"]), fmt(row["medium"]),
            fmt(row["tail"]), fmt(row["avg"]), text(row.get("error") or ""),
        ]))
    return "\n".join(lines) + "\n"
