"""Config-driven experiment runner: dataset -> stage-1 -> stage-2 -> report."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .distribution import default_boundaries, group_split, pareto_targets
from .losses import LossSpec
from .manifest import Manifest, load_manifest, subsample_longtail, synth_gaussian, synth_targets
from .metrics import GapStats, checkpoint_gaps, mean_average_precision
from .model import ModelState, decision_scores, weight_norms
from .optim import OptimizerSpec
from .samplers import MixupSpec, SamplerSpec
from .training import Stage2Spec, TrainConfig, apply_stage2, evaluate_split, train_stage1


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
        synth_targets(self.num_classes, self.feature_dim, self.n0, self.ratio,
                      self.class_separation, self.val_per_class, self.test_per_class)

    def to_config(self) -> dict:
        return {
            "num_classes": self.num_classes, "feature_dim": self.feature_dim,
            "n0": self.n0, "ratio": self.ratio, "class_separation": self.class_separation,
            "val_per_class": self.val_per_class, "test_per_class": self.test_per_class,
        }


@dataclass(frozen=True)
class ParetoSpec:
    n0: int
    ratio: float

    def to_config(self) -> dict:
        return {"n0": self.n0, "ratio": self.ratio}


@dataclass(frozen=True)
class DatasetConfig:
    synth: SynthSpec | None = None
    manifest_path: str | None = None
    pareto: ParetoSpec | None = None
    group_boundaries: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.synth is None) == (self.manifest_path is None):
            raise ConfigError("dataset needs exactly one of 'synth' or 'manifest'")
        if self.synth is not None and self.pareto is not None:
            raise ConfigError("'pareto' applies to loaded manifests; synth is already long-tailed")

    def to_config(self) -> dict:
        cfg: dict = {}
        if self.synth is not None:
            cfg["synth"] = self.synth.to_config()
        if self.manifest_path is not None:
            cfg["manifest"] = self.manifest_path
        if self.pareto is not None:
            cfg["pareto"] = self.pareto.to_config()
        if self.group_boundaries is not None:
            cfg["group_boundaries"] = list(self.group_boundaries)
        return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    dataset: DatasetConfig
    train: TrainConfig
    name: str | None = None
    report_path: str | None = None

    def to_config(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "dataset": self.dataset.to_config(),
            "train": _train_to_config(self.train),
            "report_path": self.report_path,
        }

    @property
    def digest(self) -> str:
        """Content hash of the run semantics (name and report path excluded)."""
        cfg = self.to_config()
        cfg.pop("name")
        cfg.pop("report_path")
        return jsonio.digest(cfg)


def _train_to_config(train: TrainConfig) -> dict:
    return {
        "epochs": train.epochs,
        "batch_size": train.batch_size,
        "eval_every": train.eval_every,
        "hidden_dim": train.hidden_dim,
        "classifier_kind": train.classifier_kind,
        "temperature": train.temperature,
        "loss": train.loss.to_config(),
        "sampler": train.sampler.to_config(),
        "mixup": train.mixup.to_config(),
        "optimizer": train.optimizer.to_config(),
        "stage2": train.stage2.to_config(),
    }


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON config dict; rejected before any compute on error."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"seed", "name", "dataset", "train", "report_path"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in raw or not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
        raise ConfigError("config needs an integer 'seed'")
    if "dataset" not in raw:
        raise ConfigError("config needs a 'dataset' section")
    try:
        dataset = _parse_dataset(raw["dataset"])
        train = _parse_train(raw.get("train", {}), seed=raw["seed"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        seed=raw["seed"], dataset=dataset, train=train,
        name=raw.get("name"), report_path=raw.get("report_path"),
    )


def _parse_dataset(raw: dict) -> DatasetConfig:
    if not isinstance(raw, dict):
        raise ConfigError("'dataset' must be an object")
    unknown = set(raw) - {"synth", "manifest", "pareto", "group_boundaries"}
    if unknown:
        raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
    synth = None
    if "synth" in raw:
        allowed = {"num_classes", "feature_dim", "n0", "ratio", "class_separation",
                   "val_per_class", "test_per_class"}
        extra = set(raw["synth"]) - allowed
        if extra:
            raise ConfigError(f"unknown synth keys: {sorted(extra)}")
        _check_ints("synth", raw["synth"], ("num_classes", "feature_dim", "n0",
                                            "val_per_class", "test_per_class"))
        synth = SynthSpec(**raw["synth"])
    pareto = None
    if "pareto" in raw:
        extra = set(raw["pareto"]) - {"n0", "ratio"}
        if extra:
            raise ConfigError(f"unknown pareto keys: {sorted(extra)}")
        _check_ints("pareto", raw["pareto"], ("n0",))
        pareto = ParetoSpec(**raw["pareto"])
    boundaries = None
    if "group_boundaries" in raw:
        b = raw["group_boundaries"]
        if (not isinstance(b, (list, tuple)) or len(b) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in b)):
            raise ConfigError("group_boundaries must be a [h, m] pair of integers")
        boundaries = (b[0], b[1])
    return DatasetConfig(synth=synth, manifest_path=raw.get("manifest"),
                         pareto=pareto, group_boundaries=boundaries)


def _parse_train(raw: dict, seed: int) -> TrainConfig:
    if not isinstance(raw, dict):
        raise ConfigError("'train' must be an object")
    allowed = {"epochs", "batch_size", "eval_every", "hidden_dim", "classifier_kind",
               "temperature", "loss", "sampler", "mixup", "optimizer", "stage2"}
    unknown = set(raw) - allowed
    if unknown:
        # the experiment-level seed is the single seed authority
        raise ConfigError(f"unknown train keys: {sorted(unknown)}")
    _check_ints("train", raw, ("epochs", "batch_size", "eval_every"), nullable=("hidden_dim",))
    kwargs: dict = {k: raw[k] for k in
                    ("epochs", "batch_size", "eval_every", "hidden_dim",
                     "classifier_kind", "temperature") if k in raw}
    if "loss" in raw:
        kwargs["loss"] = LossSpec.from_config(raw["loss"])
    if "sampler" in raw:
        _check_ints("sampler", raw["sampler"], nullable=("epoch_length",))
        kwargs["sampler"] = SamplerSpec.from_config(raw["sampler"])
    if "mixup" in raw:
        kwargs["mixup"] = MixupSpec.from_config(raw["mixup"])
    if "optimizer" in raw:
        kwargs["optimizer"] = OptimizerSpec.from_config(raw["optimizer"])
    if "stage2" in raw:
        _check_ints("stage2", raw["stage2"], nullable=("epochs",))
        kwargs["stage2"] = Stage2Spec.from_config(raw["stage2"])
    return TrainConfig(seed=seed, **kwargs)


def _check_ints(section: str, raw, required=(), nullable=()) -> None:
    """Reject an integer field given as another type: a bool, or a null where none is allowed."""
    if not isinstance(raw, dict):  # left to the section's own parser to reject
        return
    for key in required + nullable:
        value = raw.get(key)
        if (key in raw and not (value is None and key in nullable)
                and (isinstance(value, bool) or not isinstance(value, int))):
            raise ConfigError(f"{section} {key} must be an integer, got {value!r}")


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
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(name, exc) from exc


def build_dataset(config: ExperimentConfig, seed=None) -> Manifest:
    """Materialize the configured dataset (synth, or loaded + optional Pareto cut)."""
    seed = config.seed if seed is None else seed
    if config.dataset.synth is not None:
        spec = config.dataset.synth
        return synth_gaussian(
            spec.num_classes, spec.feature_dim, spec.n0, spec.ratio,
            class_separation=spec.class_separation, seed=seed,
            val_per_class=spec.val_per_class, test_per_class=spec.test_per_class,
        )
    manifest = load_manifest(config.dataset.manifest_path)
    if config.dataset.pareto is not None:
        targets = pareto_targets(config.dataset.pareto.n0, manifest.num_classes,
                                 config.dataset.pareto.ratio)
        manifest = subsample_longtail(manifest, targets, seed)
    return manifest


def stage_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (dataset, train, stage-2) generators for a run seeded with ``seed``.

    The one seed derivation: ``run_experiment`` and the CLI ``stage2`` command
    both use it, so training in one go or resuming from a stage-1 checkpoint
    gives the same stage-2 head.
    """
    return tuple(np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(3))


def run_experiment(config: ExperimentConfig, out_path=None) -> ExperimentResult:
    """Execute one configured run and (optionally) write its report JSON.

    Reports are written atomically after success, so a failed run leaves no
    partial output. Byte-identical reports for identical configs.
    """
    data_rng, train_rng, stage2_rng = stage_rngs(config.seed)
    with _stage("dataset"):
        manifest = build_dataset(config, seed=data_rng)
        boundaries = config.dataset.group_boundaries or default_boundaries(manifest.num_classes)
        groups = group_split(manifest.train_distribution(), boundaries)
    with _stage("train"):
        model, history = train_stage1(manifest, config.train, rng=train_rng, groups=groups)
    with _stage("stage2"):
        final = apply_stage2(model, manifest, config.train, rng=stage2_rng)
    with _stage("evaluate"):
        final_test = evaluate_split(final, manifest, "test", groups)
        final_val = evaluate_split(final, manifest, "val", groups)
        gaps = checkpoint_gaps(history)
        final_block = {
            "group_report": final_test.to_dict(),
            "val_group_report": final_val.to_dict(),
            "weight_norms": ([float(v) for v in weight_norms(final)]
                             if isinstance(final, ModelState) else None),
            "gaps": gaps.to_dict(),
        }
        if manifest.task_kind == "multi":
            test_idx = manifest.split_indices("test")
            scores = decision_scores(final, manifest.features[test_idx])
            final_block["map"] = mean_average_precision(scores, manifest.labels[test_idx])
        report = {
            "config_digest": config.digest,
            "name": config.name,
            "seed": config.seed,
            "task": manifest.task_kind,
            "history": history.to_dict(),
            "final": final_block,
        }
    if out_path is not None:
        with _stage("report"):
            jsonio.write_atomic(out_path, jsonio.dumps(report) + "\n")
    return ExperimentResult(report=report, manifest=manifest, stage1_model=model,
                            final_classifier=final, history=history)


def _sweep_worker(name: str, raw_config: dict) -> dict:
    row = {"method": name, "head": None, "medium": None, "tail": None,
           "avg": None, "error": None}
    try:
        result = run_experiment(parse_config(raw_config))
        report = result.report["final"]["group_report"]
        row.update(head=report["head"], medium=report["medium"],
                   tail=report["tail"], avg=report["average"])
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(entries, parallelism: int = 1) -> list[dict]:
    """Run (name, raw_config) pairs, up to ``parallelism`` at a time.

    Each run executes in its own process with isolated state; failures are
    recorded per-row and do not stop the sweep. Row order follows input order.
    """
    entries = list(entries)
    if not entries:
        raise ConfigError("sweep needs at least one config")
    for _, raw in entries:  # reject bad configs before any compute
        parse_config(raw)
    workers = sweep_workers(parallelism, len(entries), os.cpu_count())
    if workers <= 1:
        return [_sweep_worker(name, raw) for name, raw in entries]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_worker, name, raw) for name, raw in entries]
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

    lines = ["method,head,medium,tail,avg,error"]
    for row in rows:
        error = (row.get("error") or "").replace(",", ";").replace("\n", " ")
        lines.append(",".join([
            str(row["method"]), fmt(row["head"]), fmt(row["medium"]),
            fmt(row["tail"]), fmt(row["avg"]), error,
        ]))
    return "\n".join(lines) + "\n"
