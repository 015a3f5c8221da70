"""Command-line workflows: dataset construction, training, evaluation, analyses.

Each command calls its stage's library function, the one a config run calls:
synth, make-longtail: ``harness.build_dataset``; train: ``harness.run_experiment``;
stage2: ``training.apply_stage2``, seeded by ``training.stage_rngs``; eval:
``training.evaluate_split``; sweep: ``harness.run_sweep``; norms:
``model.weight_norms``; gaps: ``metrics.checkpoint_gaps``.

Exit codes: 0 ok, 1 run failure (a missing input file among them), 2 invalid
config or arguments, or an input file that is malformed: a manifest (also one
that is not valid UTF-8), a checkpoint (also one whose class or feature count
is not the manifest's) or a run report. A flag value is checked as the same
value in a config is, and exits 2 where it would, before anything is scored or
written.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import jsonio
from .distribution import group_split
from .harness import (ConfigError, DatasetConfig, build_dataset, check_task, config_values,
                      parse_config, run_experiment, run_sweep, sweep_csv)
from .manifest import ManifestFormatError, load_manifest, save_manifest
from .metrics import checkpoint_gaps
from .model import ModelState, load_checkpoint, save_checkpoint, weight_norms
from .training import apply_stage2, evaluate_split, stage_rngs


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # invalid input exits 2: a bad config, or a bad manifest, also one a run's dataset stage read
        invalid = (ConfigError, ManifestFormatError, json.JSONDecodeError)
        bad_input = isinstance(exc, invalid) or isinstance(exc.__cause__, ManifestFormatError)
        return 2 if bad_input else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longtail-lab",
                                     description="Desk-scale long-tailed classification laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic long-tailed manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--n0", type=int, default=1000)
    p.add_argument("--imbalance", type=float, default=100.0)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--val-per-class", type=int, default=100)
    p.add_argument("--test-per-class", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("make-longtail", help="Pareto-subsample a manifest's train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--imbalance", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_make_longtail)

    p = sub.add_parser("train", help="run a configured experiment end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="report path (overrides config report_path)")
    p.add_argument("--checkpoint", default=None, help="where to save the final classifier")
    p.add_argument("--stage1-checkpoint", default=None, help="where to save the stage-1 model")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("stage2", help="apply a stage-2 scheme to a stage-1 checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_stage2)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--boundaries", default=None, help="group boundaries as H,M")
    p.add_argument("--posthoc-tau", type=float, default=None,
                   help="apply post-hoc logit adjustment before argmax")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sweep", help="run several configs and emit a summary CSV")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("norms", help="per-class classifier weight norms of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_norms)

    p = sub.add_parser("gaps", help="checkpoint-gap statistics from a run report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gaps)
    return parser


def _emit(payload: dict, out_path) -> None:
    text = jsonio.dumps(payload) + "\n"
    if out_path:
        jsonio.write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> int:
    return _write_dataset({"synth": {
        "num_classes": args.classes, "feature_dim": args.dim, "n0": args.n0,
        "ratio": args.imbalance, "class_separation": args.separation,
        "val_per_class": args.val_per_class, "test_per_class": args.test_per_class}}, args)


def _cmd_make_longtail(args) -> int:
    return _write_dataset({"manifest": args.manifest,
                           "pareto": {"n0": args.n0, "ratio": args.imbalance}}, args)


def _write_dataset(section: dict, args) -> int:
    """Read the dataset ``section`` that the flags spell as a config's, then build and save it."""
    with config_values():
        dataset = jsonio.parse_fields(DatasetConfig, section, "dataset")
    manifest = build_dataset(dataset, args.seed)
    save_manifest(manifest, args.out)
    print(f"wrote {len(manifest)} records to {args.out}")
    return 0


def _read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _load_config(path, seed_override):
    raw = _read_config(path)
    if seed_override is not None:
        raw["seed"] = seed_override
    return parse_config(raw)


def _cmd_train(args) -> int:
    config = _load_config(args.config, args.seed)
    out = args.out or config.report_path
    if out is None:
        raise ConfigError("no report path: give --out or set report_path in the config")
    result = run_experiment(config, out_path=out)
    if args.stage1_checkpoint:
        save_checkpoint(result.stage1_model, args.stage1_checkpoint)
    if args.checkpoint:
        save_checkpoint(result.final_classifier, args.checkpoint)
    print(f"wrote report to {out}")
    return 0


def _cmd_stage2(args) -> int:
    config = _load_config(args.config, args.seed)
    with config_values():
        model = load_checkpoint(args.checkpoint)
    if not isinstance(model, ModelState):
        raise ConfigError("stage2 needs a stage-1 model checkpoint")
    manifest = load_manifest(args.manifest)
    _check_fits(model, manifest)
    if config.train.stage2.kind == "none":
        raise ConfigError("config has stage2.kind 'none'; nothing to do")
    check_task(config.train, manifest.task_kind)
    final = apply_stage2(model, manifest, config.train, rng=stage_rngs(config.seed)[2])
    save_checkpoint(final, args.out)
    print(f"wrote stage-2 checkpoint to {args.out}")
    return 0


def _check_fits(classifier, manifest) -> None:
    """Refuse a checkpoint whose class or feature count is not the manifest's."""
    k, d = classifier.num_classes, classifier.feature_dim
    if (k, d) != (manifest.num_classes, manifest.feature_dim):
        raise ConfigError(f"checkpoint has {k} classes over {d} features; the manifest has "
                          f"{manifest.num_classes} over {manifest.feature_dim}")


def _cmd_eval(args) -> int:
    boundaries = None
    if args.boundaries is not None:
        try:
            h, m = (int(v) for v in args.boundaries.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --boundaries {args.boundaries!r}: expected H,M") from exc
        boundaries = (h, m)
    if args.posthoc_tau is not None and not math.isfinite(args.posthoc_tau):
        raise ConfigError(f"--posthoc-tau must be a finite number, got {args.posthoc_tau!r}")
    with config_values():
        classifier = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    _check_fits(classifier, manifest)
    with config_values():
        groups = group_split(manifest.train_distribution(), boundaries)

    if manifest.split_indices(args.split).size == 0:
        raise ConfigError(f"{args.split} split is empty")
    payload: dict = {"split": args.split}
    if args.posthoc_tau is not None:
        if manifest.task_kind != "single":
            raise ConfigError("post-hoc adjustment applies to single-label tasks")
        payload["posthoc_tau"] = args.posthoc_tau
    with config_values():  # e.g. a --posthoc-tau whose logit shift overflows
        report = evaluate_split(classifier, manifest, args.split, groups,
                                posthoc_tau=args.posthoc_tau)
    payload["group_report"] = report.to_dict()
    if report.map is not None:
        payload["map"] = report.map
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args) -> int:
    entries = []
    for path in args.configs:
        raw = _read_config(path)
        name = raw.get("name") or _stem(path)
        entries.append((name, raw))
    rows = run_sweep(entries, parallelism=args.parallelism)
    csv_text = sweep_csv(rows)
    if args.out:
        jsonio.write_atomic(args.out, csv_text)
    sys.stdout.write(csv_text)
    return 1 if any(row["error"] for row in rows) else 0


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _cmd_norms(args) -> int:
    with config_values():
        classifier = load_checkpoint(args.checkpoint)
    if not isinstance(classifier, ModelState):
        raise ConfigError("norms needs a weight-based model checkpoint")
    norms = weight_norms(classifier)
    _emit({"weight_norms": [float(v) for v in norms]}, args.out)
    return 0


def _cmd_gaps(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ConfigError("report must be a JSON object")
    with config_values():  # an empty or malformed history is a bad report
        stats = checkpoint_gaps(report.get("history") or [])
    _emit(stats.to_dict(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
