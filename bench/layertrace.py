"""Outside-in per-layer tracing: timing wrappers installed from the benchmark.

A ``Tracer`` replaces each target function with a wrapper wherever a
``longtail_lab`` module (or class) holds a reference to it, so calls made
through ``from .model import backward`` are seen as well as calls made
through the home module. ``uninstall`` puts every original back.

Spans nest: a span's ``self_s`` is its duration minus the durations of the
traced spans it directly contains. Counters (``encoder_rows``, ``bytes`` ...)
are gathered by hooks on the same calls. A target whose name no longer
exists is reported as absent, and every metric built on it reads ``None``.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "longtail_lab"
MB = 2 ** 20


@dataclass(frozen=True)
class Target:
    """A function to wrap, named ``module.function`` or ``module.Class.method``.

    ``span`` targets are timed; the others only run their hooks. ``pre`` may
    rewrite the arguments; ``post`` sees the result and the call's duration.
    """

    qualname: str
    span: bool = True
    pre: object = None
    post: object = None


def _count_dumps_bytes(tracer, args, kwargs, result, dt):
    tracer.counters["jsonio.dumps.bytes"] += len(result.encode("utf-8"))


def _count_saved_bytes(tracer, args, kwargs, result, dt):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["manifest.save_manifest.bytes"] += os.path.getsize(path)


def _count_loaded_records(tracer, args, kwargs, result, dt):
    tracer.counters["manifest.load_manifest.records"] += len(result)


def _count_stage2_encoder_rows(tracer, args, kwargs, result, dt):
    model, x = args[0], args[1]
    if tracer.active("training.apply_stage2") and model.encoder_w is not None:
        tracer.counters["training.apply_stage2.encoder_rows"] += int(x.shape[0])


def _count_ncm_encoder_rows(tracer, args, kwargs, result, dt):
    model, manifest = args[0], args[1]
    if tracer.active("training.apply_stage2") and model.encoder_w is not None:
        rows = int(manifest.split_indices("train").size)
        tracer.counters["training.apply_stage2.encoder_rows"] += rows


def _count_backward_elements(tracer, args, kwargs, result, dt):
    tracer.counters["model.backward.grad_elements"] += sum(np.size(g) for g in result.values())


def _wrap_grad_fn(tracer, args, kwargs):
    """sam_step(optimizer, params, grad_fn): count the gradient elements kept."""
    optimizer, params, grad_fn = args

    def counting_grad_fn(p):
        value, grads = grad_fn(p)
        tracer.counters["model.backward.kept_elements"] += sum(np.size(g) for g in grads.values())
        return value, grads

    return (optimizer, params, counting_grad_fn), kwargs


def _count_eval_in_stage1(tracer, args, kwargs, result, dt):
    if tracer.active("training.train_stage1"):
        tracer.counters["training.train_stage1.eval_s"] += dt


TARGETS = (
    Target("harness.run_sweep"),
    Target("harness.run_experiment"),
    Target("harness.build_dataset"),
    Target("manifest.save_manifest", post=_count_saved_bytes),
    Target("manifest.load_manifest", post=_count_loaded_records),
    Target("jsonio.dumps", post=_count_dumps_bytes),
    Target("training.train_stage1"),
    Target("training.apply_stage2"),
    Target("training.stage2_ncm", span=False, post=_count_ncm_encoder_rows),
    Target("training.evaluate_split", post=_count_eval_in_stage1),
    Target("model.forward_with_cache", post=_count_stage2_encoder_rows),
    Target("model.backward", post=_count_backward_elements),
    Target("model.decision_scores"),
    Target("losses.batch_loss_and_grad"),
    Target("losses.draw_noise"),
    Target("optim.sam_step", span=False, pre=_wrap_grad_fn),
    Target("optim.Optimizer.step"),
    Target("samplers.BatchSampler.next_batch"),
    Target("samplers.mixup_batch"),
    Target("metrics.group_report"),
    Target("metrics.average_precision_per_label"),
    Target("metrics.checkpoint_gaps"),
)

COUNTERS = ("jsonio.dumps.bytes", "manifest.save_manifest.bytes",
            "manifest.load_manifest.records", "training.apply_stage2.encoder_rows",
            "model.backward.grad_elements", "model.backward.kept_elements",
            "training.train_stage1.eval_s")


def _ratio(num, den):
    return num / den if den else 0.0


# (metric name, unit, better, targets it reads, value from a finished Tracer).
# A metric whose targets are all present always reads a number.
PER_LAYER = [
    ("manifest.save_manifest.s", "s", "lower", ("manifest.save_manifest",),
     lambda t: t.stats["manifest.save_manifest"]["s"]),
    ("manifest.save_manifest.mb_per_s", "MB/s", "higher", ("manifest.save_manifest",),
     lambda t: _ratio(t.counters["manifest.save_manifest.bytes"] / MB,
                      t.stats["manifest.save_manifest"]["s"])),
    ("jsonio.dumps.calls", "count", "lower", ("jsonio.dumps",),
     lambda t: t.stats["jsonio.dumps"]["calls"]),
    ("jsonio.dumps.s", "s", "lower", ("jsonio.dumps",),
     lambda t: t.stats["jsonio.dumps"]["s"]),
    ("jsonio.dumps.bytes", "bytes", "lower", ("jsonio.dumps",),
     lambda t: t.counters["jsonio.dumps.bytes"]),
    ("manifest.load_manifest.s", "s", "lower", ("manifest.load_manifest",),
     lambda t: t.stats["manifest.load_manifest"]["s"]),
    ("manifest.load_manifest.records_per_s", "1/s", "higher", ("manifest.load_manifest",),
     lambda t: _ratio(t.counters["manifest.load_manifest.records"],
                      t.stats["manifest.load_manifest"]["s"])),
    ("training.apply_stage2.s", "s", "lower", ("training.apply_stage2",),
     lambda t: t.stats["training.apply_stage2"]["s"]),
    ("training.apply_stage2.self_s", "s", "lower", ("training.apply_stage2",),
     lambda t: t.stats["training.apply_stage2"]["self_s"]),
    ("training.apply_stage2.encoder_rows", "count", "lower",
     ("training.apply_stage2", "training.stage2_ncm", "model.forward_with_cache"),
     lambda t: t.counters["training.apply_stage2.encoder_rows"]),
    ("model.forward_with_cache.calls", "count", "lower", ("model.forward_with_cache",),
     lambda t: t.stats["model.forward_with_cache"]["calls"]),
    ("model.forward_with_cache.s", "s", "lower", ("model.forward_with_cache",),
     lambda t: t.stats["model.forward_with_cache"]["s"]),
    ("model.backward.calls", "count", "lower", ("model.backward",),
     lambda t: t.stats["model.backward"]["calls"]),
    ("model.backward.s", "s", "lower", ("model.backward",),
     lambda t: t.stats["model.backward"]["s"]),
    ("model.backward.kept_grad_share", "ratio", "higher", ("model.backward", "optim.sam_step"),
     lambda t: _ratio(t.counters["model.backward.kept_elements"],
                      t.counters["model.backward.grad_elements"])),
    ("model.decision_scores.calls", "count", "lower", ("model.decision_scores",),
     lambda t: t.stats["model.decision_scores"]["calls"]),
    ("model.decision_scores.s", "s", "lower", ("model.decision_scores",),
     lambda t: t.stats["model.decision_scores"]["s"]),
    ("losses.batch_loss_and_grad.calls", "count", "lower", ("losses.batch_loss_and_grad",),
     lambda t: t.stats["losses.batch_loss_and_grad"]["calls"]),
    ("losses.batch_loss_and_grad.s", "s", "lower", ("losses.batch_loss_and_grad",),
     lambda t: t.stats["losses.batch_loss_and_grad"]["s"]),
    ("losses.draw_noise.s", "s", "lower", ("losses.draw_noise",),
     lambda t: t.stats["losses.draw_noise"]["s"]),
    ("optim.Optimizer.step.calls", "count", "lower", ("optim.Optimizer.step",),
     lambda t: t.stats["optim.Optimizer.step"]["calls"]),
    ("optim.Optimizer.step.s", "s", "lower", ("optim.Optimizer.step",),
     lambda t: t.stats["optim.Optimizer.step"]["s"]),
    ("samplers.BatchSampler.next_batch.calls", "count", "lower",
     ("samplers.BatchSampler.next_batch",),
     lambda t: t.stats["samplers.BatchSampler.next_batch"]["calls"]),
    ("samplers.BatchSampler.next_batch.s", "s", "lower", ("samplers.BatchSampler.next_batch",),
     lambda t: t.stats["samplers.BatchSampler.next_batch"]["s"]),
    ("samplers.mixup_batch.s", "s", "lower", ("samplers.mixup_batch",),
     lambda t: t.stats["samplers.mixup_batch"]["s"]),
    ("training.train_stage1.self_s", "s", "lower", ("training.train_stage1",),
     lambda t: t.stats["training.train_stage1"]["self_s"]),
    ("training.evaluate_split.calls", "count", "lower", ("training.evaluate_split",),
     lambda t: t.stats["training.evaluate_split"]["calls"]),
    ("training.evaluate_split.s", "s", "lower", ("training.evaluate_split",),
     lambda t: t.stats["training.evaluate_split"]["s"]),
    ("training.eval_share", "ratio", "lower", ("training.evaluate_split", "training.train_stage1"),
     lambda t: _ratio(t.counters["training.train_stage1.eval_s"],
                      t.stats["training.train_stage1"]["s"])),
    ("metrics.group_report.calls", "count", "lower", ("metrics.group_report",),
     lambda t: t.stats["metrics.group_report"]["calls"]),
    ("metrics.group_report.s", "s", "lower", ("metrics.group_report",),
     lambda t: t.stats["metrics.group_report"]["s"]),
    ("metrics.average_precision_per_label.calls", "count", "lower",
     ("metrics.average_precision_per_label",),
     lambda t: t.stats["metrics.average_precision_per_label"]["calls"]),
    ("metrics.average_precision_per_label.s", "s", "lower",
     ("metrics.average_precision_per_label",),
     lambda t: t.stats["metrics.average_precision_per_label"]["s"]),
    ("harness.run_experiment.calls", "count", "lower", ("harness.run_experiment",),
     lambda t: t.stats["harness.run_experiment"]["calls"]),
    ("harness.run_experiment.s", "s", "lower", ("harness.run_experiment",),
     lambda t: t.stats["harness.run_experiment"]["s"]),
    ("harness.build_dataset.s", "s", "lower", ("harness.build_dataset",),
     lambda t: t.stats["harness.build_dataset"]["s"]),
    ("harness.run_sweep.self_s", "s", "lower", ("harness.run_sweep",),
     lambda t: t.stats["harness.run_sweep"]["self_s"]),
    ("metrics.checkpoint_gaps.s", "s", "lower", ("metrics.checkpoint_gaps",),
     lambda t: t.stats["metrics.checkpoint_gaps"]["s"]),
]

# Metrics that count work: they must repeat exactly from one pass to the next.
EXACT = tuple(name for name, unit, *_ in PER_LAYER if unit in ("count", "bytes")) + (
    "model.backward.kept_grad_share",)


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them again."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # per open span: [seconds in traced children]
        self._depth: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.stats = {t.qualname: {"calls": 0, "s": 0.0, "self_s": 0.0}
                      for t in self.targets if t.span}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def active(self, qualname: str) -> bool:
        return self._depth.get(qualname, 0) > 0

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            owner, attr = _resolve(target.qualname)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(target.qualname)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _wrap(self, target: Target, fn):
        qualname, span, pre, post = target.qualname, target.span, target.pre, target.post
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            depth[qualname] = depth.get(qualname, 0) + 1
            frame = [0.0]
            if span:
                stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                depth[qualname] -= 1
                if span:
                    stack.pop()
                    s = tracer.stats[qualname]
                    s["calls"] += 1
                    s["s"] += dt
                    s["self_s"] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
            if post is not None:
                post(tracer, args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def per_layer(self) -> dict:
        """Every per-layer metric: its value, or None when a target it reads is absent."""
        out = {}
        for name, unit, _better, needs, value in PER_LAYER:
            missing = any(q in self.absent for q in needs)
            out[name] = {"value": None if missing else float(value(self)), "unit": unit}
        return out


def _resolve(qualname: str):
    """(owner, attribute) for ``module.attr`` or ``module.Class.attr``; owner None if gone."""
    parts = qualname.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None, parts[-1]
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1]
    return owner, parts[-1]
