"""One benchmark process: import the lab, build a workload's inputs, run timed passes.

Started by ``run.py``, never by hand. It prints ``ready`` once the inputs are
built (the parent times process start to that line as set-up), then a
host-speed factor from the calibration kernel. Unless ``--setup-only``, it
then runs one reference pass and timed passes for ``--seconds``, and prints
one JSON line with the times, the per-layer trace, the correctness results
and its peak resident memory.

Calibration: the host is shared, and other tenants slow everything down by up
to about 1.6x for tens of seconds at a time, which no estimator over raw
times removes. So a short fixed kernel (``calibrate``) runs between steps,
each step's time is divided by the mean of the kernel times on either side
of it, and ``wall_s`` is the sum over steps of the median of that ratio,
times ``CAL_NOMINAL_S``: the pass's wall time at the host speed where the
kernel takes ``CAL_NOMINAL_S``. Traced layer times are scaled the same way,
pass by pass. Raw times are kept in the detail record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # untraced passes in a --trace 0 run, the reference included
MIN_TRACED_PASSES = 2   # traced passes in a --trace 1 run
CAL_NOMINAL_S = 0.005   # about the kernel's time on an idle 2.1 GHz Xeon vCPU, 1 BLAS thread
CAL_SAMPLES = 5         # kernel runs timed after set-up; their median scales set-up

_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8.0


def calibrate() -> float:
    """Seconds for a fixed mix of small matmuls, numpy calls and Python string work."""
    start = time.perf_counter()
    x, acc, parts, n = _CAL_MATRIX, 0.0, [], 0
    for i in range(144):
        x = np.tanh(x @ _CAL_MATRIX)
        acc += float(x[i % 64].sum())
        parts.append(format(acc, ".17g"))
    for i in range(9000):
        n += i * i
    "".join(parts)
    return time.perf_counter() - start


def run_pass(steps) -> tuple[list, list[float], list[float]]:
    """Run every step once: (units, seconds per step, calibrated time per step)."""
    units, seconds, ratios = [], [], []
    before = calibrate()
    for step in steps:
        start = time.perf_counter()
        units.append(step())
        elapsed = time.perf_counter() - start
        after = calibrate()
        seconds.append(elapsed)
        ratios.append(CAL_NOMINAL_S * elapsed / (0.5 * (before + after)))
        before = after
    return units, seconds, ratios


def compare_units(reference, units) -> list[str]:
    """Failures of one pass against the reference pass, one entry per bad unit."""
    if [u.name for u in units] != [u.name for u in reference]:
        return [f"unit names differ: {[u.name for u in units]}"] * max(1, len(units))
    failed = []
    for ref, unit in zip(reference, units):
        if unit.error is not None:
            failed.append(f"{unit.name}: {unit.error}")
        elif unit.output != ref.output:
            failed.append(f"{unit.name}: output differs from the reference pass")
    return failed


def _failed_units(units, failures: list[str]) -> int:
    """Units named by a check's failures; a failure naming no unit fails them all."""
    names = {u.name for u in units}
    named = {f.split(":")[0] for f in failures}
    return len(units) if named - names else len(named)


def _environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "longtail_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "seed": seed,
        "source_sha256": digest.hexdigest(),
    }


def _per_step_sum(passes: list[list[float]], pick) -> float:
    """Sum over steps of ``pick`` (min or median) of that step's values across passes."""
    return sum(pick(column) for column in zip(*passes))


def _at_nominal_speed(per_layer: dict, factor: float) -> dict:
    """Scale a traced pass's layer times (and rates) by its calibration factor."""
    out = {}
    for name, metric in per_layer.items():
        value, unit = metric["value"], metric["unit"]
        if value is not None and unit == "s":
            value *= factor
        elif value is not None and unit.endswith("/s"):
            value /= factor
        out[name] = {"value": value, "unit": unit}
    return out


def _combine_traces(traces: list[dict]) -> tuple[dict, list[str]]:
    """Median of each timed metric; counts must be equal on every traced pass."""
    combined, failures = {}, []
    for name, first in traces[0].items():
        values = [t[name]["value"] for t in traces]
        if first["value"] is None:
            combined[name] = first
        elif name in layertrace.EXACT:
            if len(set(values)) != 1:
                failures.append(f"{name}: count differs between traced passes {values}")
            combined[name] = first
        else:
            combined[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return combined, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")  # label/group warnings from tiny splits are expected
    inputs = workloads.BUILD[args.workload](args.seed, args.tiny, args.workdir)
    print("ready", flush=True)
    # the parent scales the set-up time it measured by this host-speed factor
    print(CAL_NOMINAL_S / statistics.median(calibrate() for _ in range(CAL_SAMPLES)), flush=True)
    if args.setup_only:
        return 0

    steps = workloads.STEPS[args.workload](inputs)
    reference, seconds, ratios = run_pass(steps)
    failures = workloads.CHECK[args.workload](inputs, reference)
    attempted = len(reference)
    failed = _failed_units(reference, failures)
    for unit in reference:
        unit.result = None  # the checks are done; keep memory flat across passes

    tracer = layertrace.Tracer() if args.trace else None
    passes, cal_passes = [seconds], [ratios]
    traced, traced_cal, traces = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        enough = (len(passes) >= MIN_PASSES if tracer is None
                  else len(traced) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
        if tracer is not None and len(traced) < len(passes):
            tracer.reset()
            with tracer:
                units, seconds, ratios = run_pass(steps)
            traced.append(seconds)
            traced_cal.append(ratios)
            traces.append(_at_nominal_speed(tracer.per_layer(), sum(ratios) / sum(seconds)))
        else:
            units, seconds, ratios = run_pass(steps)
            passes.append(seconds)
            cal_passes.append(ratios)
        pass_failures = compare_units(reference, units)
        attempted += len(units)
        failed += len(pass_failures)
        failures += pass_failures

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "wall_s": _per_step_sum(cal_passes, statistics.median),
        "raw_wall_s": _per_step_sum(passes, min),
        "pass_s": [sum(p) for p in passes],
        "avg_acc": statistics.fmean(u.avg for u in reference if u.avg is not None),
        "tail_acc": statistics.fmean(u.tail for u in reference if u.tail is not None),
        "sha256": workloads.outputs_digest(reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(args.seed),
    }
    if tracer is not None:
        per_layer, count_failures = _combine_traces(traces)
        result.update(per_layer=per_layer, absent_targets=tracer.absent,
                      traced_wall_s=_per_step_sum(traced_cal, statistics.median),
                      traced_pass_s=[sum(p) for p in traced],
                      traced_cal_pass_s=[sum(p) for p in traced_cal],
                      counts_repeat=not count_failures)
        result["failures"] += count_failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
