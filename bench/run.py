"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout of it). Each run starts fresh
worker processes with the BLAS thread count pinned: a few that only set up,
to time set-up, and one that runs the workload's timed passes. The last
stdout line is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The line before it is a detail record: environment, output
sha256, error rate, every sample, tracing overhead and per-layer shares.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("desk_sweep", "mid_stage2", "multilabel_io")
BLAS_THREADS = 1        # pinned below nproc on a shared 2-core box; recorded in env
SETUP_SAMPLES = 7       # processes timed from start to ready; setup_s is their median
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _start_worker(args, workdir: str, setup_only: bool):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (printed {line!r})")
        speed = float(proc.stdout.readline())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s, speed


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def measure(args, workdir: str) -> tuple[dict, dict]:
    """Run the workers; return (contract result, detail record)."""
    setup, speeds = [], []
    for _ in range(SETUP_SAMPLES - 1 if not args.tiny else 1):
        proc, setup_s, speed = _start_worker(args, workdir, setup_only=True)
        _finish(proc, SETUP_TIMEOUT_S)
        setup.append(setup_s)
        speeds.append(speed)
    proc, setup_s, speed = _start_worker(args, workdir, setup_only=False)
    setup.append(setup_s)
    speeds.append(speed)
    worker = json.loads(_finish(proc, RUN_TIMEOUT_S).strip().splitlines()[-1])
    calibrated_setup = [s * f for s, f in zip(setup, speeds)]

    if args.trace:
        metrics = worker["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(calibrated_setup), "unit": "s"},
            "wall_s": {"value": worker["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "avg_acc": {"value": worker["avg_acc"], "unit": "%"},
            "tail_acc": {"value": worker["tail_acc"], "unit": "%"},
        }
    correct = worker["failed"] == 0 and not worker["failures"]
    result = {"correct": correct, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}

    detail = {
        "workload": args.workload,
        "env": {**worker["env"], "git_sha": _git_sha()},
        "sha256": worker["sha256"],
        "error_rate": {"value": worker["failed"] / worker["attempted"], "unit": "ratio"},
        "failures": worker["failures"],
        "setup_s_samples": calibrated_setup,
        "raw_setup_s_samples": setup,
        "wall_s": worker["wall_s"],
        "raw_wall_s": worker["raw_wall_s"],
        "raw_pass_s_samples": worker["pass_s"],
    }
    if args.trace:
        traced = worker["traced_wall_s"]
        detail.update(
            traced_wall_s=traced,
            raw_traced_pass_s_samples=worker["traced_pass_s"],
            trace_overhead_s=traced - worker["wall_s"],
            absent_targets=worker["absent_targets"],
            counts_repeat=worker["counts_repeat"],
            # layer times are calibrated medians over traced passes: divide alike
            shares={name: m["value"] / statistics.median(worker["traced_cal_pass_s"])
                    for name, m in metrics.items()
                    if m["unit"] == "s" and m["value"] is not None},
        )
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: checks names and correctness, not timing")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "longtail_lab" / "__init__.py").is_file():
        print(f"bench: no longtail_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A fixed relative path keeps configs, and so report bytes, equal across checkouts.
    scratch = ROOT / ".bench_tmp"
    workdir = Path(".bench_tmp") / args.workload
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    try:
        result, detail = measure(args, str(workdir))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
