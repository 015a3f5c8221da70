"""Self-test of the benchmark at tiny sizes: names, units and correctness checks.

    python3 bench/selftest.py

It checks that every workload, with tracing off and on, prints every metric
that BENCHMARK.json names, with its unit, and passes its correctness checks;
that the checks do catch a wrong output; and that a traced target that no
longer exists is reported as absent. It sets no timing bounds. Seed 1 was
used while the benchmark was built; seed 90210 was not.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import longtail_lab  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 90210)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"python", "numpy", "blas", "blas_threads", "nproc", "seed", "source_sha256",
            "git_sha"}


def _expected_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_runs() -> list[str]:
    """Every workload, traced and untraced, on both seeds."""
    end_to_end, per_layer = _expected_metrics()
    per_layer_code = {name: unit for name, unit, *_ in layertrace.PER_LAYER}
    problems = [] if per_layer_code == per_layer else [
        "per-layer metrics in layertrace.PER_LAYER differ from BENCHMARK.json"]
    if run.WORKLOADS != workloads.WORKLOADS:
        problems.append("run.WORKLOADS differs from workloads.WORKLOADS")
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                where = f"{workload} seed={seed} trace={trace}"
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
                    capture_output=True, text=True, cwd=str(ROOT), timeout=170)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                detail, result = json.loads(lines[-2]), json.loads(lines[-1])
                want = per_layer if trace else end_to_end
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if set(result) != RESULT_KEYS:
                    problems.append(f"{where}: result keys {sorted(result)}")
                if got != want:
                    problems.append(f"{where}: metrics/units differ: {sorted(set(got) ^ set(want))}")
                if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                    problems.append(f"{where}: a metric has no numeric value")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                    problems.append(f"{where}: not correct: {detail['failures']}")
                if detail["error_rate"] != {"value": 0.0, "unit": "ratio"}:
                    problems.append(f"{where}: error_rate {detail['error_rate']}")
                if set(detail["env"]) != ENV_KEYS or detail["env"]["seed"] != seed:
                    problems.append(f"{where}: environment block {detail['env']}")
                if len(detail["sha256"]) != 64:
                    problems.append(f"{where}: no output sha256")
                if trace and (detail["absent_targets"] or not detail["counts_repeat"]):
                    problems.append(f"{where}: absent targets or counts that do not repeat")
    return problems


def check_checks() -> list[str]:
    """Each correctness check rejects a deliberately wrong output."""
    problems = []
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as workdir:
        inputs = workloads.BUILD["multilabel_io"](SEEDS[0], True, workdir)
        units = [step() for step in workloads.STEPS["multilabel_io"](inputs)]
        if workloads.CHECK["multilabel_io"](inputs, units):
            problems.append("multilabel_io checks fail on a correct run")
        tampered = [workloads.Unit(u.name, u.output + b" ", None, u.avg, u.tail) for u in units]
        if len(worker.compare_units(units, tampered)) != len(units):
            problems.append("changed report bytes were not caught")
        saved = inputs["manifest"]
        saved.features[0, 0] = np.nextafter(saved.features[0, 0], np.inf)
        if not any("bitwise" in f for f in workloads.CHECK["multilabel_io"](inputs, units)):
            problems.append("a one-ulp feature change after save was not caught")

    sweep = workloads.BUILD["desk_sweep"](SEEDS[0], True, "")
    sweep["entries"] = sweep["entries"][:2]
    units = [step() for step in workloads.STEPS["desk_sweep"](sweep)]
    row = json.loads(units[0].output)
    row["avg"] += 1.0
    bad = [workloads.Unit(units[0].name, json.dumps(row).encode(), None, row["avg"], row["tail"]),
           units[1]]
    if not workloads.CHECK["desk_sweep"](sweep, bad):
        problems.append("a row whose avg is not the mean of its groups was not caught")
    errored = [workloads.Unit(units[0].name, units[0].output, "ValueError: x", None, None)]
    if worker.compare_units(units[:1], errored) == []:
        problems.append("a row error was not counted")
    return problems


def check_absent_target() -> list[str]:
    """A traced function that has moved is reported absent, not as 0."""
    original = longtail_lab.metrics.checkpoint_gaps
    del longtail_lab.metrics.checkpoint_gaps
    try:
        with layertrace.Tracer() as tracer:
            values = tracer.per_layer()
    finally:
        longtail_lab.metrics.checkpoint_gaps = original
    problems = []
    if tracer.absent != ["metrics.checkpoint_gaps"]:
        problems.append(f"absent targets {tracer.absent}")
    if values["metrics.checkpoint_gaps.s"]["value"] is not None:
        problems.append("an absent target reported a number")
    if longtail_lab.harness.checkpoint_gaps is not original:
        problems.append("uninstall did not restore the original function")
    return problems


def main() -> int:
    warnings.simplefilter("ignore")
    problems = check_checks() + check_absent_target() + check_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
