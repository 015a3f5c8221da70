"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import longtail_lab
from longtail_lab import (BatchSampler, LossSpec, OptimizerSpec, SamplerSpec, Stage2Spec,
                          TrainConfig, apply_stage2, average_precision_per_label,
                          compute_distribution, distribution_from_counts,
                          gaps_from_series, group_report_from_values, group_split,
                          pareto_targets, parse_config, run_experiment, run_sweep,
                          subsample_longtail, sweep_csv, synth_gaussian, tau_normalize,
                          train_stage1, weight_norms)
from longtail_lab.losses import LOSS_KINDS, MULTI_LABEL_KINDS

from conftest import blob_manifest, row_loss

SGD = OptimizerSpec("sgd", lr=0.05)


def _criterion(num, description, ok, detail=""):
    print(f"\n[criterion {num:02d}] {description}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


# -- criterion 1: gradient suite ------------------------------------------------

def _central_difference(f, z, h=1e-5):
    grad = np.zeros_like(z)
    for j in range(z.size):
        step = np.zeros_like(z)
        step[j] = h
        grad[j] = (f(z + step) - f(z - step)) / (2 * h)
    return grad


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    for ki, kind in enumerate(LOSS_KINDS):
        spec = LossSpec(kind)
        for i in range(20):
            rng = np.random.default_rng([1, ki, i])
            k = int(rng.choice([2, 5, 10]))
            dist = distribution_from_counts(rng.integers(1, 1000, size=k))
            z = rng.standard_normal(k)
            target = (rng.integers(0, 2, size=k) if kind in MULTI_LABEL_KINDS
                      else int(rng.integers(k)))
            noise_seed = int(rng.integers(2 ** 32))
            analytic = row_loss(spec, z, target, dist, seed=noise_seed)[1]
            numeric = _central_difference(
                lambda zz: row_loss(spec, zz, target, dist, seed=noise_seed)[0], z)
            # unit floor in the denominator: the h=1e-5 central difference carries
            # |f|*eps/h ~ 1e-9 of roundoff, which swamps any stricter ratio when a
            # saturated instance drives the true gradient toward zero
            scale = max(np.abs(numeric).max(), 1.0)
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
    elapsed = time.time() - start
    _criterion(1, "analytic gradients match central differences",
               worst < 1e-5 and elapsed < 5.0,
               f"(max rel err {worst:.2e}, {elapsed:.2f}s over {len(LOSS_KINDS)} kinds x 20)")


# -- criterion 2: degenerate equivalences ---------------------------------------

def test_criterion_2_degenerate_equivalences():
    collapses = [
        LossSpec("focal", gamma=0.0, alpha=1.0),
        LossSpec("cb_ce", beta=0.0),
        LossSpec("logit_adjust", tau=0.0),
        LossSpec("vs", gamma_vs=0.0, tau_vs=0.0),
        LossSpec("seql", seql_q=0.0),
        LossSpec("gcl", gcl_amplitude=0.0),
        LossSpec("label_smooth_lt", eps_head=0.0, eps_tail=0.0),
    ]
    ce = LossSpec("ce")
    worst = 0.0
    rng = np.random.default_rng(2)
    for spec in collapses:
        for i in range(100):
            k = int(rng.choice([2, 5, 10]))
            counts = rng.integers(1, 500, size=k)
            z = rng.standard_normal(k)
            y = int(rng.integers(k))
            dist = distribution_from_counts(counts)
            va, ga = row_loss(spec, z, y, dist, seed=i)
            vb, gb = row_loss(ce, z, y, dist)
            worst = max(worst, abs(va - vb), np.abs(ga - gb).max())
    # balanced softmax under uniform counts
    for i in range(100):
        k = int(rng.choice([2, 5, 10]))
        z = rng.standard_normal(k)
        y = int(rng.integers(k))
        dist = distribution_from_counts([13] * k)
        va = row_loss(LossSpec("balanced_softmax"), z, y, dist)[0]
        vb = row_loss(ce, z, y, dist)[0]
        worst = max(worst, abs(va - vb))
    # prior_ce is balanced_softmax, everywhere
    for i in range(100):
        k = int(rng.choice([2, 5, 10]))
        counts = rng.integers(1, 500, size=k)
        dist = distribution_from_counts(counts)
        z = rng.standard_normal(k)
        y = int(rng.integers(k))
        va, ga = row_loss(LossSpec("prior_ce"), z, y, dist)
        vb, gb = row_loss(LossSpec("balanced_softmax"), z, y, dist)
        worst = max(worst, abs(va - vb), np.abs(ga - gb).max())
    _criterion(2, "degenerate kinds equal plain cross-entropy", worst < 1e-12,
               f"(max deviation {worst:.2e})")


# -- criterion 3: Pareto construction -------------------------------------------

def test_criterion_3_pareto_construction():
    exact = pareto_targets(1000, 3, 100).tolist() == [1000, 100, 10]
    rng = np.random.default_rng(3)
    monotone = True
    for _ in range(1000):
        n0 = int(rng.integers(1, 100000))
        k = int(rng.integers(2, 40))
        r = float(rng.uniform(1.0, 1000.0))
        targets = pareto_targets(n0, k, r)
        monotone &= bool((np.diff(targets) <= 0).all()) and int(targets[-1]) >= 1
    manifest = blob_manifest([50, 50, 50])
    out = subsample_longtail(manifest, [50, 5, 1], seed=0)
    counts = compute_distribution(out.labels[out.split_indices("train")], 3).counts
    subsample_ok = counts.tolist() == [50, 5, 1]
    _criterion(3, "Pareto targets exact, monotone, and subsampling honours them",
               exact and monotone and subsample_ok)


# -- criterion 4: group protocol arithmetic -------------------------------------

def test_criterion_4_group_protocol_average():
    dist = distribution_from_counts([800, 700, 600, 500, 400, 300, 200, 100])
    split = group_split(dist, (2, 5))
    per_class = np.array([79.00, 79.00, 60.67, 60.67, 60.67, 38.33, 38.33, 38.33])
    report = group_report_from_values(per_class, split)
    ok = (abs(report.head - 79.00) < 0.005 and abs(report.medium - 60.67) < 0.005
          and abs(report.tail - 38.33) < 0.005 and abs(report.average - 59.33) < 0.005)
    _criterion(4, "group values (79.00, 60.67, 38.33) average to 59.33", ok,
               f"(average {report.average:.4f})")


# -- criterion 5: sampler distribution ------------------------------------------

def test_criterion_5_class_balanced_sampler():
    manifest = blob_manifest([99, 1], feature_dim=2, val_per_class=1, test_per_class=1)
    sampler = BatchSampler(SamplerSpec("class_balanced"), manifest)
    rng = np.random.default_rng(5)
    counts = np.zeros(2)
    for indices in sampler.draw(100, 1000, rng):
        _, labels = sampler.next_batch(indices)
        counts += np.bincount(labels, minlength=2)
    freq = counts / counts.sum()
    deviation = np.abs(freq - 0.5).max()
    _criterion(5, "class-balanced draws are uniform over classes", deviation <= 0.01,
               f"(deviation {deviation:.4f} over 1e5 draws)")


# -- criterion 6: mAP matches a brute-force oracle -------------------------------

def _ap_bruteforce(scores, truth):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if truth[i]:
            hits += 1
            total += hits / rank
    return total / hits


def test_criterion_6_map_bruteforce_equality():
    rng = np.random.default_rng(6)
    worst = 0.0
    compared = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        scores = rng.random((n, k))
        for label in range(k):
            column = scores[:, label:label + 1]
            for bits in range(1, 2 ** n):  # every non-empty truth assignment
                truth = np.array([(bits >> i) & 1 for i in range(n)]).reshape(n, 1)
                ap = average_precision_per_label(column, truth)[0]
                worst = max(worst, abs(ap - _ap_bruteforce(column[:, 0], truth[:, 0])))
                compared += 1
    _criterion(6, "average precision equals exhaustive oracle", worst <= 1e-12,
               f"(max deviation {worst:.2e} over {compared} assignments)")


# -- criterion 7: tau normalization ----------------------------------------------

def test_criterion_7_tau_normalization():
    rng = np.random.default_rng(7)
    from longtail_lab import ModelState

    model = ModelState(cls_w=rng.standard_normal((6, 9)), cls_b=rng.standard_normal(6))
    unit = tau_normalize(model, 1.0)
    norms = weight_norms(unit)
    identity = tau_normalize(model, 0.0)
    ok = (np.abs(norms - 1.0).max() <= 1e-12
          and np.array_equal(identity.cls_w, model.cls_w)
          and np.array_equal(identity.cls_b, np.zeros(6)))
    _criterion(7, "tau-norm gives unit rows at tau=1 and identity weights at tau=0", ok,
               f"(max |norm-1| {np.abs(norms - 1.0).max():.2e})")


# -- criteria 8 and 9: qualitative trends at desk scale --------------------------

@pytest.fixture(scope="module")
def trend_runs():
    start = time.time()
    final_reports = {"erm": [], "rs": [], "bs": []}
    erm_models = []
    recipes = (("erm", "ce", "original"), ("rs", "ce", "class_balanced"),
               ("bs", "balanced_softmax", "original"))
    for seed in range(5):
        manifest = synth_gaussian(10, 16, 1000, 100, class_separation=3.0, seed=seed)
        dist = manifest.train_distribution()
        groups = group_split(dist, (3, 7))
        for name, loss, sampler in recipes:
            config = TrainConfig(epochs=30, batch_size=64, seed=seed,
                                 loss=LossSpec(loss), sampler=SamplerSpec(sampler),
                                 optimizer=SGD)
            model, history = train_stage1(manifest, config,
                                          rng=np.random.default_rng(seed), groups=groups)
            final_reports[name].append(history.records[-1].test)
            if name == "erm":
                erm_models.append((model, manifest, config, dist))
    return final_reports, erm_models, time.time() - start


def test_criterion_8_table_trend(trend_runs):
    reports, _, elapsed = trend_runs
    tail_lowest = sum(r.tail <= min(r.head, r.medium) for r in reports["erm"])
    erm_tail = np.mean([r.tail for r in reports["erm"]])
    erm_head = np.mean([r.head for r in reports["erm"]])
    gains, drops = {}, {}
    for name in ("rs", "bs"):
        gains[name] = np.mean([r.tail for r in reports[name]]) - erm_tail
        drops[name] = erm_head - np.mean([r.head for r in reports[name]])
    rebalanced_ok = any(gains[n] >= 10.0 and drops[n] <= 20.0 for n in ("rs", "bs"))
    ok = tail_lowest >= 4 and rebalanced_ok and elapsed < 120.0
    _criterion(8, "re-balancing lifts tail accuracy at bounded head cost", ok,
               f"(ERM tail lowest {tail_lowest}/5; tail gain rs {gains['rs']:+.1f} "
               f"bs {gains['bs']:+.1f}; head drop rs {drops['rs']:+.1f} "
               f"bs {drops['bs']:+.1f}; {elapsed:.0f}s)")


def test_criterion_9_weight_norm_trend(trend_runs):
    _, erm_models, _ = trend_runs
    correlations = []
    cv_drops_tau, cv_drops_crt = [], []
    for seed, (model, manifest, config, dist) in enumerate(erm_models):
        norms = weight_norms(model)
        correlations.append(np.corrcoef(np.log(dist.counts), norms)[0, 1])
        cv_stage1 = norms.std() / norms.mean()
        unit = weight_norms(tau_normalize(model, 1.0))
        cv_drops_tau.append((unit.std() / unit.mean()) < cv_stage1)
        crt = apply_stage2(model, manifest, replace(config, stage2=Stage2Spec("crt")),
                           np.random.default_rng(seed + 500))
        crt_norms = weight_norms(crt)
        cv_drops_crt.append((crt_norms.std() / crt_norms.mean()) < cv_stage1)
    mean_corr = float(np.mean(correlations))
    ok = mean_corr > 0.5 and all(cv_drops_tau)
    _criterion(9, "head classes grow larger norms; stage 2 flattens them", ok,
               f"(corr {mean_corr:.3f}; tau-norm CV drop {sum(cv_drops_tau)}/5, "
               f"cRT CV drop {sum(cv_drops_crt)}/5)")


# -- criterion 10: checkpoint-gap analyzer ---------------------------------------

def test_criterion_10_checkpoint_gaps():
    stats = gaps_from_series([60, 70, 65], [55, 68, 66])
    hand_ok = stats.gap_best == 0.0 and stats.gap_final == 2.0
    rng = np.random.default_rng(10)
    non_negative = True
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        non_negative &= gaps_from_series(rng.random(n), rng.random(n)).gap_best >= 0.0
    _criterion(10, "gap analyzer exact on the hand case and gap_best >= 0",
               hand_ok and non_negative,
               f"(gap_best {stats.gap_best}, gap_final {stats.gap_final})")


# -- criteria 11 and 12: determinism ----------------------------------------------

def _determinism_config(seed=0, sam_rho=None, loss="ce"):
    raw = {
        "seed": seed,
        "dataset": {
            "synth": {"num_classes": 5, "feature_dim": 8, "n0": 150, "ratio": 50.0,
                      "val_per_class": 20, "test_per_class": 20},
            "group_boundaries": [1, 3],
        },
        "train": {
            "epochs": 10,
            "batch_size": 32,
            "loss": {"kind": loss},
            "optimizer": {"kind": "sgd", "lr": 0.05},
        },
    }
    if sam_rho is not None:
        raw["train"]["optimizer"].update(sam=True, sam_rho=sam_rho)
    return raw


def test_criterion_11_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        run_experiment(parse_config(_determinism_config()), out_path=path)
    reports_identical = paths[0].read_bytes() == paths[1].read_bytes()

    entries = [(kind, {**_determinism_config(), "name": kind,
                       "train": {**_determinism_config()["train"],
                                 "loss": {"kind": kind}}})
               for kind in ("ce", "balanced_softmax", "weighted_softmax")]
    serial = sweep_csv(run_sweep(entries, parallelism=1))
    parallel = sweep_csv(run_sweep(entries, parallelism=3))
    _criterion(11, "reports byte-identical across reruns and sweep parallelism",
               reports_identical and serial == parallel)


def test_criterion_11_determinism_across_hash_seeds(tmp_path):
    """`train` on a SAM + cRT config writes the same report bytes under two string-hash seeds."""
    raw = _determinism_config(seed=3, sam_rho=0.05)
    raw["train"].update(epochs=4, stage2={"kind": "crt", "epochs": 2})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(longtail_lab.__file__))
    reports = []
    for hash_seed in ("0", "1"):
        report = tmp_path / f"report-{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", "import sys; from longtail_lab.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "train", "--config", str(config_path),
                        "--out", str(report)], env=env, check=True, capture_output=True)
        reports.append(report.read_bytes())
    _criterion(11, "reports byte-identical across interpreter hash seeds",
               reports[0] == reports[1])


def test_criterion_12_sam_collapse():
    results = []
    for sam_rho in (None, 0.0):
        config = parse_config(_determinism_config(seed=12, sam_rho=sam_rho))
        results.append(run_experiment(config))
    plain, sam0 = results
    params_equal = (
        np.array_equal(plain.stage1_model.cls_w, sam0.stage1_model.cls_w)
        and np.array_equal(plain.stage1_model.cls_b, sam0.stage1_model.cls_b))
    from longtail_lab import jsonio

    histories_equal = (jsonio.dumps(plain.history.to_dict())
                       == jsonio.dumps(sam0.history.to_dict()))
    _criterion(12, "sam with rho=0 reproduces the inner optimizer bit-for-bit",
               params_equal and histories_equal)
