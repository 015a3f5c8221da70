import functools
import json
import operator
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longtail_lab import (LOSS_KINDS, ConfigError, LossSpec, NcmClassifier,
                          average_precision_per_label, build_dataset, decision_scores,
                          evaluate_split, group_split, init_model, jsonio, load_checkpoint,
                          load_manifest, optim, parse_config,
                          run_experiment, run_sweep, save_checkpoint, save_manifest, sweep_csv)
from longtail_lab.harness import sweep_workers
from longtail_lab.model import MAX_HIDDEN_DIM
from longtail_lab.samplers import SAMPLER_KINDS
from longtail_lab.training import MAX_BATCH_SIZE, STAGE2_KINDS
from longtail_lab.cli import main

from conftest import blob_manifest, multilabel_manifest


def small_config(**overrides):
    raw = {
        "seed": 0,
        "dataset": {
            "synth": {"num_classes": 5, "feature_dim": 8, "n0": 120, "ratio": 40.0,
                      "val_per_class": 20, "test_per_class": 20},
            "group_boundaries": [1, 3],
        },
        "train": {
            "epochs": 4,
            "batch_size": 32,
            "loss": {"kind": "ce"},
            "optimizer": {"kind": "sgd", "lr": 0.05},
        },
    }
    raw.update(overrides)
    return raw


TASK_MISMATCH = "does not match task|requires single-label data"
REMOVED = object()  # a checkpoint fault that deletes the entry


def count_optimizer_steps(monkeypatch) -> list:
    """A list that grows by one on every optimizer step from now on."""
    steps = []
    step = optim.Optimizer.step

    def counting_step(self, *args, **kwargs):
        steps.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(optim.Optimizer, "step", counting_step)
    return steps


def count_calls(monkeypatch, func) -> list:
    """A list that grows by one on every call of ``func`` through any lab module from now on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "longtail_lab" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return calls


def multilabel_config(manifest_path, **train) -> dict:
    return {"seed": 1, "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 2]},
            "train": {"epochs": 3, "batch_size": 16, "loss": {"kind": "bce_ml"},
                      "optimizer": {"kind": "sgd", "lr": 0.05}, **train}}


def unscorable_manifest(fault: str):
    """A manifest, grouped by boundaries (1, 2), whose val or test split cannot be scored."""
    if fault == "multi-no-val-positive":
        manifest = multilabel_manifest(n=60)
        manifest.labels[manifest.split_indices("val"), 2] = 0
        return manifest
    manifest = blob_manifest([60, 30, 10])
    if fault == "no-val":
        drop = manifest.splits == "val"
    else:  # the tail class has no test record
        drop = (manifest.splits == "test") & (manifest.labels == 2)
    return manifest.subset(np.flatnonzero(~drop))


UNSCORABLE = {"no-val": "val split is empty",
              "no-tail-test": "every class in group 'tail' has zero evaluation samples",
              "multi-no-val-positive": "every class in group 'tail' has zero evaluation samples"}


def manifest_config(manifest, path) -> dict:
    """A config that trains from ``manifest``, saved at ``path``."""
    save_manifest(manifest, path)
    if manifest.task_kind == "multi":
        return multilabel_config(path)
    raw = small_config()
    raw["dataset"] = {"manifest": str(path), "group_boundaries": [1, 2]}
    return raw


POSITIVE = st.floats(0.01, 100.0)
FRACTION = st.floats(0.0, 0.9)
HYPER = st.floats(0.01, 0.9)  # valid for every loss hyperparameter


@st.composite
def written_configs(draw):
    """Valid raw configs holding, in each section, the fields ``to_config`` writes."""
    if draw(st.booleans()):
        dataset = {"synth": {
            "num_classes": draw(st.integers(2, 12)), "feature_dim": draw(st.integers(2, 32)),
            "n0": draw(st.integers(1, 500)), "ratio": draw(st.floats(1.0, 200.0)),
            "class_separation": draw(st.floats(0.0, 10.0)),
            "val_per_class": draw(st.integers(1, 50)), "test_per_class": draw(st.integers(1, 50))}}
    else:
        dataset = {"manifest": draw(st.text(min_size=1, max_size=12))}
        if draw(st.booleans()):
            dataset["pareto"] = {"n0": draw(st.integers(1, 500)),
                                 "ratio": draw(st.floats(1.0, 200.0))}
    if draw(st.booleans()):
        h = draw(st.integers(1, 5))
        dataset["group_boundaries"] = [h, h + draw(st.integers(1, 5))]
    loss_kind = draw(st.sampled_from(LOSS_KINDS))
    hypers = jsonio.fields_to_config(LossSpec(loss_kind))
    loss = {"kind": loss_kind, **{name: draw(HYPER) for name in hypers if name != "kind"}}
    sampler = {"kind": draw(st.sampled_from(SAMPLER_KINDS))}
    if sampler["kind"] == "difficulty":
        sampler["difficulty_floor"] = draw(POSITIVE)
    if draw(st.booleans()):
        sampler["epoch_length"] = draw(st.integers(1, 1000))
    optimizer = {"kind": draw(st.sampled_from(("sgd", "adam")))}
    if draw(st.booleans()):  # an omitted lr is the kind's default
        optimizer["lr"] = draw(POSITIVE)
    if optimizer["kind"] == "sgd":
        optimizer["momentum"] = draw(FRACTION)
    else:
        optimizer.update(beta1=draw(FRACTION), beta2=draw(FRACTION), eps=draw(POSITIVE))
    if draw(st.booleans()):
        optimizer.update(sam=True, sam_rho=draw(FRACTION))
    stage2 = {"kind": draw(st.sampled_from(STAGE2_KINDS))}
    if stage2["kind"] == "tau_norm":
        stage2["tau"] = draw(FRACTION)
    if stage2["kind"] in ("crt", "lws", "disalign", "cosine_retrain") and draw(st.booleans()):
        stage2["epochs"] = draw(st.integers(0, 10))
    if stage2["kind"] == "cosine_retrain":
        stage2["temperature"] = draw(POSITIVE)
    train = {
        "epochs": draw(st.integers(1, 50)), "batch_size": draw(st.integers(1, 512)),
        "eval_every": draw(st.integers(1, 10)),
        "hidden_dim": draw(st.none() | st.integers(1, 64)),
        "classifier_kind": draw(st.sampled_from(("linear", "cosine"))),
        "temperature": draw(POSITIVE), "loss": loss, "sampler": sampler,
        "mixup": {"alpha": draw(POSITIVE), "enabled": draw(st.booleans())},
        "optimizer": optimizer, "stage2": stage2,
    }
    return {"seed": draw(st.integers(0, 2 ** 32)), "name": draw(st.none() | st.text(max_size=8)),
            "dataset": dataset, "train": train,
            "report_path": draw(st.none() | st.text(max_size=8))}


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(small_config())
        assert config.seed == 0
        assert config.train.loss.kind == "ce"
        assert config.dataset.group_boundaries == (1, 3)

    def test_unknown_loss_kind_rejected(self):
        raw = small_config()
        raw["train"]["loss"] = {"kind": "super_loss"}
        with pytest.raises(ConfigError, match="unknown loss kind"):
            parse_config(raw)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(small_config(gpu=True))

    @pytest.mark.parametrize("seed", [-1, -2 ** 63])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=f"^seed must be >= 0, got {seed}$"):
            parse_config(small_config(seed=seed))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_sweep([("ok", small_config()), ("negative", small_config(seed=seed))])

    def test_train_seed_rejected(self):
        raw = small_config()
        raw["train"]["seed"] = 3
        with pytest.raises(ConfigError, match="unknown train keys"):
            parse_config(raw)

    def test_missing_seed_rejected(self):
        raw = small_config()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    def test_dataset_needs_exactly_one_source(self):
        raw = small_config()
        raw["dataset"]["manifest"] = "x.jsonl"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)

    def test_digest_changes_with_config(self):
        a = parse_config(small_config())
        b = parse_config(small_config(seed=1))
        raw = small_config()
        raw["train"]["epochs"] = 5
        c = parse_config(raw)
        assert a.digest != b.digest
        assert a.digest != c.digest
        assert a.digest == parse_config(small_config()).digest

    @pytest.mark.parametrize("section, value", [
        ("train", -1), ("train", 0), ("train", float("inf")), ("train", float("nan")),
        ("train", True), ("train", "16"),
        ("stage2", 0), ("stage2", -2.5), ("stage2", float("nan")),
    ])
    def test_bad_temperature_rejected(self, section, value):
        raw = small_config()
        if section == "train":
            raw["train"].update(classifier_kind="cosine", temperature=value)
        else:
            raw["train"]["stage2"] = {"kind": "cosine_retrain", "temperature": value}
        with pytest.raises(ConfigError, match="temperature must be a finite number > 0"):
            parse_config(raw)

    @pytest.mark.parametrize("bounds", [[1.9, "5"], [1, "5"], [1.0, 3], [True, 3], [1], "13"])
    def test_group_boundaries_must_be_two_ints(self, bounds):
        raw = small_config()
        raw["dataset"]["group_boundaries"] = bounds
        with pytest.raises(ConfigError, match="group_boundaries must be a \\[h, m\\] pair"):
            parse_config(raw)

    def test_bad_temperature_exits_2(self, tmp_path, capsys):
        raw = small_config()
        raw["train"]["temperature"] = -1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_batch_size_cap(self):
        raw = small_config()
        raw["train"]["batch_size"] = MAX_BATCH_SIZE
        assert parse_config(raw).train.batch_size == MAX_BATCH_SIZE
        raw["train"]["batch_size"] = MAX_BATCH_SIZE + 1
        message = re.escape(f"batch_size must lie in [1, {MAX_BATCH_SIZE}]")
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    def test_hidden_dim_cap(self):
        raw = small_config()  # parsed only: a model at the cap is never built
        raw["train"]["hidden_dim"] = MAX_HIDDEN_DIM
        assert parse_config(raw).train.hidden_dim == MAX_HIDDEN_DIM
        raw["train"]["hidden_dim"] = MAX_HIDDEN_DIM + 1
        with pytest.raises(ConfigError, match=re.escape(f"hidden_dim must lie in [1, "
                                                        f"{MAX_HIDDEN_DIM}]")):
            parse_config(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("synth", "num_classes", 1), ("synth", "feature_dim", 1), ("synth", "n0", 0),
        ("synth", "ratio", 0.5), ("train", "classifier_kind", "foo"), ("train", "hidden_dim", 0),
        ("synth", "num_classes", "3"), ("train", "hidden_dim", "3"), ("train", "epochs", 2.5),
        ("train", "batch_size", True), ("train", "batch_size", MAX_BATCH_SIZE + 1),
        ("train", "hidden_dim", 10 ** 9),
    ])
    def test_unbuildable_config_exits_2_before_compute(self, tmp_path, capsys, section, key, value):
        raw = small_config()
        (raw["dataset"]["synth"] if section == "synth" else raw["train"])[key] = value
        with pytest.raises(ConfigError):
            parse_config(raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        report = tmp_path / "r.json"
        assert main(["train", "--config", str(path), "--out", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not report.exists()

    @pytest.mark.parametrize("path, value", [
        pytest.param(("train", "mixup"), {"enabled": "no"}, id="mixup-enabled-str"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "sam": "no"}, id="sam-str"),
        pytest.param(("train", "stage2"), {"kind": "tau_norm", "tau": "1"}, id="tau-str"),
        pytest.param(("train", "sampler"), [], id="sampler-list"),
        pytest.param(("train", "optimizer"), 5, id="optimizer-int"),
        pytest.param(("dataset", "synth"), 5, id="synth-int"),
        pytest.param(("dataset",), {"manifest": "data.jsonl", "pareto": None}, id="pareto-null"),
        pytest.param(("train", "loss"), {"kind": "focal", "gamma": "2"}, id="gamma-str"),
        pytest.param(("dataset", "synth", "ratio"), "100", id="ratio-str"),
        pytest.param(("train", "sampler"), {"kind": "difficulty", "difficulty_floor": "0.1"},
                     id="difficulty_floor-str"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "lr": "0.1"}, id="lr-str"),
        pytest.param(("dataset",), {"manifest": 0}, id="manifest-int"),
        pytest.param(("dataset", "synth", "n0"), 10 ** 30, id="n0-beyond-int64"),
        pytest.param(("train", "batch_size"), 10 ** 23, id="batch_size-beyond-int64"),
        pytest.param(("dataset", "synth", "ratio"), 10 ** 400, id="ratio-beyond-int64"),
        pytest.param(("train", "stage2"), {"kind": "tau_norm", "tau": float("nan")},
                     id="stage2-tau-nan"),
        pytest.param(("train", "stage2"), {"kind": "tau_norm", "tau": float("inf")},
                     id="stage2-tau-inf"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "lr": float("nan")}, id="lr-nan"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "momentum": float("nan")},
                     id="momentum-nan"),
        pytest.param(("train", "optimizer"), {"kind": "adam", "beta1": float("nan")},
                     id="beta1-nan"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "sam": True, "sam_rho": float("nan")},
                     id="sam_rho-nan"),
        pytest.param(("train", "loss"), {"kind": "logit_adjust", "tau": float("nan")},
                     id="loss-tau-nan"),
        pytest.param(("train", "optimizer"), {"kind": "adam", "beta1": 2.0}, id="beta1-2"),
        pytest.param(("train", "optimizer"), {"kind": "adam", "beta2": 1.0}, id="beta2-1"),
        pytest.param(("train", "optimizer"), {"kind": "adam", "eps": -1.0}, id="eps-negative"),
        pytest.param(("train", "optimizer"), {"kind": "sgd", "momentum": -3.0},
                     id="momentum-negative"),
    ])
    def test_wrong_typed_value_exits_2_at_parse(self, tmp_path, capsys, path, value):
        raw = small_config()
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ConfigError):
            parse_config(raw)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(raw))
        report = tmp_path / "r.json"
        assert main(["train", "--config", str(config_path), "--out", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not report.exists()

    @pytest.mark.parametrize("pareto", [{"n0": 0, "ratio": 2.0}, {"n0": 10, "ratio": 0.5}])
    def test_bad_pareto_exits_2_at_parse(self, tmp_path, capsys, pareto):
        manifest_path = tmp_path / "data.jsonl"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        raw = small_config(dataset={"manifest": str(manifest_path), "pareto": pareto,
                                    "group_boundaries": [1, 2]})
        with pytest.raises(ConfigError, match="pareto (n0|ratio) must be >= 1"):
            parse_config(raw)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(raw))
        report = tmp_path / "r.json"
        assert main(["train", "--config", str(config_path), "--out", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: pareto")
        assert not report.exists()

    def test_digest_ignores_name_and_report_path(self):
        a = parse_config(small_config())
        b = parse_config(small_config(name="erm", report_path="out.json"))
        assert a.digest == b.digest

    @settings(max_examples=200, deadline=None)
    @given(written_configs())
    def test_to_config_round_trip(self, raw):
        config = parse_config(raw)
        for again in (parse_config(config.to_config()),
                      parse_config(json.loads(jsonio.dumps(config.to_config())))):
            assert again == config
            assert again.digest == config.digest


class TestRunExperiment:
    def test_report_schema_and_smoke(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_experiment(parse_config(small_config()), out_path=out)
        report = json.loads(out.read_text())
        assert set(report) == {"config_digest", "name", "seed", "task", "history", "final"}
        assert report["task"] == "single"
        assert len(report["history"]) == 4
        final = report["final"]
        assert set(final) == {"group_report", "val_group_report", "weight_norms", "gaps"}
        assert len(final["weight_norms"]) == 5
        assert final["gaps"]["gap_best"] >= 0
        assert result.report["config_digest"] == report["config_digest"]

    def test_weight_norms_whose_squares_overflow_are_reported(self, tmp_path):
        # this step size trains rows past 1.3e154, whose entries square to inf
        raw = small_config()
        raw["train"].update(epochs=2, optimizer={"kind": "sgd", "lr": 1e300})
        out = tmp_path / "report.json"
        run_experiment(parse_config(raw), out_path=out)
        norms = json.loads(out.read_text())["final"]["weight_norms"]
        assert len(norms) == 5 and all(1e154 < v < float("inf") for v in norms)

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_experiment(parse_config(config), out_path=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stage2_config_runs(self, tmp_path):
        raw = small_config()
        raw["train"]["stage2"] = {"kind": "tau_norm", "tau": 1.0}
        result = run_experiment(parse_config(raw))
        norms = np.asarray(result.report["final"]["weight_norms"])
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_ncm_stage2_has_null_norms(self):
        raw = small_config()
        raw["train"]["stage2"] = {"kind": "ncm"}
        result = run_experiment(parse_config(raw))
        assert result.report["final"]["weight_norms"] is None

    def test_manifest_source_with_pareto(self, tmp_path):
        manifest = blob_manifest([60, 60, 60], val_per_class=10, test_per_class=10)
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        raw = {
            "seed": 3,
            "dataset": {"manifest": str(path), "pareto": {"n0": 50, "ratio": 25.0},
                        "group_boundaries": [1, 2]},
            "train": {"epochs": 2, "batch_size": 16,
                      "optimizer": {"kind": "sgd", "lr": 0.05}},
        }
        result = run_experiment(parse_config(raw))
        dist = result.manifest.train_distribution()
        assert dist.counts.tolist() == [50, 10, 2]

    def test_multilabel_run_reports_map(self, tmp_path, monkeypatch):
        manifest = multilabel_manifest(n=60)
        path = tmp_path / "ml.jsonl"
        save_manifest(manifest, path)
        scored = count_calls(monkeypatch, decision_scores)
        result = run_experiment(parse_config(multilabel_config(path)))
        # val and test of each evaluated epoch, each scored once; with stage 2 'none' the
        # final classifier is the last epoch's model, whose reports are reused
        assert len(scored) == 2 * len(result.history)
        test_idx = result.manifest.split_indices("test")
        expected = float(np.nanmean(average_precision_per_label(
            decision_scores(result.final_classifier, result.manifest.features[test_idx]),
            result.manifest.labels[test_idx])))
        assert result.report["final"]["map"] == expected
        assert 0.0 <= expected <= 1.0

    @pytest.mark.parametrize("stage2, final_scorings", [
        ({"kind": "none"}, 0), ({"kind": "crt", "epochs": 2}, 2)], ids=["none", "crt"])
    def test_final_scored_only_when_stage2_changes_the_model(self, monkeypatch, stage2,
                                                             final_scorings):
        raw = small_config()
        raw["train"]["stage2"] = stage2
        scored = count_calls(monkeypatch, evaluate_split)
        result = run_experiment(parse_config(raw))
        # val and test of each evaluated epoch, plus the final classifier's when it is new
        assert len(scored) == 2 * len(result.history) + final_scorings
        groups = group_split(result.manifest.train_distribution(), (1, 3))
        final = result.report["final"]
        for split, key in (("test", "group_report"), ("val", "val_group_report")):
            expected = evaluate_split(result.final_classifier, result.manifest, split, groups)
            assert final[key] == expected.to_dict()

    @pytest.mark.parametrize("command", ["train", "make-longtail"])
    @pytest.mark.parametrize("fault, expected", [
        ("multi-label", "Pareto subsetting defined for single-label only"),
        ("n0-beyond-train", "class 0 has 60 train records, 100000 requested"),
    ], ids=["multi-label", "n0-beyond-train"])
    def test_unbuildable_pareto_cut_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                            fault, expected):
        multi = fault == "multi-label"
        manifest_path, out = tmp_path / "m.jsonl", tmp_path / "out.json"
        save_manifest(multilabel_manifest(n=60) if multi else blob_manifest([60, 30, 10]),
                      manifest_path)
        n0 = 10 if multi else 100000
        steps = count_optimizer_steps(monkeypatch)
        if command == "train":
            raw = multilabel_config(manifest_path) if multi else small_config()
            raw["dataset"] = {"manifest": str(manifest_path), "pareto": {"n0": n0, "ratio": 2.0},
                              "group_boundaries": [1, 2]}
            with pytest.raises(ConfigError, match=expected):
                run_experiment(parse_config(raw))
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps(raw))
            argv = ["train", "--config", str(config_path)]
        else:
            argv = ["make-longtail", "--manifest", str(manifest_path), "--n0", str(n0),
                    "--imbalance", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train", "make-longtail"])
    @pytest.mark.parametrize("fault, expected", [
        ("non-utf8", "line 3: not valid UTF-8"),
        ("bool-num-classes", "malformed header values"),
    ], ids=["non-utf8", "bool-num-classes"])
    def test_unreadable_manifest_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                         fault, expected):
        manifest_path, out = tmp_path / "m.jsonl", tmp_path / "out.json"
        save_manifest(blob_manifest([60, 30, 10]), manifest_path)
        lines = manifest_path.read_bytes().split(b"\n")
        if fault == "non-utf8":
            lines[2] = lines[2].replace(b'"', b'"\xff', 1)
        else:
            lines[0] = lines[0].replace(b'"num_classes": 3', b'"num_classes": true')
        manifest_path.write_bytes(b"\n".join(lines))
        steps = count_optimizer_steps(monkeypatch)
        if command == "train":
            raw = small_config()
            raw["dataset"] = {"manifest": str(manifest_path), "group_boundaries": [1, 2]}
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps(raw))
            argv = ["train", "--config", str(config_path)]
        else:
            argv = ["make-longtail", "--manifest", str(manifest_path), "--n0", "10",
                    "--imbalance", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert steps == [] and not out.exists()

    def test_group_boundaries_beyond_k_exit_2(self, tmp_path, monkeypatch, capsys):
        raw = small_config()
        raw["dataset"]["group_boundaries"] = [4, 9]
        steps = count_optimizer_steps(monkeypatch)
        with pytest.raises(ConfigError, match="boundaries must satisfy"):
            run_experiment(parse_config(raw))
        config_path, out = tmp_path / "c.json", tmp_path / "r.json"
        config_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert "boundaries must satisfy" in capsys.readouterr().err
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize("task, train", [
        pytest.param("multi", {"loss": {"kind": "bce_ml"}, "stage2": {"kind": "crt"}},
                     id="multi-crt"),
        pytest.param("multi", {"loss": {"kind": "bce_ml"}, "stage2": {"kind": "ncm"}},
                     id="multi-ncm"),
        pytest.param("multi", {"loss": {"kind": "bce_ml"}, "sampler": {"kind": "class_balanced"}},
                     id="multi-class_balanced"),
        pytest.param("multi", {"loss": {"kind": "ce"}}, id="multi-ce"),
        pytest.param("single", {"loss": {"kind": "bce_ml"}}, id="single-bce_ml"),
    ])
    def test_task_mismatch_rejected_before_training(self, tmp_path, monkeypatch, capsys,
                                                    task, train):
        manifest = (multilabel_manifest(n=60) if task == "multi"
                    else blob_manifest([20, 10, 5], val_per_class=5, test_per_class=5))
        manifest_path = tmp_path / "m.jsonl"
        save_manifest(manifest, manifest_path)
        raw = {"seed": 1, "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 2]},
               "train": {"epochs": 3, "batch_size": 16,
                         "optimizer": {"kind": "sgd", "lr": 0.05}, **train}}
        steps = count_optimizer_steps(monkeypatch)
        with pytest.raises(ConfigError, match=TASK_MISMATCH):
            run_experiment(parse_config(raw))
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json")]) == 2
        assert re.search(TASK_MISMATCH, capsys.readouterr().err)
        assert steps == []

    @pytest.mark.parametrize("fault", list(UNSCORABLE))
    def test_unscorable_split_exits_2_before_training(self, tmp_path, monkeypatch, capsys, fault):
        raw = manifest_config(unscorable_manifest(fault), tmp_path / "m.jsonl")
        steps = count_optimizer_steps(monkeypatch)
        with pytest.raises(ConfigError, match=re.escape(UNSCORABLE[fault])):
            run_experiment(parse_config(raw))
        config_path, out = tmp_path / "c.json", tmp_path / "r.json"
        config_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert f"error: {UNSCORABLE[fault]}" in capsys.readouterr().err
        assert steps == [] and not out.exists()

    def test_failure_leaves_no_partial_report(self, tmp_path):
        raw = small_config()
        raw["dataset"] = {"manifest": str(tmp_path / "missing.jsonl")}
        out = tmp_path / "r.json"
        with pytest.raises(Exception, match="stage 'dataset'"):
            run_experiment(parse_config(raw), out_path=out)
        assert not out.exists()


class TestSweep:
    def entries(self):
        losses = ["ce", "balanced_softmax", "focal"]
        out = []
        for kind in losses:
            raw = small_config(name=kind)
            raw["train"]["loss"] = {"kind": kind}
            out.append((kind, raw))
        return out

    def test_three_row_csv(self):
        rows = run_sweep(self.entries(), parallelism=1)
        text = sweep_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "method,head,medium,tail,avg,error"
        assert len(lines) == 4
        assert lines[1].startswith("ce,")

    def test_parallelism_does_not_change_content(self):
        serial = sweep_csv(run_sweep(self.entries(), parallelism=1))
        parallel = sweep_csv(run_sweep(self.entries(), parallelism=3))
        assert serial == parallel

    def test_individual_failure_recorded_and_sweep_continues(self, tmp_path):
        entries = self.entries()
        bad = small_config(name="bad")
        bad["dataset"] = {"manifest": str(tmp_path / "nope.jsonl")}
        entries.insert(1, ("bad", bad))
        rows = run_sweep(entries, parallelism=2)
        assert [r["method"] for r in rows] == ["ce", "bad", "balanced_softmax", "focal"]
        assert rows[1]["error"] and rows[1]["head"] is None
        assert all(r["error"] is None for i, r in enumerate(rows) if i != 1)

    def test_text_cells_keep_every_row_at_six_cells(self):
        import csv

        score = {"head": 50.0, "medium": 25.0, "tail": 12.5, "avg": 30.0, "error": None}
        rows = [{**score, "method": "ce, seed 2"}, {**score, "method": 'a"b\nc'},
                {**score, "method": "cr\rlf\r\n", "error": "bad,\r\nline"},
                {**score, "method": "plain", "error": "x"},
                {**score, "method": '"q'}, {**score, "method": "ok", "error": '"x, "y"'}]
        text = sweep_csv(rows)
        cells = list(csv.reader(text.splitlines()))
        assert [len(row) for row in cells] == [6] * 7
        assert [row[0] for row in cells[1:]] == ["ce; seed 2", 'a"b c', "cr lf  ", "plain", '"q',
                                                 "ok"]
        assert cells[3][5] == "bad;  line" and cells[4][5] == "x" and cells[6][5] == '"x; "y"'
        assert text.splitlines()[4] == "plain,50.00,25.00,12.50,30.00,x"
        assert text.splitlines()[5] == '"""q",50.00,25.00,12.50,30.00,'
        assert text.splitlines()[2] == '"a""b c",50.00,25.00,12.50,30.00,'

    @pytest.mark.parametrize("parallelism, entries, cpus, expected", [
        (4, 10, 2, 2), (4, 3, 8, 3), (2, 10, 8, 2), (1, 10, 8, 1), (0, 10, 8, 0),
        (10 ** 9, 5, None, 1), (10 ** 9, 2, 64, 2),
    ])
    def test_workers_clamped_to_entries_and_cpus(self, parallelism, entries, cpus, expected):
        assert sweep_workers(parallelism, entries, cpus) == expected

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_rejected_before_compute(self, monkeypatch, parallelism):
        built = count_calls(monkeypatch, build_dataset)  # the first stage of every row
        with pytest.raises(ConfigError, match="parallelism must be >= 1"):
            run_sweep(self.entries(), parallelism=parallelism)
        assert not built
        run_sweep(self.entries()[:1], parallelism=1)
        assert built == [1]

    @pytest.mark.parametrize("parallelism", [1.5, 2.0, "2", True, None])
    def test_parallelism_not_an_int_rejected_before_any_config_is_parsed(self, parallelism):
        bad = small_config(seed=-1)  # parse_config refuses it with an error of its own
        with pytest.raises(ConfigError, match="^parallelism must be an integer, got "):
            run_sweep([("bad", bad)], parallelism=parallelism)

    def test_row_scores_test_once_and_difficulty_val_per_evaluated_epoch(self, monkeypatch):
        plain = small_config(name="plain")
        difficulty = small_config(name="difficulty")
        difficulty["train"].update(epochs=5, eval_every=2, sampler={"kind": "difficulty"})
        scored = count_calls(monkeypatch, evaluate_split)
        for raw, expected in ((plain, 1), (difficulty, 1 + 3)):  # val at epochs 1, 3 and 4
            scored.clear()
            (row,) = run_sweep([(raw["name"], raw)], parallelism=1)
            assert row["error"] is None
            assert len(scored) == expected

    def test_invalid_config_rejected_before_compute(self):
        bad = small_config()
        bad["train"]["loss"] = {"kind": "nope"}
        with pytest.raises(ConfigError):
            run_sweep([("bad", bad)], parallelism=1)


# train sections over each sampler, MixUp, SAM, the cosine head and a divergence
ROW_TRAIN_CASES = {
    "class_balanced": {"sampler": {"kind": "class_balanced"}},
    "difficulty-eval_every-2": {"sampler": {"kind": "difficulty"}, "eval_every": 2, "epochs": 5},
    "mixup": {"mixup": {"enabled": True, "alpha": 0.4}},
    "sam": {"optimizer": {"kind": "adam", "lr": 0.01, "sam": True, "sam_rho": 0.05}},
    "cosine-head": {"classifier_kind": "cosine", "hidden_dim": 6},
    "diverges": {"optimizer": {"kind": "sgd", "lr": 1e200}, "hidden_dim": 8},
}
ROW_CASES = [*(f"stage2-{kind}" for kind in STAGE2_KINDS), *ROW_TRAIN_CASES, "multi-label",
             *UNSCORABLE]


def row_case_config(case: str, tmp_path) -> dict:
    if case == "multi-label":
        return manifest_config(multilabel_manifest(n=60), tmp_path / "ml.jsonl")
    if case in UNSCORABLE:
        return manifest_config(unscorable_manifest(case), tmp_path / "m.jsonl")
    raw = small_config()
    if case in ROW_TRAIN_CASES:
        raw["train"].update(ROW_TRAIN_CASES[case])
    else:
        kind = case.removeprefix("stage2-")
        raw["train"]["stage2"] = {"kind": kind}
        if kind in ("crt", "lws", "disalign", "cosine_retrain"):
            raw["train"]["stage2"]["epochs"] = 2
    return raw


class TestSweepRowsMatchRuns:
    """A sweep row is the final test report of ``run_experiment``, or its error text."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence: inf ripples first
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_equals_final_report(self, tmp_path, case, parallelism):
        raw = row_case_config(case, tmp_path)
        expected = {"method": case, "head": None, "medium": None, "tail": None, "avg": None,
                    "error": None}
        try:
            final = run_experiment(parse_config(raw)).report["final"]["group_report"]
            expected.update(head=final["head"], medium=final["medium"], tail=final["tail"],
                            avg=final["average"])
        except Exception as exc:
            expected["error"] = f"{type(exc).__name__}: {exc}"
        assert (expected["error"] is None) == (case not in ("diverges", *UNSCORABLE))
        # two entries, so that parallelism 2 runs two worker processes
        rows = run_sweep([(case, raw)] * 2, parallelism=parallelism)
        assert rows == [expected, expected]


class TestCli:
    def test_synth_train_eval_norms_gaps_pipeline(self, tmp_path, capsys):
        manifest_path = tmp_path / "data.jsonl"
        assert main(["synth", "--out", str(manifest_path), "--classes", "5", "--dim", "8",
                     "--n0", "80", "--imbalance", "20", "--seed", "1",
                     "--val-per-class", "10", "--test-per-class", "10"]) == 0
        config = {
            "seed": 2,
            "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 3]},
            "train": {"epochs": 3, "batch_size": 16,
                      "optimizer": {"kind": "sgd", "lr": 0.05}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        report_path = tmp_path / "report.json"
        ckpt_path = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(report_path),
                     "--checkpoint", str(ckpt_path)]) == 0
        assert report_path.exists() and ckpt_path.exists()

        assert main(["eval", "--checkpoint", str(ckpt_path), "--manifest",
                     str(manifest_path), "--boundaries", "1,3",
                     "--out", str(tmp_path / "eval.json")]) == 0
        eval_report = json.loads((tmp_path / "eval.json").read_text())
        assert "group_report" in eval_report

        assert main(["norms", "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "norms.json")]) == 0
        norms = json.loads((tmp_path / "norms.json").read_text())
        assert len(norms["weight_norms"]) == 5

        assert main(["gaps", "--report", str(report_path),
                     "--out", str(tmp_path / "gaps.json")]) == 0
        gaps = (tmp_path / "gaps.json").read_text()
        report_gaps = json.loads(report_path.read_text())["final"]["gaps"]
        assert gaps == jsonio.dumps(report_gaps) + "\n"
        assert report_gaps["gap_best"] >= 0

    def test_eval_map_matches_report(self, tmp_path):
        manifest_path = tmp_path / "ml.jsonl"
        save_manifest(multilabel_manifest(n=60), manifest_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(multilabel_config(manifest_path)))
        report_path, ckpt = tmp_path / "r.json", tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(report_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--boundaries", "1,2", "--out", str(tmp_path / "eval.json")]) == 0
        final = json.loads(report_path.read_text())["final"]
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert payload["map"] == final["map"]
        assert payload["group_report"] == final["group_report"]

    @pytest.mark.parametrize("command, flags", [
        ("synth", ["--classes", "1"]),
        ("synth", ["--dim", "1"]),
        ("synth", ["--val-per-class", "0"]),
        ("synth", ["--separation", "nan"]),
        ("synth", ["--n0", str(10 ** 30)]),
        ("make-longtail", ["--n0", "10", "--imbalance", "0.5"]),
        ("make-longtail", ["--n0", "0", "--imbalance", "2"]),
        ("eval", ["--boundaries", "3,1"]),
        ("eval", ["--posthoc-tau", "nan"]),
        ("eval", ["--posthoc-tau", "inf"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_bad_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, command, flags):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        inputs = {"synth": [], "make-longtail": ["--manifest", str(manifest_path)],
                  "eval": ["--checkpoint", str(ckpt), "--manifest", str(manifest_path)]}
        out = tmp_path / "out.json"
        assert main([command, *inputs[command], *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_eval_of_an_empty_split_exits_2_and_writes_nothing(self, tmp_path, capsys):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(unscorable_manifest("no-val"), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        out = tmp_path / "out.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--split", "val", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: val split is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        (("cls_w", 0, 0), float("nan")),
        (("logit_scale",), [1.0]),
        (("format_version",), 2),
        (("classifier_kind",), "rbf"),
        (("kind",), "svm"),
        (("cls_w",), 1.0),
        (("cls_w",), "weights"),
        (("cls_w", 0, 0), True),
        (("cls_w", 0), [0.0]),
        (("shape", "num_classes"), 4),
        (("cls_w",), REMOVED),
        (("extra",), 1),
        ((), ["not an object"]),
    ], ids=["nan weight", "short logit_scale", "version", "classifier kind", "checkpoint kind",
            "scalar cls_w", "string cls_w", "bool weight", "ragged cls_w", "shape header",
            "missing cls_w", "unknown key", "non-object"])
    @pytest.mark.parametrize("command", ["eval", "stage2", "norms"])
    def test_malformed_checkpoint_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                              path, value):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        payload = json.loads(ckpt.read_text())
        if path:  # the entry at ``path`` becomes ``value``
            *parents, last = path
            entry = functools.reduce(operator.getitem, parents, payload)
            if value is REMOVED:
                del entry[last]
            else:
                entry[last] = value
        else:
            payload = value
        ckpt.write_text(json.dumps(payload))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 0, "dataset": {"manifest": str(manifest_path)},
                                           "train": {"stage2": {"kind": "crt"}}}))
        inputs = {"eval": ["--manifest", str(manifest_path)], "norms": [],
                  "stage2": ["--manifest", str(manifest_path), "--config", str(config_path)]}
        out = tmp_path / "out.json"
        assert main([command, "--checkpoint", str(ckpt), *inputs[command], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, classifier", [
        ("eval", init_model(4, 4, rng=np.random.default_rng(0))),
        ("eval", init_model(3, 5, rng=np.random.default_rng(0))),
        ("eval", NcmClassifier(means=np.zeros((2, 4)))),
        ("stage2", init_model(4, 4, rng=np.random.default_rng(0))),
        ("stage2", init_model(3, 5, rng=np.random.default_rng(0))),
    ], ids=["eval 4 classes", "eval 5 features", "eval ncm of 2 classes", "stage2 4 classes",
            "stage2 5 features"])
    def test_checkpoint_that_does_not_fit_the_manifest_exits_2(self, tmp_path, capsys, command,
                                                                classifier):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(classifier, ckpt)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 0, "dataset": {"manifest": str(manifest_path)},
                                           "train": {"stage2": {"kind": "crt"}}}))
        extra = ["--config", str(config_path)] if command == "stage2" else []
        out = tmp_path / "out.json"
        assert main([command, "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     *extra, "--out", str(out)]) == 2
        assert "the manifest has 3 over 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("report, message", [
        ([], "report must be a JSON object"),
        ({"history": "x"}, "run history must be a list"),
        ({"history": [{"epoch": 0}]}, "history record 0 has no epoch"),
        ({"history": [{"epoch": 0, "val": {"average": 50.0}, "test": {"average": 40.0}},
                      {"epoch": 1, "val": {"average": 60.0}, "test": []}]},
         "history record 1 has no epoch"),
        *[({"history": [{"epoch": 0, "val": {"average": 50.0}, "test": {"average": 40.0}},
                        {"epoch": 1, "val": {"average": 60.0}, "test": {"average": 45.0}, **bad}]},
           f"history record 1: {field} must be")
          for field, bad in [
              ("val.average", {"val": {"average": {}}}), ("val.average", {"val": {"average": "7"}}),
              ("val.average", {"val": {"average": True}}),
              ("test.average", {"test": {"average": [40.0]}}),
              ("test.average", {"test": {"average": False}}), ("epoch", {"epoch": "1"}),
              ("epoch", {"epoch": True}), ("epoch", {"epoch": 1.0}), ("epoch", {"epoch": None})]],
        *[({"history": [{"epoch": 0, "val": {"average": v0}, "test": {"average": t0}},
                        {"epoch": 1, "val": {"average": v1}, "test": {"average": None}}]},
           "no epoch has both a val and a test average")
          for v0, t0, v1 in [(None, None, None), (None, 50.0, 60.0)]],
    ], ids=["non-object", "history not a list", "record without val", "test not an object",
            "val.average object", "val.average string", "val.average bool", "test.average list",
            "test.average bool", "epoch string", "epoch bool", "epoch float", "epoch null",
            "no scored epoch", "no epoch scored twice"])
    def test_malformed_report_gaps_exits_2(self, tmp_path, capsys, report, message):
        report_path, out = tmp_path / "report.json", tmp_path / "gaps.json"
        report_path.write_text(json.dumps(report))
        assert main(["gaps", "--report", str(report_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("val, test, expected", [
        ([30.0, None], [20.0, 40.0], (20.0, -20.0, 0, 1)),
        ([30.0, 50], [20.0, None], (0.0, 0.0, 0, 0)),
        ([30.0, 50], [20.0, 40], (0.0, 0.0, 1, 1)),
        ([None, 60.0], [50.0, 45.0], (5.0, 0.0, 1, 0)),
        ([30.0, 60.0, 40.0], [20.0, 50.0, None], (0.0, 0.0, 1, 1)),
    ], ids=["null val", "null test", "int averages", "null first val", "null final test"])
    def test_gaps_accepts_null_and_int_averages(self, tmp_path, val, test, expected):
        records = [{"epoch": i, "val": {"average": v}, "test": {"average": t}}
                   for i, (v, t) in enumerate(zip(val, test))]
        report_path, out = tmp_path / "report.json", tmp_path / "gaps.json"
        report_path.write_text(json.dumps({"history": records}))
        assert main(["gaps", "--report", str(report_path), "--out", str(out)]) == 0
        gaps = json.loads(out.read_text())
        assert (gaps["gap_best"], gaps["gap_final"], gaps["epoch_best_val"],
                gaps["epoch_best_test"]) == expected

    @pytest.mark.parametrize("temperature", [0.0, -2.5, float("inf")])
    @pytest.mark.parametrize("command", ["eval", "stage2", "norms"])
    def test_cosine_temperature_not_above_zero_exits_2(self, tmp_path, capsys, command,
                                                        temperature):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(init_model(3, 4, classifier_kind="cosine",
                                   rng=np.random.default_rng(0)), ckpt)
        payload = json.loads(ckpt.read_text())
        payload["temperature"] = temperature
        ckpt.write_text(json.dumps(payload))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 0, "dataset": {"manifest": str(manifest_path)},
                                           "train": {"stage2": {"kind": "crt"}}}))
        inputs = {"eval": ["--manifest", str(manifest_path)], "norms": [],
                  "stage2": ["--manifest", str(manifest_path), "--config", str(config_path)]}
        out = tmp_path / "out.json"
        assert main([command, "--checkpoint", str(ckpt), *inputs[command], "--out", str(out)]) == 2
        assert "temperature must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_make_longtail_command(self, tmp_path):
        manifest = blob_manifest([50, 50, 50], val_per_class=5, test_per_class=5)
        src = tmp_path / "src.jsonl"
        save_manifest(manifest, src)
        dst = tmp_path / "lt.jsonl"
        assert main(["make-longtail", "--manifest", str(src), "--n0", "40",
                     "--imbalance", "40", "--seed", "0", "--out", str(dst)]) == 0
        out = load_manifest(dst)
        assert out.train_distribution().counts.tolist() == [40, 6, 1]

    def test_stage2_command(self, tmp_path):
        manifest_path = tmp_path / "data.jsonl"
        save_manifest(blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10),
                      manifest_path)
        config = {
            "seed": 4,
            "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 2]},
            "train": {"epochs": 2, "batch_size": 16,
                      "optimizer": {"kind": "sgd", "lr": 0.05},
                      "stage2": {"kind": "tau_norm", "tau": 1.0}},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        ckpt = tmp_path / "stage1.json"
        assert main(["train", "--config", str(config_path), "--out",
                     str(tmp_path / "r.json"), "--stage1-checkpoint", str(ckpt)]) == 0
        out_ckpt = tmp_path / "stage2.json"
        assert main(["stage2", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--config", str(config_path), "--out", str(out_ckpt)]) == 0
        model = load_checkpoint(out_ckpt)
        np.testing.assert_allclose(np.linalg.norm(model.cls_w, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["crt", "lws", "disalign", "cosine_retrain"])
    def test_stage2_command_matches_integrated_run(self, tmp_path, kind):
        manifest_path = tmp_path / "data.jsonl"
        save_manifest(blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10),
                      manifest_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 7,
            "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 2]},
            "train": {"epochs": 2, "batch_size": 16, "hidden_dim": 5,
                      "optimizer": {"kind": "sgd", "lr": 0.05},
                      "stage2": {"kind": kind, "epochs": 2}},
        }))
        stage1, final, resumed = (tmp_path / name for name in ("s1.json", "final.json", "s2.json"))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                     "--stage1-checkpoint", str(stage1), "--checkpoint", str(final)]) == 0
        assert main(["stage2", "--checkpoint", str(stage1), "--manifest", str(manifest_path),
                     "--config", str(config_path), "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == final.read_bytes()

    @pytest.mark.parametrize("kind", ["crt", "lws", "disalign", "cosine_retrain", "ncm"])
    def test_stage2_command_rejects_multilabel_before_fitting(self, tmp_path, monkeypatch, capsys,
                                                               kind):
        manifest_path = tmp_path / "ml.jsonl"
        save_manifest(multilabel_manifest(n=60), manifest_path)
        config = {"seed": 1, "dataset": {"manifest": str(manifest_path)},
                  "train": {"epochs": 2, "batch_size": 16, "loss": {"kind": "bce_ml"},
                            "optimizer": {"kind": "sgd", "lr": 0.05}}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        stage1 = tmp_path / "s1.json"
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                     "--stage1-checkpoint", str(stage1)]) == 0
        config["train"]["stage2"] = {"kind": kind}
        config_path.write_text(json.dumps(config))
        steps = count_optimizer_steps(monkeypatch)
        out = tmp_path / "s2.json"
        assert main(["stage2", "--checkpoint", str(stage1), "--manifest", str(manifest_path),
                     "--config", str(config_path), "--out", str(out)]) == 2
        assert "requires single-label data" in capsys.readouterr().err
        assert steps == [] and not out.exists()

    def test_eval_with_posthoc_adjustment(self, tmp_path):
        manifest_path = tmp_path / "data.jsonl"
        save_manifest(blob_manifest([80, 20, 4], val_per_class=10, test_per_class=10),
                      manifest_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 5,
            "dataset": {"manifest": str(manifest_path), "group_boundaries": [1, 2]},
            "train": {"epochs": 3, "batch_size": 16,
                      "optimizer": {"kind": "sgd", "lr": 0.05}},
        }))
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out",
                     str(tmp_path / "r.json"), "--checkpoint", str(ckpt)]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--boundaries", "1,2", "--posthoc-tau", "1.0",
                     "--out", str(tmp_path / "adj.json")]) == 0
        payload = json.loads((tmp_path / "adj.json").read_text())
        assert payload["posthoc_tau"] == 1.0

    def test_overflowing_posthoc_tau_exits_2(self, tmp_path, capsys):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        out = tmp_path / "adj.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--posthoc-tau", "1e308", "--out", str(out)]) == 2
        assert "posthoc tau 1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_posthoc_tau_on_a_multilabel_task_exits_2(self, tmp_path, capsys):
        manifest_path, ckpt = tmp_path / "ml.jsonl", tmp_path / "model.json"
        save_manifest(multilabel_manifest(n=60), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        out = tmp_path / "adj.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                     "--boundaries", "1,2", "--posthoc-tau", "1.0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: post-hoc adjustment applies to single-label tasks\n")
        assert not out.exists()

    def test_unknown_loss_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(small_config() | {"name": "x"}).replace("ce", "zz"))
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "data.jsonl"
        manifest_path.write_text('{"num_classes": 2, "feature_dim": 2, "task": "single"}\n'
                                 '{"id": "a", "features": [1.0, 1' + "0" * 400 + '], '
                                 '"label": 0, "split": "train"}\n')
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 0, "dataset": {"manifest": str(manifest_path)}}))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "r.json")]) == 2
        assert main(["make-longtail", "--manifest", str(manifest_path), "--n0", "1",
                     "--imbalance", "1", "--out", str(tmp_path / "lt.jsonl")]) == 2
        assert capsys.readouterr().err.count("line 2: features must be finite") == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # g * g overflows before the raise
    def test_overflowing_second_moment_exits_1_as_a_divergence(self, tmp_path, capsys):
        # the gradients stay finite, but their squares overflow Adam's second moment, which
        # would freeze every update at m / inf = 0
        raw = small_config()
        raw["dataset"]["synth"]["class_separation"] = 1e200
        raw["train"]["optimizer"] = {"kind": "adam"}
        config_path, report = tmp_path / "c.json", tmp_path / "r.json"
        config_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_path), "--out", str(report)]) == 1
        assert ("training diverged at epoch 0, step 0: Adam second moment overflows for "
                "'cls_w'") in capsys.readouterr().err
        assert not report.exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--manifest", str(tmp_path / "none.jsonl")])
        assert code == 1

    def test_sweep_command(self, tmp_path):
        paths = []
        for kind in ("ce", "balanced_softmax"):
            raw = small_config(name=kind)
            raw["train"]["loss"] = {"kind": kind}
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(raw))
            paths.append(str(path))
        out = tmp_path / "summary.csv"
        assert main(["sweep", "--configs", *paths, "--parallelism", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("method,head,medium,tail,avg")

    def test_sweep_non_object_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["sweep", "--configs", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_sweep_parallelism_below_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config()))
        out = tmp_path / "summary.csv"
        argv = ["sweep", "--configs", str(path), "--parallelism", "-3", "--out", str(out)]
        assert main(argv) == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train --seed", "stage2", "sweep", "synth",
                                         "make-longtail"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        manifest_path, ckpt = tmp_path / "data.jsonl", tmp_path / "model.json"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        save_checkpoint(init_model(3, 4, rng=np.random.default_rng(0)), ckpt)
        config_path, out = tmp_path / "c.json", tmp_path / "out.json"
        raw = small_config(seed=0 if command == "train --seed" else -1)
        raw["train"]["stage2"] = {"kind": "crt", "epochs": 1}
        config_path.write_text(json.dumps(raw))
        argv = {"train": ["train", "--config", str(config_path)],
                "train --seed": ["train", "--config", str(config_path), "--seed", "-1"],
                "stage2": ["stage2", "--checkpoint", str(ckpt), "--manifest", str(manifest_path),
                           "--config", str(config_path)],
                "sweep": ["sweep", "--configs", str(config_path)],
                "synth": ["synth", "--seed", "-1"],
                "make-longtail": ["make-longtail", "--manifest", str(manifest_path), "--n0", "10",
                                  "--imbalance", "2", "--seed", "-5"]}[command]
        before = sorted(os.listdir(tmp_path))
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("seed", [2 ** 63, 10 ** 23])  # a config refuses these seeds too
    @pytest.mark.parametrize("command", ["synth", "make-longtail"])
    def test_seed_beyond_int64_exits_2_and_writes_nothing(self, tmp_path, capsys, command, seed):
        manifest_path, out = tmp_path / "data.jsonl", tmp_path / "out.jsonl"
        save_manifest(blob_manifest([40, 20, 6]), manifest_path)
        argv = {"synth": ["synth"],
                "make-longtail": ["make-longtail", "--manifest", str(manifest_path), "--n0", "10",
                                  "--imbalance", "2"]}[command]
        before = sorted(os.listdir(tmp_path))
        assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 2
        assert "seed must lie within the int64 range" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert main([*argv, "--seed", str(2 ** 63 - 1), "--out", str(out)]) == 0  # the largest

    def test_seed_override_changes_digest(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(small_config()))
        for seed, name in ((None, "a.json"), (9, "b.json")):
            argv = ["train", "--config", str(config_path), "--out", str(tmp_path / name)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            assert main(argv) == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["config_digest"] != b["config_digest"]
        assert b["seed"] == 9
