"""The benchmark's outside-in tracer (``bench/layertrace.py``) still sees the training loop.

The tracer wraps library functions by name and relies on their call shapes,
e.g. ``sam_step(optimizer, params, grad_fn)`` with ``grad_fn`` returning a
gradient dict. A library change that renames or reshapes one of them would
silently turn its per-layer metrics into ``None`` or zero; this test fails
instead.
"""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from longtail_lab import (OptimizerSpec, SamplerSpec, Stage2Spec, TrainConfig, group_split, optim,
                          training)
from longtail_lab.samplers import BatchSampler

from conftest import blob_manifest


def load_layertrace():
    path = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("bench_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def steps_per_fit(sampler_spec, manifest, epochs, batch_size):
    return epochs * max(1, math.ceil(BatchSampler(sampler_spec, manifest).epoch_length
                                     / batch_size))


def test_tracer_sees_sam_stage1_and_crt_stage2():
    manifest = blob_manifest([40, 20, 6], val_per_class=10, test_per_class=10)
    config = TrainConfig(epochs=2, batch_size=16, hidden_dim=4,
                         optimizer=OptimizerSpec("adam", lr=0.01, sam=True, sam_rho=0.05),
                         stage2=Stage2Spec("crt", epochs=3))
    groups = group_split(manifest.train_distribution(), (1, 2))
    step = optim.Optimizer.step
    with load_layertrace().Tracer() as tracer:
        assert tracer.absent == []
        model, _ = training.train_stage1(manifest, config, rng=np.random.default_rng(0),
                                         groups=groups)
        training.apply_stage2(model, manifest, config, np.random.default_rng(1))
    assert optim.Optimizer.step is step  # every wrapper removed again

    expected_steps = (
        steps_per_fit(config.sampler, manifest, config.epochs, config.batch_size)
        + steps_per_fit(SamplerSpec("class_balanced"), manifest, 3, config.batch_size))
    assert tracer.stats["optim.Optimizer.step"]["calls"] == expected_steps
    # SAM: two gradient passes per step, each a backward call
    assert tracer.stats["model.backward"]["calls"] == 2 * expected_steps
    assert tracer.counters["model.backward.kept_elements"] > 0
    per_layer = tracer.per_layer()
    assert per_layer["model.backward.kept_grad_share"]["value"] == 1.0
    assert per_layer["training.apply_stage2.s"]["value"] > 0
    assert None not in [metric["value"] for metric in per_layer.values()]
