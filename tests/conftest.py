import tracemalloc

import numpy as np
import pytest

from longtail_lab import Manifest, batch_loss_and_grad, draw_noise, loss_plan
from longtail_lab import manifest as manifest_module


@pytest.fixture(autouse=True)
def cold_manifest_cache():
    """Start every test with no kept manifest parse and no kept synth ids, so parse counts,
    id checks and peaks do not depend on the order tests run in."""
    manifest_module._last_parse = None
    manifest_module._synth_ids = None


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc saw allocated while it ran.

    Only blocks allocated during the call count, so arrays built before it are not part
    of the peak, and neither is what the call frees of them.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def row_loss(spec, logits, target, dist, *, seed=None):
    """The loss value and gradient of one logit vector: row 0 of one ``batch_loss_and_grad``
    call on the batch of that row alone.

    With ``seed``, the row's noise (seql, gcl) is ``draw_noise`` from a generator seeded
    with it; without, a stochastic kind is refused for want of noise.
    """
    z = np.asarray(logits, dtype=np.float64)[None]
    noise = None if seed is None else draw_noise(spec, np.random.default_rng(seed), *z.shape)
    values, grads = batch_loss_and_grad(loss_plan(spec, dist), z, np.asarray(target)[None],
                                        noise=noise)
    return float(values[0]), grads[0]


def reference_backward(model, cache, g, keys):
    """The gradients of ``keys`` (summed over the batch) from d(loss)/d(logits) ``g``, each
    written from its formula as an out-of-place expression into a new array: the oracle
    for ``model.backward``, which writes them into a fit's gradient buffer."""
    grads = {}
    if model.logit_offset is not None:
        grads["logit_offset"] = g.sum(axis=0)
    if model.logit_scale is not None:
        grads["logit_scale"] = (g * cache["base"]).sum(axis=0)
        g = g * model.logit_scale  # d(loss)/d(base)
    feats = cache["feats"]
    if model.classifier_kind == "linear":
        grads["cls_w"] = g.T @ feats
        grads["cls_b"] = g.sum(axis=0)
        g_feats = g @ model.cls_w
    else:  # base = T * cos(x_i, w_c)
        temp, g_cos = model.temperature, g * cache["cos"]
        grads["temperature"] = np.asarray(g_cos.sum())
        # d cos_ic / d w_c = (x_hat_i - cos_ic * w_hat_c) / ||w_c||, 0 for a zero row
        per_class = g.T @ cache["x_hat"] - g_cos.sum(axis=0)[:, None] * cache["w_hat"]
        grads["cls_w"] = temp * per_class / cache["w_safe"][:, None]
        grads["cls_w"][cache["w_norm"] == 0] = 0.0
        # d cos_ic / d x_i = (w_hat_c - cos_ic * x_hat_i) / ||x_i||, 0 for a zero row
        g_feats = temp * (g @ cache["w_hat"] - g_cos.sum(axis=1, keepdims=True)
                          * cache["x_hat"]) / cache["x_safe"][:, None]
        g_feats[cache["x_norm"] == 0] = 0.0
    if model.encoder_w is not None:  # feats = ReLU(x W^T + b)
        g_pre = g_feats * (feats > 0)
        grads["encoder_w"] = g_pre.T @ cache["x"]
        grads["encoder_b"] = g_pre.sum(axis=0)
    return {k: grads[k] for k in keys}


def blob_manifest(train_counts, feature_dim=4, val_per_class=5, test_per_class=5,
                  separation=4.0, seed=0):
    """Axis-aligned Gaussian blobs with explicit per-class train counts."""
    k = len(train_counts)
    assert k <= feature_dim, "axis-aligned means need K <= d"
    rng = np.random.default_rng(seed)
    means = separation * np.eye(feature_dim)[:k]
    ids, rows, labels, splits = [], [], [], []
    for split, counts in (("train", train_counts),
                          ("val", [val_per_class] * k),
                          ("test", [test_per_class] * k)):
        for c in range(k):
            n = int(counts[c])
            rows.append(means[c] + rng.standard_normal((n, feature_dim)))
            labels.extend([c] * n)
            splits.extend([split] * n)
            ids.extend(f"{split}-{c}-{i}" for i in range(n))
    return Manifest(
        ids=tuple(ids), features=np.concatenate(rows), labels=np.asarray(labels),
        splits=np.asarray(splits), num_classes=k, feature_dim=feature_dim,
        task_kind="single",
    )


def multilabel_manifest(n=40, num_classes=3, feature_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, feature_dim))
    labels = (rng.random((n, num_classes)) < np.array([0.7, 0.4, 0.15])).astype(np.int64)
    labels[0] = [1, 1, 1]  # ensure every label has a positive
    splits = np.array(["train"] * (n - 20) + ["val"] * 10 + ["test"] * 10)
    return Manifest(
        ids=tuple(f"r{i}" for i in range(n)), features=features, labels=labels,
        splits=splits, num_classes=num_classes, feature_dim=feature_dim,
        task_kind="multi",
    )


@pytest.fixture
def tiny_manifest():
    return blob_manifest([20, 10, 5])
