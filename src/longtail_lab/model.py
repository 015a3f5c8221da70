"""Small differentiable classifier: optional ReLU hidden layer, linear or cosine head."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import jsonio

CLASSIFIER_KINDS = ("linear", "cosine")
CHECKPOINT_VERSION = 1
NCM_CHUNK_ELEMENTS = 1 << 20  # difference-tensor elements per NCM scoring chunk (8 MB)


@dataclass
class ModelState:
    """Classifier parameters.

    The cosine head length-normalizes both weight rows and input features and
    multiplies by a learnable temperature; it carries no bias. ``logit_scale``
    and ``logit_offset`` are the per-class affine calibration used by the
    weight-scaling and logit-alignment stage-2 schemes (z' = scale * z + offset).
    """

    cls_w: np.ndarray
    cls_b: np.ndarray | None
    classifier_kind: str = "linear"
    temperature: float | None = None
    encoder_w: np.ndarray | None = None
    encoder_b: np.ndarray | None = None
    logit_scale: np.ndarray | None = None
    logit_offset: np.ndarray | None = None

    def __post_init__(self):
        check_classifier_kind(self.classifier_kind)
        if self.classifier_kind == "cosine":
            if self.temperature is None:
                raise ValueError("cosine classifier needs a temperature")
            if self.cls_b is not None:
                raise ValueError("cosine classifier carries no bias")
        if (self.encoder_w is None) != (self.encoder_b is None):
            raise ValueError("encoder weight and bias must be given together")

    @property
    def num_classes(self) -> int:
        return int(self.cls_w.shape[0])

    @property
    def classifier_input_dim(self) -> int:
        return int(self.cls_w.shape[1])

    @property
    def hidden_dim(self) -> int | None:
        return None if self.encoder_w is None else int(self.encoder_w.shape[0])

    @property
    def feature_dim(self) -> int:
        return self.classifier_input_dim if self.encoder_w is None else int(self.encoder_w.shape[1])

    def copy(self) -> "ModelState":
        def cp(a):
            return None if a is None else a.copy()
        return ModelState(
            cls_w=self.cls_w.copy(), cls_b=cp(self.cls_b),
            classifier_kind=self.classifier_kind, temperature=self.temperature,
            encoder_w=cp(self.encoder_w), encoder_b=cp(self.encoder_b),
            logit_scale=cp(self.logit_scale), logit_offset=cp(self.logit_offset),
        )


def check_classifier_kind(classifier_kind: str) -> None:
    if classifier_kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {classifier_kind!r}")


def check_hidden_dim(hidden_dim: int | None) -> None:
    if hidden_dim is not None and hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1")


def init_model(num_classes: int, feature_dim: int, *, hidden_dim: int | None = None,
               classifier_kind: str = "linear", temperature: float = 16.0,
               rng: np.random.Generator | None = None) -> ModelState:
    """Fresh model: zero-initialized linear head, or small random rows for cosine."""
    check_hidden_dim(hidden_dim)
    rng = rng or np.random.default_rng(0)
    encoder_w = encoder_b = None
    f = feature_dim
    if hidden_dim is not None:
        encoder_w = rng.standard_normal((hidden_dim, feature_dim)) * np.sqrt(2.0 / feature_dim)
        encoder_b = np.zeros(hidden_dim)
        f = hidden_dim
    if classifier_kind == "cosine":
        cls_w = 0.01 * rng.standard_normal((num_classes, f))
        cls_b = None
        temp = float(temperature)
    else:
        cls_w = np.zeros((num_classes, f))
        cls_b = np.zeros(num_classes)
        temp = None
    return ModelState(cls_w=cls_w, cls_b=cls_b, classifier_kind=classifier_kind,
                      temperature=temp, encoder_w=encoder_w, encoder_b=encoder_b)


def forward(model: ModelState, features) -> np.ndarray:
    """Logits for a single feature vector or a (n, d) batch."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    logits, _ = forward_with_cache(model, x)
    return logits[0] if single else logits


def encode(classifier, x: np.ndarray) -> np.ndarray:
    """Classifier-input features: ReLU(x W^T + b) through the encoder, or ``x`` without one."""
    if classifier.encoder_w is None:
        return x
    return np.maximum(x @ classifier.encoder_w.T + classifier.encoder_b, 0.0)


def forward_with_cache(model: ModelState, x: np.ndarray):
    """Batched forward pass keeping the intermediates backward() needs."""
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ValueError(f"expected features of dimension {model.feature_dim}")
    feats = encode(model, x)
    cache: dict = {"x": x, "feats": feats}

    if model.classifier_kind == "linear":
        base = feats @ model.cls_w.T
        if model.cls_b is not None:
            base = base + model.cls_b
    else:
        w_norm = np.linalg.norm(model.cls_w, axis=1)
        x_norm = np.linalg.norm(feats, axis=1)
        w_safe = np.where(w_norm > 0, w_norm, 1.0)
        x_safe = np.where(x_norm > 0, x_norm, 1.0)
        w_hat = model.cls_w / w_safe[:, None]
        x_hat = feats / x_safe[:, None]
        cos = x_hat @ w_hat.T
        base = model.temperature * cos
        cache.update(w_norm=w_norm, x_norm=x_norm, w_safe=w_safe, x_safe=x_safe,
                     w_hat=w_hat, x_hat=x_hat, cos=cos)

    cache["base"] = base
    logits = base
    if model.logit_scale is not None:
        logits = logits * model.logit_scale
    if model.logit_offset is not None:
        logits = logits + model.logit_offset
    return logits, cache


def backward(model: ModelState, cache: dict, grad_logits: np.ndarray) -> dict:
    """Parameter gradients (summed over the batch) from d(loss)/d(logits)."""
    g = grad_logits
    grads: dict = {}
    if model.logit_offset is not None:
        grads["logit_offset"] = g.sum(axis=0)
    if model.logit_scale is not None:
        grads["logit_scale"] = (g * cache["base"]).sum(axis=0)
        g = g * model.logit_scale

    feats = cache["feats"]
    if model.classifier_kind == "linear":
        grads["cls_w"] = g.T @ feats
        if model.cls_b is not None:
            grads["cls_b"] = g.sum(axis=0)
    else:
        temp = model.temperature
        cos = cache["cos"]
        g_cos = g * cos
        grads["temperature"] = np.asarray(g_cos.sum())
        # d cos_ic / d w_c = (x_hat_i - cos_ic * w_hat_c) / ||w_c||
        per_class = g.T @ cache["x_hat"] - g_cos.sum(axis=0)[:, None] * cache["w_hat"]
        grads["cls_w"] = temp * per_class / cache["w_safe"][:, None]
        grads["cls_w"][cache["w_norm"] == 0] = 0.0

    if model.encoder_w is not None:
        if model.classifier_kind == "linear":
            g_feats = g @ model.cls_w
        else:
            # d cos_ic / d x_i = (w_hat_c - cos_ic * x_hat_i) / ||x_i||
            g_feats = temp * (g @ cache["w_hat"] - g_cos.sum(axis=1, keepdims=True)
                              * cache["x_hat"]) / cache["x_safe"][:, None]
            g_feats[cache["x_norm"] == 0] = 0.0
        g_pre = g_feats * (feats > 0)  # ReLU mask: feats > 0 exactly where pre > 0
        grads["encoder_w"] = g_pre.T @ cache["x"]
        grads["encoder_b"] = g_pre.sum(axis=0)
    return grads


def weight_norms(model: ModelState) -> np.ndarray:
    """Classifier row L2 norms per class, in class-index order."""
    return np.linalg.norm(model.cls_w, axis=1)


def tau_normalize(model: ModelState, tau: float) -> ModelState:
    """Rescale rows to w_c / ||w_c||^tau and zero the bias; no training involved."""
    if model.classifier_kind != "linear":
        raise ValueError("tau normalization requires a linear classifier")
    out = model.copy()
    if tau == 0:
        new_w = out.cls_w
    else:
        norms = np.linalg.norm(out.cls_w, axis=1)
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise ValueError(f"class {int(zero[0])} has a zero-norm row; tau={tau} is undefined")
        new_w = out.cls_w / norms[:, None] ** tau
    return replace(out, cls_w=new_w, cls_b=np.zeros(model.num_classes))


@dataclass
class NcmClassifier:
    """Nearest-class-mean head over a frozen encoder (pseudo-logits = -distance)."""

    means: np.ndarray
    encoder_w: np.ndarray | None = None
    encoder_b: np.ndarray | None = None

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.means.shape[1]) if self.encoder_w is None else int(self.encoder_w.shape[1])


def decision_scores(classifier, features) -> np.ndarray:
    """Per-class decision scores: logits for a ModelState, -distances for NCM."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if isinstance(classifier, ModelState):
        scores = forward(classifier, x)
    elif isinstance(classifier, NcmClassifier):
        x = encode(classifier, x)
        # (rows, K, d) differences a chunk of rows at a time: memory O(n*K), not O(n*K*d);
        # each score reduces over d alone, so chunking leaves every bit unchanged
        means = classifier.means
        rows = max(1, NCM_CHUNK_ELEMENTS // max(1, means.size))
        scores = np.empty((x.shape[0], means.shape[0]))
        for start in range(0, x.shape[0], rows):
            diffs = x[start:start + rows, None, :] - means[None, :, :]
            scores[start:start + rows] = -np.sqrt((diffs ** 2).sum(axis=2))
    else:
        raise TypeError(f"unsupported classifier type {type(classifier).__name__}")
    return scores[0] if single else scores


def save_checkpoint(classifier, path) -> None:
    """Versioned JSON dump of a ModelState or NcmClassifier with a shape header."""
    def arr(a):
        return None if a is None else a
    if isinstance(classifier, ModelState):
        payload = {
            "format_version": CHECKPOINT_VERSION,
            "kind": "model",
            "shape": {
                "num_classes": classifier.num_classes,
                "feature_dim": classifier.feature_dim,
                "hidden_dim": classifier.hidden_dim,
            },
            "classifier_kind": classifier.classifier_kind,
            "temperature": classifier.temperature,
            "cls_w": classifier.cls_w,
            "cls_b": arr(classifier.cls_b),
            "encoder_w": arr(classifier.encoder_w),
            "encoder_b": arr(classifier.encoder_b),
            "logit_scale": arr(classifier.logit_scale),
            "logit_offset": arr(classifier.logit_offset),
        }
    elif isinstance(classifier, NcmClassifier):
        payload = {
            "format_version": CHECKPOINT_VERSION,
            "kind": "ncm",
            "shape": {
                "num_classes": classifier.num_classes,
                "feature_dim": classifier.feature_dim,
            },
            "means": classifier.means,
            "encoder_w": arr(classifier.encoder_w),
            "encoder_b": arr(classifier.encoder_b),
        }
    else:
        raise TypeError(f"cannot checkpoint {type(classifier).__name__}")
    jsonio.write_atomic(path, jsonio.dumps(payload) + "\n")


def load_checkpoint(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")

    def arr(key):
        value = payload.get(key)
        return None if value is None else np.asarray(value, dtype=np.float64)

    kind = payload.get("kind")
    shape = payload.get("shape", {})
    if kind == "model":
        model = ModelState(
            cls_w=arr("cls_w"), cls_b=arr("cls_b"),
            classifier_kind=payload["classifier_kind"],
            temperature=payload.get("temperature"),
            encoder_w=arr("encoder_w"), encoder_b=arr("encoder_b"),
            logit_scale=arr("logit_scale"), logit_offset=arr("logit_offset"),
        )
        if (model.num_classes != shape.get("num_classes")
                or model.feature_dim != shape.get("feature_dim")
                or model.hidden_dim != shape.get("hidden_dim")):
            raise ValueError("checkpoint arrays do not match the shape header")
        return model
    if kind == "ncm":
        ncm = NcmClassifier(means=arr("means"), encoder_w=arr("encoder_w"),
                            encoder_b=arr("encoder_b"))
        if (ncm.num_classes != shape.get("num_classes")
                or ncm.feature_dim != shape.get("feature_dim")):
            raise ValueError("checkpoint arrays do not match the shape header")
        return ncm
    raise ValueError(f"unknown checkpoint kind {kind!r}")
