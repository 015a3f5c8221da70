"""Small differentiable classifier: optional ReLU hidden layer, linear or cosine head.

Checkpoint format (one JSON object on one line, UTF-8, then ``"\n"``)::

    {"format_version": 1, "kind": "ncm", "shape": {"num_classes": 2, "feature_dim": 2},
     "means": [[0.5, -1.0], [2.0, 1.0]], "encoder_w": null, "encoder_b": null}

The header keys come first: ``format_version``, ``kind`` (``"model"`` for a
``ModelState``, ``"ncm"`` for an ``NcmClassifier``) and ``shape``
(``num_classes``, ``feature_dim``, and for a model ``hidden_dim``). The
classifier's dataclass fields follow, in field order, written and read by the
codec of the config sections (``jsonio.fields_to_config``, ``jsonio.parse_fields``).
No classifier field carries ``takes`` or ``OMIT_UNSET`` metadata, so every field
is written: arrays as nested lists of floats with 17 significant digits, an
absent array as ``null``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import jsonio

CLASSIFIER_KINDS = ("linear", "cosine")
CHECKPOINT_VERSION = 1
MAX_HIDDEN_DIM = 1 << 12  # encoder width; a wider one is a config error
# rows per block of encode_rows and of single-label evaluation: bounds their (rows, f) and
# (rows, K) temporaries, whatever the split size
BLOCK_ROWS = 512


@dataclass(kw_only=True)
class ModelState:
    """Classifier parameters.

    The cosine head length-normalizes both weight rows and input features and
    multiplies by a learnable temperature; it carries no bias. ``logit_scale``
    and ``logit_offset`` are the per-class affine calibration used by the
    weight-scaling and logit-alignment stage-2 schemes (z' = scale * z + offset).
    The field order is the key order of a checkpoint file.
    """

    classifier_kind: str = "linear"
    temperature: float | None = None
    cls_w: np.ndarray
    cls_b: np.ndarray | None
    encoder_w: np.ndarray | None = None
    encoder_b: np.ndarray | None = None
    logit_scale: np.ndarray | None = None
    logit_offset: np.ndarray | None = None

    def __post_init__(self):
        check_classifier_kind(self.classifier_kind)
        if self.classifier_kind == "cosine":
            if self.temperature is None:
                raise ValueError("cosine classifier needs a temperature")
            check_temperature(self.temperature)
            if self.cls_b is not None:
                raise ValueError("cosine classifier carries no bias")
        _check_shapes(self, "cls_w", ("cls_b", "logit_scale", "logit_offset"))

    @property
    def num_classes(self) -> int:
        return int(self.cls_w.shape[0])

    @property
    def hidden_dim(self) -> int | None:
        return None if self.encoder_w is None else int(self.encoder_w.shape[0])

    @property
    def feature_dim(self) -> int:
        return int((self.cls_w if self.encoder_w is None else self.encoder_w).shape[1])

    def copy(self) -> "ModelState":
        return replace(self, **{k: v.copy() for k, v in vars(self).items()
                                if isinstance(v, np.ndarray)})


def _check_shapes(classifier, weights: str, per_class: tuple[str, ...] = ()) -> None:
    """Refuse arrays that do not fit together: 2-D ``weights`` of shape (K, f), each
    ``per_class`` vector of shape (K,), and an (f, d) encoder with an (f,) bias."""
    w = getattr(classifier, weights)
    if np.ndim(w) != 2:
        raise ValueError(f"{weights} must be 2-D, got shape {np.shape(w)}")
    k, f = np.shape(w)
    for name in per_class:
        value = getattr(classifier, name)
        if value is not None and np.shape(value) != (k,):
            raise ValueError(f"{name} must have shape ({k},), got {np.shape(value)}")
    enc_w, enc_b = classifier.encoder_w, classifier.encoder_b
    if (enc_w is None) != (enc_b is None):
        raise ValueError("encoder weight and bias must be given together")
    if enc_w is not None and (np.ndim(enc_w) != 2 or np.shape(enc_w)[0] != f
                              or np.shape(enc_b) != (f,)):
        raise ValueError(f"encoder must have shape ({f}, d) with a ({f},) bias, "
                         f"got {np.shape(enc_w)} and {np.shape(enc_b)}")


def check_classifier_kind(classifier_kind: str) -> None:
    if classifier_kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {classifier_kind!r}")


def check_temperature(temperature) -> None:
    """Refuse a cosine temperature, trained or loaded, outside (0, inf)."""
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"cosine temperature must be a finite number > 0, "
                         f"got {float(temperature)!r}")


def check_hidden_dim(hidden_dim: int | None) -> None:
    if hidden_dim is not None and not 1 <= hidden_dim <= MAX_HIDDEN_DIM:
        raise ValueError(f"hidden_dim must lie in [1, {MAX_HIDDEN_DIM}]")


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


def encode(classifier, x: np.ndarray) -> np.ndarray:
    """Classifier-input features: ReLU(x W^T + b) through the encoder, or ``x`` without one."""
    if classifier.encoder_w is None:
        return x
    pre = x @ classifier.encoder_w.T
    pre += classifier.encoder_b
    return np.maximum(pre, 0.0, out=pre)


def row_blocks(n: int) -> list[slice]:
    """Cut ``n`` rows into the fewest blocks of at most ``BLOCK_ROWS`` rows, equal in size to
    within one row, so no tail block is a lone row (which BLAS would run as a gemv)."""
    count = -(-n // BLOCK_ROWS)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def encode_rows(classifier, features: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``encode(classifier, features[idx])``, gathered and encoded a row block at a time.

    Through an encoder, the gathered input rows are held one block at a time,
    never beside the whole encoded copy. Each block runs the same GEMM rows and
    per-row ufuncs as encoding all rows at once, which gives the same bits where
    BLAS gives a row the same result in a GEMM of a different row count.
    """
    if classifier.encoder_w is None:
        return features[idx]
    out = np.empty((idx.size, classifier.encoder_w.shape[0]))
    for block in row_blocks(idx.size):
        out[block] = encode(classifier, features[idx[block]])
    return out


def forward_with_cache(model: ModelState, x: np.ndarray):
    """Batched forward pass keeping the intermediates backward() needs."""
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ValueError(f"expected features of dimension {model.feature_dim}")
    feats = encode(model, x)
    cache: dict = {"x": x, "feats": feats}

    if model.classifier_kind == "linear":
        base = feats @ model.cls_w.T
        if model.cls_b is not None:
            base += model.cls_b
    else:
        w_norm = row_norms(model.cls_w)
        x_norm = row_norms(feats)
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


# every parameter backward() can differentiate; the ones below the logit calibration
_PARAM_KEYS = frozenset(("logit_offset", "logit_scale", "cls_w", "cls_b", "temperature",
                         "encoder_w", "encoder_b"))
_BELOW_CALIBRATION = _PARAM_KEYS - {"logit_offset", "logit_scale"}


def backward(model: ModelState, cache: dict, grad_logits: np.ndarray, out=None) -> dict:
    """Parameter gradients (summed over the batch) from d(loss)/d(logits).

    With ``out`` (views of a fit's flat buffer), the gradients it names are written into
    it and ``out`` returned; else every gradient of the model is returned.
    """
    grads = {} if out is None else out
    want = _PARAM_KEYS if out is None else frozenset(out)
    g = grad_logits
    if model.logit_offset is not None and "logit_offset" in want:
        grads["logit_offset"] = g.sum(axis=0, out=grads.get("logit_offset"))
    if model.logit_scale is not None and "logit_scale" in want:
        grads["logit_scale"] = (g * cache["base"]).sum(axis=0, out=grads.get("logit_scale"))
    if want.isdisjoint(_BELOW_CALIBRATION):
        return grads
    if model.logit_scale is not None:
        g = g * model.logit_scale

    feats = cache["feats"]
    if model.classifier_kind == "linear":
        if "cls_w" in want:
            grads["cls_w"] = np.matmul(g.T, feats, out=grads.get("cls_w"))
        if model.cls_b is not None and "cls_b" in want:
            grads["cls_b"] = g.sum(axis=0, out=grads.get("cls_b"))
    else:
        temp = model.temperature
        cos = cache["cos"]
        g_cos = g * cos
        if "temperature" in want:
            grads["temperature"] = np.asarray(g_cos.sum(out=grads.get("temperature")))
        if "cls_w" in want:
            # d cos_ic / d w_c = (x_hat_i - cos_ic * w_hat_c) / ||w_c||
            per_class = g.T @ cache["x_hat"] - g_cos.sum(axis=0)[:, None] * cache["w_hat"]
            per_class *= temp
            grads["cls_w"] = np.divide(per_class, cache["w_safe"][:, None], out=grads.get("cls_w"))
            grads["cls_w"][cache["w_norm"] == 0] = 0.0

    if model.encoder_w is not None and not want.isdisjoint(("encoder_w", "encoder_b")):
        if model.classifier_kind == "linear":
            g_feats = g @ model.cls_w
        else:
            # d cos_ic / d x_i = (w_hat_c - cos_ic * x_hat_i) / ||x_i||
            g_feats = temp * (g @ cache["w_hat"] - g_cos.sum(axis=1, keepdims=True)
                              * cache["x_hat"]) / cache["x_safe"][:, None]
            g_feats[cache["x_norm"] == 0] = 0.0
        g_feats *= feats > 0  # ReLU mask: feats > 0 exactly where pre > 0
        if "encoder_w" in want:
            grads["encoder_w"] = np.matmul(g_feats.T, cache["x"], out=grads.get("encoder_w"))
        if "encoder_b" in want:
            grads["encoder_b"] = g_feats.sum(axis=0, out=grads.get("encoder_b"))
    return grads


def row_norms(a: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of ``a``, with none lost to the range of its squares.

    A row whose plain norm reads 0 though an entry is nonzero (entries below ~1.5e-154
    square to 0), or inf though every entry is finite (one above ~1.3e154 squares to
    inf), is recomputed as max|w| * ||w / max|w|||; other rows keep the plain norm's bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
        redo = np.flatnonzero((norms == 0) | (norms == np.inf))
        if redo.size:
            peak = np.abs(a[redo]).max(axis=1)
            scaled = (peak > 0) & (peak < np.inf)  # neither a zero row nor one holding inf
            redo, peak = redo[scaled], peak[scaled]
            norms[redo] = peak * np.linalg.norm(a[redo] / peak[:, None], axis=1)
    return norms


def weight_norms(model: ModelState) -> np.ndarray:
    """Classifier row L2 norms per class, in class-index order (``row_norms``)."""
    return row_norms(model.cls_w)


def tau_normalize(model: ModelState, tau: float) -> ModelState:
    """Rescale rows to w_c / ||w_c||^tau and zero the bias; no training involved."""
    if model.classifier_kind != "linear":
        raise ValueError("tau normalization requires a linear classifier")
    out = model.copy()
    if tau == 0:
        new_w = out.cls_w
    else:
        norms = weight_norms(out)
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

    def __post_init__(self):
        _check_shapes(self, "means")

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.means.shape[1]) if self.encoder_w is None else int(self.encoder_w.shape[1])


def decision_scores(classifier, features) -> np.ndarray:
    """Per-class decision scores: logits for a ModelState, -distances for NCM.

    NCM scores -||z - m_c||, z = encode(classifier, x), from one GEMM in O(n*K) memory:
    ||z - m_c||^2 = ||z||^2 - 2 z.m_c + ||m_c||^2, clipped at 0. Its absolute error grows
    like eps * ||z||^2 for a point near a mean far from the origin.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if isinstance(classifier, ModelState):
        scores = forward_with_cache(classifier, x)[0]
    elif isinstance(classifier, NcmClassifier):
        z, means = encode(classifier, x), classifier.means
        sq = z @ means.T
        sq *= -2.0
        sq += np.einsum("ij,ij->i", z, z)[:, None]
        sq += np.einsum("ij,ij->i", means, means)
        scores = -np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    else:
        raise TypeError(f"unsupported classifier type {type(classifier).__name__}")
    return scores[0] if single else scores


CHECKPOINT_KINDS = {"model": ModelState, "ncm": NcmClassifier}


def _shape(classifier) -> dict:
    shape = {"num_classes": classifier.num_classes, "feature_dim": classifier.feature_dim}
    if isinstance(classifier, ModelState):
        shape["hidden_dim"] = classifier.hidden_dim
    return shape


def save_checkpoint(classifier, path) -> None:
    """Write a ModelState or NcmClassifier in the checkpoint format of the module docstring."""
    kind = next((k for k, cls in CHECKPOINT_KINDS.items() if type(classifier) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(classifier).__name__}")
    payload = {"format_version": CHECKPOINT_VERSION, "kind": kind, "shape": _shape(classifier),
               **jsonio.fields_to_config(classifier)}
    jsonio.write_atomic(path, jsonio.dumps(payload) + "\n")


def load_checkpoint(path):
    """The classifier a checkpoint file holds; a malformed checkpoint raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    version, kind, shape = (payload.pop(key, None) for key in ("format_version", "kind", "shape"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    cls = CHECKPOINT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    classifier = jsonio.parse_fields(cls, payload, "checkpoint")
    if _shape(classifier) != shape:
        raise ValueError("checkpoint arrays do not match the shape header")
    return classifier
