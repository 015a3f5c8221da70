"""SGD, Adam, and a sharpness-aware wrapper over one flat float64 parameter buffer.

A fit keeps its trainable parameters in one buffer (``flatten``) and reads them
through views shaped like each parameter (``unflatten``). ``Optimizer.step``
packs the gradient dict with one concatenation and updates the buffer in place
with elementwise ufuncs, so each element gets the bits that an update of its own
array would give; the state is one buffer per moment, and every ufunc writes into
one of two scratch buffers allocated with the moments. Given a dict of arrays,
``step`` packs it, applies the same update and returns a dict of fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio

OPTIMIZER_KINDS = ("sgd", "adam")
_DEFAULT_LR = {"sgd": 0.01, "adam": 3e-4}


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float | None = None  # None: the kind's default, set on construction
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    sam: bool = False
    sam_rho: float = 0.05

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr is None:  # so a spec equals the spec its config parses to
            object.__setattr__(self, "lr", _DEFAULT_LR[self.kind])
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.sam_rho < 0:
            raise ValueError("sam_rho must be non-negative")

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "lr": self.lr}
        if self.kind == "sgd":
            cfg["momentum"] = self.momentum
        else:
            cfg.update(beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        if self.sam:
            cfg.update(sam=True, sam_rho=self.sam_rho)
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "OptimizerSpec":
        return jsonio.parse_fields(cls, cfg, "optimizer")


def flatten(arrays: dict) -> np.ndarray:
    """The values of ``arrays``, in order, raveled into one new float64 buffer."""
    return np.concatenate(list(arrays.values()), axis=None, dtype=np.float64)


def unflatten(flat: np.ndarray, like: dict) -> dict:
    """Views of ``flat`` with the names and shapes of the values of ``like``, in order."""
    views, start = {}, 0
    for name, value in like.items():
        stop = start + np.size(value)
        views[name] = flat[start:stop].reshape(np.shape(value))
        start = stop
    return views


class Optimizer:
    """Stateful inner optimizer over one flat parameter buffer."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self._moments: tuple[np.ndarray, ...] = ()  # (buf,) for SGD, (m, v) for Adam
        self._scratch: tuple[np.ndarray, ...] = ()
        self._t = 0

    def step(self, params, grads: dict):
        """Apply ``grads``, a dict of gradients in the order of the parameters.

        ``params`` is the flat buffer, updated in place and returned, or a
        dict of arrays, for which a dict of fresh arrays is returned.
        """
        as_dict = isinstance(params, dict)
        if as_dict:
            grads = {name: grads[name] for name in params}
        flat = flatten(params) if as_dict else params
        g = flatten(grads)
        if not np.isfinite(g).all():
            name = next(name for name, v in grads.items() if not np.isfinite(v).all())
            raise ValueError(f"non-finite gradient for {name!r}")
        spec = self.spec
        if not self._moments:
            self._moments = tuple(np.zeros_like(g) for _ in range(1 if spec.kind == "sgd" else 2))
            self._scratch = (np.empty_like(g), np.empty_like(g))
        update, denom = self._scratch
        if spec.kind == "sgd":
            (buf,) = self._moments
            buf *= spec.momentum
            buf += g
            flat -= np.multiply(spec.lr, buf, out=update)
        else:
            m, v = self._moments
            self._t += 1
            correct1 = 1.0 - spec.beta1 ** self._t
            correct2 = 1.0 - spec.beta2 ** self._t
            m *= spec.beta1
            m += np.multiply(1.0 - spec.beta1, g, out=update)
            v *= spec.beta2
            np.multiply(1.0 - spec.beta2, g, out=update)
            v += np.multiply(update, g, out=update)
            np.divide(m, correct1, out=update)
            update *= spec.lr
            np.divide(v, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += spec.eps
            update /= denom
            flat -= update
        return unflatten(flat, params) if as_dict else flat


def global_grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sam_step(optimizer: Optimizer, params, grad_fn):
    """One training step, sharpness-aware when the spec asks for it.

    ``params`` is a flat buffer or a dict of arrays, as for ``Optimizer.step``;
    grad_fn(params) -> (loss_value, grads), grads a dict in parameter order.
    With sam enabled the gradient is recomputed at a new params + rho * g / ||g||
    (same batch, same stochastic draws) and the inner optimizer applies that
    gradient from the unperturbed params. rho = 0 reduces exactly to the inner
    optimizer: the perturbation is the zero vector, so the second pass is skipped.
    """
    spec = optimizer.spec
    value, grads = grad_fn(params)
    if spec.sam and spec.sam_rho > 0:
        scale = spec.sam_rho / (global_grad_norm(grads) + 1e-12)
        if isinstance(params, dict):
            shifted = {name: p + scale * grads[name] for name, p in params.items()}
        else:
            shifted = params + scale * flatten(grads)
        _, grads = grad_fn(shifted)
    return value, optimizer.step(params, grads)
