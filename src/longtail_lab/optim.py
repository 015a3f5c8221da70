"""SGD, Adam, and a sharpness-aware wrapper over one flat float64 parameter buffer.

A fit keeps its trainable parameters in one buffer (``flatten``) and reads them
through views shaped like each parameter (``unflatten``). ``Optimizer.step``
packs the gradient dict with one concatenation and updates the buffer in place
with elementwise ufuncs, so each element gets the bits that an update of its own
array would give; the state is one buffer per moment, and every ufunc writes into
one of two scratch buffers allocated with the moments. A step whose SGD momentum
or Adam second moment is not finite (a non-finite gradient, or one whose square
overflows) raises before the parameters move.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio

OPTIMIZER_KINDS = ("sgd", "adam")
_DEFAULT_LR = {"sgd": 0.01, "adam": 3e-4}
_SGD = jsonio.takes(lambda spec: spec.kind == "sgd")  # field metadata: an SGD setting
_ADAM = jsonio.takes(lambda spec: spec.kind == "adam")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float | None = None  # None: the kind's default, set on construction
    momentum: float = field(default=0.9, metadata=_SGD)
    beta1: float = field(default=0.9, metadata=_ADAM)
    beta2: float = field(default=0.999, metadata=_ADAM)
    eps: float = field(default=1e-8, metadata=_ADAM)
    sam: bool = field(default=False, metadata=jsonio.OMIT_UNSET)
    sam_rho: float = field(default=0.05, metadata=jsonio.takes(lambda spec: spec.sam))

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr is None:  # so a spec equals the spec its config parses to
            object.__setattr__(self, "lr", _DEFAULT_LR[self.kind])
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.sam_rho < 0:
            raise ValueError("sam_rho must be non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.momentum >= 0:
            raise ValueError("momentum must be non-negative")
        jsonio.check_finite(self)


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

    def step(self, flat: np.ndarray, grads: dict) -> np.ndarray:
        """Apply ``grads``, a dict of gradients in the order of the parameters, to the flat
        parameter buffer ``flat`` in place; returns ``flat``."""
        g = flatten(grads)
        spec = self.spec
        if not self._moments:
            self._moments = tuple(np.zeros_like(g) for _ in range(1 if spec.kind == "sgd" else 2))
            self._scratch = (np.empty_like(g), np.empty_like(g))
        update, denom = self._scratch
        if spec.kind == "sgd":
            (buf,) = self._moments
            buf *= spec.momentum
            buf += g
            if not np.isfinite(buf).all():
                _refuse(buf, "SGD momentum", grads)
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
            if not np.isfinite(v).all():
                _refuse(v, "Adam second moment", grads)
            np.divide(m, correct1, out=update)
            update *= spec.lr
            np.divide(v, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += spec.eps
            update /= denom
            flat -= update
        return flat


def _refuse(moment: np.ndarray, what: str, grads: dict) -> None:
    """Raise ``ValueError`` for a ``moment`` that is not finite, naming the first parameter
    with a non-finite gradient or, with every gradient finite, the first whose part of
    ``moment`` overflowed."""
    for name, value in grads.items():
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite gradient for {name!r}")
    for name, part in unflatten(moment, grads).items():
        if not np.isfinite(part).all():
            raise ValueError(f"{what} overflows for {name!r}")


def global_grad_norm(grads: dict) -> float:
    """The L2 norm of all gradients, summed parameter by parameter."""
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sam_step(optimizer: Optimizer, params: np.ndarray, grad_fn):
    """One training step on the flat parameter buffer ``params``, sharpness-aware when the
    spec asks for it.

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
        _, grads = grad_fn(params + scale * flatten(grads))
    return value, optimizer.step(params, grads)
