"""SGD, Adam, and a sharpness-aware wrapper over named parameter dictionaries."""
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

    @property
    def resolved_lr(self) -> float:
        return self.lr

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


class Optimizer:
    """Stateful inner optimizer; step() returns fresh parameter arrays."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self._state: dict[str, dict] = {}
        self._t = 0

    def step(self, params: dict, grads: dict) -> dict:
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient for {name!r}")
        lr = self.spec.resolved_lr
        updated = {}
        if self.spec.kind == "sgd":
            for name, p in params.items():
                g = grads[name]
                st = self._slots(name, p, ("buf",))
                st["buf"] = buf = self.spec.momentum * st["buf"] + g
                updated[name] = p - lr * buf
        else:
            self._t += 1
            correct1 = 1.0 - self.spec.beta1 ** self._t
            correct2 = 1.0 - self.spec.beta2 ** self._t
            for name, p in params.items():
                g = grads[name]
                st = self._slots(name, p, ("m", "v"))
                st["m"] = self.spec.beta1 * st["m"] + (1.0 - self.spec.beta1) * g
                st["v"] = self.spec.beta2 * st["v"] + (1.0 - self.spec.beta2) * g * g
                m_hat = st["m"] / correct1
                v_hat = st["v"] / correct2
                updated[name] = p - lr * m_hat / (np.sqrt(v_hat) + self.spec.eps)
        return updated

    def _slots(self, name: str, p: np.ndarray, keys: tuple[str, ...]) -> dict:
        """The state of parameter ``name``, zero-filled on its first step only."""
        st = self._state.get(name)
        if st is None:
            st = self._state[name] = {key: np.zeros_like(p) for key in keys}
        return st


def global_grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sam_step(optimizer: Optimizer, params: dict, grad_fn):
    """One training step, sharpness-aware when the spec asks for it.

    grad_fn(params) -> (loss_value, grads). With sam enabled the gradient is
    recomputed at params + rho * g / ||g|| (same batch, same stochastic draws)
    and the inner optimizer applies that gradient from the unperturbed params.
    rho = 0 reduces exactly to the inner optimizer: the perturbation is the
    zero vector, so the second pass is skipped.
    """
    spec = optimizer.spec
    value, grads = grad_fn(params)
    if spec.sam and spec.sam_rho > 0:
        scale = spec.sam_rho / (global_grad_norm(grads) + 1e-12)
        shifted = {name: p + scale * grads[name] for name, p in params.items()}
        _, grads = grad_fn(shifted)
    return value, optimizer.step(params, grads)
