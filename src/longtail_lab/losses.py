"""Re-sampling/re-weighting loss catalog with analytic gradients w.r.t. logits.

Single-label kinds (softmax family), with the ``LossPlan`` fields each sets:

  ce                -log softmax(z)_y
  focal             -alpha * (1 - p_y)^gamma * log p_y
  cb_ce, cb_focal   ce/focal scaled by w_y, w_c ~ (1-beta)/(1-beta^{n_c}), sum w = K [weight]
  ldam              ce over s * (z - delta (.) onehot(y)), delta_c = C / n_c^{1/4},
                    C = m_max * (min_c n_c)^{1/4}                       [margin, mult s]
  prior_ce          ce over z + log pi  (balanced_softmax's plan)                [add]
  balanced_softmax  ce over z + log pi                                           [add]
  weighted_softmax  (-log pi_y + 1) * ce                                      [weight]
  logit_adjust      ce over z + tau * log pi                                     [add]
  vs                ce over delta (.) z + iota, delta_c = (n_c/n_max)^{gamma_vs},
                    iota_c = tau_vs * log pi_c                             [mult, add]
  seql              ce with rare negative classes (pi_c < t) dropped from the
                    softmax denominator with probability q, redrawn per sample [frequent]
  gcl               ce over z - a * A (.) |eps|, eps ~ N(0,1), A_c in [0,1] largest
                    for tail classes (training mode only)           [noise_scale a * A]
  label_smooth_lt   ce against a smoothed target whose smoothing strength grows
                    with the true class's count (head classes smoothed most) [smoothing]

Multi-label kinds (per-class sigmoid, summed over classes):

  bce_ml            binary cross-entropy
  focal_bce_ml      -(1 - p_t)^gamma * log p_t per class

``loss_plan`` computes the per-class constants once per distribution. Every
kind but focal, cb_focal, label_smooth_lt and the multi-label kinds (kernels of
their own) is one cross-entropy over z adjusted, in this order: margin off the
target logit, ``* mult``, ``+ add``, then in training only ``- noise_scale *
noise`` and the seql mask; its gradient is multiplied by ``mult``. Last, every
single-label row's value and gradient are scaled by ``weight[y]``, which stage-2
DisAlign sets to inverse class frequency.

Stochastic kinds (seql, gcl) consume ctx.rng; pre-draw their noise with
draw_noise when one draw must serve several evaluations (value + grad, or a
sharpness-aware second pass).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .distribution import ClassDistribution

SINGLE_LABEL_KINDS = (
    "ce", "focal", "cb_ce", "cb_focal", "ldam", "prior_ce", "weighted_softmax",
    "balanced_softmax", "logit_adjust", "vs", "seql", "gcl", "label_smooth_lt",
)
MULTI_LABEL_KINDS = ("bce_ml", "focal_bce_ml")
LOSS_KINDS = SINGLE_LABEL_KINDS + MULTI_LABEL_KINDS
STOCHASTIC_KINDS = ("seql", "gcl")

# kinds that divide by class counts (or take their log): every n_c must be > 0
_NEEDS_COUNTS = frozenset({
    "cb_ce", "cb_focal", "ldam", "prior_ce", "weighted_softmax",
    "balanced_softmax", "logit_adjust", "vs", "gcl", "label_smooth_lt",
})


def _for(*kinds) -> dict:
    """Field metadata: a hyperparameter that the loss ``kinds`` take."""
    return jsonio.takes(lambda spec: spec.kind in kinds)


@dataclass(frozen=True)
class LossSpec:
    """One loss kind plus its hyperparameters; a config sets only the kind's own."""

    kind: str
    alpha: float = field(default=1.0, metadata=_for("focal", "cb_focal"))
    gamma: float = field(default=2.0, metadata=_for("focal", "cb_focal", "focal_bce_ml"))
    beta: float = field(default=0.9999, metadata=_for("cb_ce", "cb_focal"))
    m_max: float = field(default=0.5, metadata=_for("ldam"))
    scale: float = field(default=30.0, metadata=_for("ldam"))
    tau: float = field(default=1.0, metadata=_for("logit_adjust"))
    gamma_vs: float = field(default=0.3, metadata=_for("vs"))
    tau_vs: float = field(default=1.0, metadata=_for("vs"))
    seql_threshold: float = field(default=0.05, metadata=_for("seql"))
    seql_q: float = field(default=0.9, metadata=_for("seql"))
    gcl_amplitude: float = field(default=1.0, metadata=_for("gcl"))
    eps_head: float = field(default=0.1, metadata=_for("label_smooth_lt"))
    eps_tail: float = field(default=0.0, metadata=_for("label_smooth_lt"))

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.gamma < 0 or self.alpha <= 0:
            raise ValueError("focal needs alpha > 0 and gamma >= 0")
        if self.m_max <= 0 or self.scale <= 0:
            raise ValueError("ldam needs m_max > 0 and scale > 0")
        if not 0.0 <= self.seql_threshold <= 1.0 or not 0.0 <= self.seql_q <= 1.0:
            raise ValueError("seql threshold and q must lie in [0, 1]")
        if self.gcl_amplitude < 0:
            raise ValueError("gcl amplitude must be non-negative")
        if not 0.0 <= self.eps_head < 1.0 or not 0.0 <= self.eps_tail < 1.0:
            raise ValueError("label smoothing strengths must lie in [0, 1)")
        jsonio.check_finite(self)

    @property
    def multi_label(self) -> bool:
        return self.kind in MULTI_LABEL_KINDS


@dataclass
class LossContext:
    """Distribution + randomness + mode for a loss evaluation.

    The rng feeds only seql and gcl; both fall back to plain CE when
    training_mode is off (perturbations disabled at evaluation).
    """

    distribution: ClassDistribution
    rng: np.random.Generator | None = None
    training_mode: bool = True


def cb_weights(dist: ClassDistribution, beta: float) -> np.ndarray:
    """Effective-number class weights w_c ~ (1-beta)/(1-beta^{n_c}), sum w = K."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    _require_positive_counts(dist, "cb weights")
    counts = dist.counts.astype(np.float64)
    raw = (1.0 - beta) / (1.0 - beta ** counts) if beta > 0 else np.ones_like(counts)
    return raw * (dist.num_classes / raw.sum())


def ldam_margins(dist: ClassDistribution, m_max: float) -> np.ndarray:
    """Per-class additive margins delta_c = C / n_c^{1/4}, C = m_max * n_min^{1/4}."""
    _require_positive_counts(dist, "ldam")
    counts = dist.counts.astype(np.float64)
    return m_max * counts.min() ** 0.25 / counts ** 0.25


def gcl_amplitudes(dist: ClassDistribution) -> np.ndarray:
    """Noise amplitudes A_c = (log n_max - log n_c)/(log n_max - log n_min) in [0, 1].

    All-zero for a balanced distribution (no imbalance, no perturbation).
    """
    _require_positive_counts(dist, "gcl")
    logn = np.log(dist.counts.astype(np.float64))
    span = logn.max() - logn.min()
    if span == 0:
        return np.zeros(dist.num_classes)
    return (logn.max() - logn) / span


def label_smoothing_eps(dist: ClassDistribution, eps_head: float, eps_tail: float) -> np.ndarray:
    """Per-class smoothing strength interpolated from eps_tail (n_min) to eps_head (n_max)."""
    _require_positive_counts(dist, "label_smooth_lt")
    logn = np.log(dist.counts.astype(np.float64))
    span = logn.max() - logn.min()
    factor = np.ones(dist.num_classes) if span == 0 else (logn - logn.min()) / span
    return eps_tail + (eps_head - eps_tail) * factor


def posthoc_adjust(logits, dist: ClassDistribution, tau: float) -> np.ndarray:
    """Inference-time logit shift z - tau * log pi (identity at tau = 0)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] != dist.num_classes:
        raise ValueError(f"logits have {z.shape[-1]} classes, distribution has {dist.num_classes}")
    if tau == 0:
        return z.copy()
    _require_positive_counts(dist, "posthoc adjustment")
    with np.errstate(over="ignore"):
        shift = tau * np.log(dist.frequencies)
    if not np.isfinite(shift).all():
        raise ValueError(f"posthoc tau {tau!r} gives a logit shift tau * log pi that is not finite")
    return z - shift


def draw_noise(spec: LossSpec, rng: np.random.Generator, batch_size: int,
               num_classes: int) -> np.ndarray | None:
    """Pre-draw the per-sample stochastic component (None for deterministic kinds)."""
    if spec.kind == "seql":
        return rng.random((batch_size, num_classes))
    if spec.kind == "gcl":
        return np.abs(rng.standard_normal((batch_size, num_classes)))
    return None


def loss_value(spec: LossSpec, logits, target, ctx: LossContext) -> float:
    return _single(spec, logits, target, ctx)[0]


def loss_grad(spec: LossSpec, logits, target, ctx: LossContext) -> np.ndarray:
    return _single(spec, logits, target, ctx)[1]


def loss_value_and_grad(spec: LossSpec, logits, target, ctx: LossContext):
    """Value and d(loss)/d(logits) from a single stochastic draw."""
    return _single(spec, logits, target, ctx)


def _single(spec, logits, target, ctx):
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("expected a single logit vector")
    noise = None
    if spec.kind in STOCHASTIC_KINDS and ctx.training_mode:
        if ctx.rng is None:
            raise ValueError(f"loss kind {spec.kind!r} needs ctx.rng in training mode")
        noise = draw_noise(spec, ctx.rng, 1, z.shape[0])
    targets = np.asarray([target]) if not spec.multi_label else np.asarray(target)[None, :]
    values, grads = batch_loss_and_grad(
        loss_plan(spec, ctx.distribution), z[None, :], targets,
        noise=noise, training=ctx.training_mode,
    )
    return float(values[0]), grads[0]


@dataclass(frozen=True)
class LossPlan:
    """Per-class constants of a loss kind on one distribution; a None field is not used."""

    spec: LossSpec
    num_classes: int
    margin: np.ndarray | None = None
    mult: np.ndarray | float | None = None
    add: np.ndarray | None = None
    noise_scale: np.ndarray | None = None
    frequent: np.ndarray | None = None
    weight: np.ndarray | None = None
    smoothing: np.ndarray | None = None


# kind -> the LossPlan fields it sets from (spec, dist); a kind not listed sets none
_PLAN_FIELDS = {
    "cb_ce": lambda spec, dist: {"weight": cb_weights(dist, spec.beta)},
    "cb_focal": lambda spec, dist: {"weight": cb_weights(dist, spec.beta)},
    "ldam": lambda spec, dist: {"margin": ldam_margins(dist, spec.m_max), "mult": spec.scale},
    "balanced_softmax": lambda spec, dist: {"add": np.log(dist.frequencies)},
    "logit_adjust": lambda spec, dist: {"add": spec.tau * np.log(dist.frequencies)},
    "weighted_softmax": lambda spec, dist: {"weight": 1.0 - np.log(dist.frequencies)},
    "vs": lambda spec, dist: {
        "mult": (dist.counts.astype(np.float64) / dist.counts.max()) ** spec.gamma_vs,
        "add": spec.tau_vs * np.log(dist.frequencies)},
    "seql": lambda spec, dist: {"frequent": dist.frequencies >= spec.seql_threshold},
    "gcl": lambda spec, dist: {"noise_scale": spec.gcl_amplitude * gcl_amplitudes(dist)},
    "label_smooth_lt": lambda spec, dist: {
        "smoothing": label_smoothing_eps(dist, spec.eps_head, spec.eps_tail)},
}
_PLAN_FIELDS["prior_ce"] = _PLAN_FIELDS["balanced_softmax"]  # the same loss under its own name


def loss_plan(spec: LossSpec, dist: ClassDistribution) -> LossPlan:
    """The per-class constants of ``spec`` on ``dist``, for every batch of a fit."""
    if spec.kind in _NEEDS_COUNTS:
        _require_positive_counts(dist, spec.kind)
    fields = _PLAN_FIELDS.get(spec.kind)
    return LossPlan(spec, dist.num_classes, **(fields(spec, dist) if fields else {}))


def batch_loss_and_grad(plan: LossPlan, logits, targets, *,
                        noise: np.ndarray | None = None, training: bool = True):
    """Per-sample loss values (n,) and gradients (n, K) for a batch.

    ``noise`` carries the pre-drawn stochastic component for seql/gcl so the
    same draw serves value, gradient, and any repeated pass over the batch.
    """
    spec = plan.spec
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("logits must be a (batch, classes) array")
    n, k = z.shape
    if k != plan.num_classes:
        raise ValueError(f"logits have {k} classes, distribution has {plan.num_classes}")
    if k < 2:
        raise ValueError("need at least two classes")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")

    if spec.multi_label:
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != (n, k) or not ((t == 0) | (t == 1)).all():
            raise ValueError(f"multi-label targets must be a binary (n, {k}) matrix")
        if spec.kind == "bce_ml":
            return _bce(z, t)
        return _focal_bce(z, t, spec.gamma)

    y = np.asarray(targets, dtype=np.int64)
    if y.shape != (n,):
        raise ValueError("single-label targets must be one class index per row")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"targets must lie in [0, {k})")

    if spec.kind in ("focal", "cb_focal"):
        values, grads = _focal(z, y, spec.alpha, spec.gamma)
    elif spec.kind == "label_smooth_lt":
        eps = plan.smoothing[y]
        t = np.repeat((eps / (k - 1))[:, None], k, axis=1)
        t[np.arange(n), y] = 1.0 - eps
        logp = _log_softmax(z)
        values = -np.sum(np.where(t > 0, t * logp, 0.0), axis=1)
        grads = np.exp(logp) - t
    else:
        values, grads = _adjusted_ce(plan, z, y, noise, training)
    if plan.weight is not None:
        w = plan.weight[y]
        values *= w
        grads *= w[:, None]
    return values, grads


def _adjusted_ce(plan, z, y, noise, training):
    """Cross-entropy over the logits adjusted by the plan's fields, in the documented order."""
    if plan.margin is not None:
        z = z.copy()
        z[np.arange(z.shape[0]), y] -= plan.margin[y]
    if plan.mult is not None:
        z = z * plan.mult
    if plan.add is not None:
        z = z + plan.add
    if training and (plan.noise_scale is not None or plan.frequent is not None):
        if noise is None:
            raise ValueError(f"{plan.spec.kind} needs pre-drawn noise in training mode")
        if plan.noise_scale is not None:
            z = z - plan.noise_scale * noise
        if plan.frequent is not None:
            keep = plan.frequent[None, :] | (noise >= plan.spec.seql_q)
            keep[np.arange(z.shape[0]), y] = True
            z = np.where(keep, z, -np.inf)
    values, grads = _softmax_ce(z, y)
    if plan.mult is not None:
        grads = grads * plan.mult
    return values, grads


def _require_positive_counts(dist, what):
    if dist.zero_classes:
        raise ValueError(
            f"class {dist.zero_classes[0]} has zero samples; {what} divides by class counts"
        )


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):  # exp(-inf) = 0 for seql-masked entries
        shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted


def _softmax_ce(z, y):
    logp = _log_softmax(z)
    rows = np.arange(z.shape[0])
    values = -logp[rows, y]
    grads = np.exp(logp, out=logp)
    grads[rows, y] -= 1.0
    return values, grads


def _focal(z, y, alpha, gamma):
    logp = _log_softmax(z)
    p = np.exp(logp)
    rows = np.arange(z.shape[0])
    pt = p[rows, y]
    logpt = logp[rows, y]
    one_minus = 1.0 - pt
    mod = one_minus ** gamma
    values = -alpha * mod * logpt
    # d(values)/d(pt) * pt, written without dividing by pt
    coeff = -alpha * mod
    if gamma > 0:
        dmod = np.zeros_like(pt)
        pos = one_minus > 0
        dmod[pos] = one_minus[pos] ** (gamma - 1.0)
        coeff = coeff + alpha * gamma * dmod * logpt * pt
    grads = -coeff[:, None] * p
    grads[rows, y] += coeff
    return values, grads


def _bce(z, t):
    # the ufuncs of max(z, 0) - z * t + log1p(exp(-|z|)) and 1 / (1 + exp(-z)) - t, each
    # with the same operands in the same order, written into two buffers
    terms = np.maximum(z, 0.0)
    grads = np.multiply(z, t)
    np.subtract(terms, grads, out=terms)
    np.abs(z, out=grads)
    np.negative(grads, out=grads)
    np.exp(grads, out=grads)
    np.log1p(grads, out=grads)
    np.add(terms, grads, out=terms)
    np.negative(z, out=grads)
    np.exp(grads, out=grads)
    np.add(1.0, grads, out=grads)
    np.divide(1.0, grads, out=grads)
    np.subtract(grads, t, out=grads)
    return np.sum(terms, axis=1), grads


def _focal_bce(z, t, gamma):
    # log pt = log sigma(s), s = z where t > 0 and -z elsewhere, computed stably as
    # -(max(-s, 0) + log1p(exp(-|s|))); |s| = |z|, so the softplus tail is computed once.
    # Each ufunc of the expression form, with the same operands in the same order, writes
    # into one of four buffers: log pt (later the gradients), pt (later 1 - pt, then the
    # inner factor), gamma * log pt * pt (later the per-class values), and (1 - pt)^gamma.
    logpt = z.copy()
    np.negative(z, out=logpt, where=t > 0)
    np.maximum(logpt, 0.0, out=logpt)
    pt = np.abs(z)
    np.negative(pt, out=pt)
    np.exp(pt, out=pt)
    np.log1p(pt, out=pt)
    np.add(logpt, pt, out=logpt)
    np.negative(logpt, out=logpt)
    np.exp(logpt, out=pt)
    scaled = np.multiply(gamma, logpt)
    np.multiply(scaled, pt, out=scaled)
    one_minus = np.subtract(1.0, pt, out=pt)
    mod = one_minus ** gamma
    # d/dz of one class term, using dpt/dz = (2t-1) * pt * (1-pt)
    inner = np.negative(one_minus, out=one_minus)
    if gamma > 0:
        np.add(inner, scaled, out=inner)
    np.negative(mod, out=scaled)
    np.multiply(scaled, logpt, out=scaled)
    values = np.sum(scaled, axis=1)
    grads = np.multiply(2.0, t, out=logpt)
    np.subtract(grads, 1.0, out=grads)
    np.multiply(grads, mod, out=grads)
    np.multiply(grads, inner, out=grads)
    return values, grads
