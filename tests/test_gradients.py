"""Central finite-difference checks of every analytic loss gradient."""
import numpy as np
import pytest

from longtail_lab import LOSS_KINDS, LossSpec, distribution_from_counts
from longtail_lab.losses import MULTI_LABEL_KINDS

from conftest import row_loss

H = 1e-5


def central_difference(f, z, h=H):
    grad = np.zeros_like(z)
    for j in range(z.size):
        step = np.zeros_like(z)
        step[j] = h
        grad[j] = (f(z + step) - f(z - step)) / (2 * h)
    return grad


def relative_error(analytic, numeric):
    # unit floor: FD roundoff (|f|*eps/h ~ 1e-9) dominates once saturation drives
    # the true gradient toward zero, so a bare ratio is unmeasurable there
    scale = max(np.abs(numeric).max(), 1.0)
    return np.abs(analytic - numeric).max() / scale


def check_kind(kind, instances, seed0=0):
    spec = LossSpec(kind)
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed0, i])
        k = int(rng.choice([2, 5, 10]))
        counts = rng.integers(1, 1000, size=k)
        dist = distribution_from_counts(counts)
        z = rng.standard_normal(k)
        if kind in MULTI_LABEL_KINDS:
            target = rng.integers(0, 2, size=k)
        else:
            target = int(rng.integers(k))
        # a fresh generator per evaluation pins the stochastic draw
        noise_seed = int(rng.integers(2 ** 32))
        analytic = row_loss(spec, z, target, dist, seed=noise_seed)[1]
        numeric = central_difference(
            lambda zz: row_loss(spec, zz, target, dist, seed=noise_seed)[0], z)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_analytic_gradient_matches_central_differences(kind):
    assert check_kind(kind, instances=6) < 1e-5


def test_vs_collapse_gradient_equals_ce_elementwise():
    rng = np.random.default_rng(3)
    dist = distribution_from_counts([40, 20, 10, 5])
    for _ in range(20):
        z = rng.standard_normal(4)
        y = int(rng.integers(4))
        ga = row_loss(LossSpec("vs", gamma_vs=0.0, tau_vs=0.0), z, y, dist)[1]
        gb = row_loss(LossSpec("ce"), z, y, dist)[1]
        assert np.abs(ga - gb).max() < 1e-12
