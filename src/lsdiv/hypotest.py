"""Divergence-based parametric hypothesis tests.

One-sample statistic W = 2n * LSD(f_thetahat, f_theta0) and its two-sample
analogue.  With a scalar parameter the null law of either is zeta * chi2_1,
with the single weight zeta = A_beta * K / J^2 evaluated at the null
parameter, so the p-value is the closed-form chi-square tail at W / zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import DiscreteDensity, Psi, TiltParams, _PAD_LOGG, _lsd_from_logs
from .estimation import empirical_frequencies, minimize_lsd, minimize_lsd_many
from .families import PoissonFamily, _points, moments_c_d
from .asymptotics import SingularityError, _density_score, _model_if1, _model_summary

__all__ = [
    "TestResult",
    "model_pair_densities",
    "one_sample_statistic",
    "curvature_a_beta",
    "null_law",
    "weighted_chisq_pvalue",
    "one_sample_test",
    "two_sample_statistic",
    "second_order_test_influence",
]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    weight: float
    p_value: float
    reject_at: dict[float, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "weight": self.weight,
            "p_value": self.p_value,
            "reject_at": {str(k): bool(v) for k, v in self.reject_at.items()},
        }


def model_pair_densities(
    family: PoissonFamily, theta_g: float, theta_f: float
) -> tuple[DiscreteDensity, DiscreteDensity]:
    """Two model densities evaluated on a single common window, so both are
    strictly positive everywhere the divergence looks."""
    x = _points(max(family.support_window(theta_g)[1], family.support_window(theta_f)[1]))
    g = DiscreteDensity(offset=0, mass=family.density(theta_g, x))
    f = DiscreteDensity(offset=0, mass=family.density(theta_f, x))
    return g, f


def divergence_between_fits(
    family: PoissonFamily, theta_g, theta_f: float, p: TiltParams, psi: Psi = Psi.LOG
):
    """LSD(f_theta_g, f_theta_f) between two model densities, in log space,
    or with the identity link ``psi`` the S-divergence (see :func:`gsd`).

    ``theta_g`` is a float, which gives a float, or a 1-d array, which gives
    one divergence per entry from one (rows x window) pass.  Each row sums
    over the union of its two support windows, as :func:`model_pair_densities`
    lays them out, inside one window from 0 that covers them all; outside
    its own a row holds log f = log g = ``_PAD_LOGG``, which weighs nothing.
    """
    theta_g = np.asarray(theta_g, dtype=float)
    if theta_g.ndim > 1:
        raise ValueError("theta_g must be a float or a 1-d array")
    rows = theta_g.reshape(-1, 1)
    length = family.support_window(theta_f)[1]
    ends = np.maximum([[family.support_window(t)[1]] for t in rows[:, 0]], length)
    x = _points(int(ends.max()))
    outside = x >= ends
    logf = np.where(outside, _PAD_LOGG, family.log_density(theta_f, x))
    logg = np.where(outside, _PAD_LOGG, family.log_density(rows, x))
    value = _lsd_from_logs(logf, logf, logg, p, psi)
    return float(value[0]) if theta_g.ndim == 0 else value


def one_sample_statistic(sample, family: PoissonFamily, theta0: float, p: TiltParams) -> float:
    """W = 2n * LSD(f_thetahat, f_theta0)."""
    sample = np.asarray(sample)
    theta_hat = minimize_lsd(empirical_frequencies(sample), family, p).theta_hat
    return 2.0 * sample.size * divergence_between_fits(family, theta_hat, theta0, p)


def curvature_a_beta(family: PoissonFamily, theta0: float, p: TiltParams) -> float:
    """Second derivative of theta -> LSD(f_theta, f_theta0) at theta0.

    In the tilted score moments c_i of :func:`moments_c_d` this is
    (1+beta) * (c2/c0 - (c1/c0)^2): the variance of the score under the
    escort density f^(1+beta)/c0, scaled by 1+beta.  It does not depend on
    gamma and is >= 0 by Cauchy-Schwarz.
    """
    return _curvature(moments_c_d(family, theta0, p.beta)[0], p.beta)


def _curvature(c: np.ndarray, beta: float) -> float:
    """:func:`curvature_a_beta` from the moments c_i at beta."""
    c0, c1, c2 = c[:3]
    return float((1.0 + beta) * (c2 / c0 - (c1 / c0) ** 2))


def null_law(family: PoissonFamily, theta0: float, p: TiltParams) -> float:
    """Weight zeta of the null law zeta * chi2_1 of the statistic.

    zeta = A_beta * K / J^2 with the model-level J and K at theta0; a
    degenerate law (zeta <= 1e-12) gives 0.0.
    """
    c = moments_c_d(family, theta0, p.beta)[0]
    summary = _model_summary(c, moments_c_d(family, theta0, 2.0 * p.beta)[0])
    zeta = _curvature(c, p.beta) * summary.k / summary.j**2
    return zeta if zeta > 1e-12 else 0.0


def weighted_chisq_pvalue(w: float, zeta: float) -> float:
    """P(zeta * Z^2 > w), the chi-square tail at w / zeta."""
    # "not >=" rejects NaN too
    if not w >= 0:
        raise ValueError(f"statistic must be nonnegative, got {w}")
    if not zeta >= 0:
        raise ValueError(f"null-law weight must be nonnegative, got {zeta}")
    if w == 0:
        return 1.0
    if zeta == 0:
        raise SingularityError("degenerate null law: the weight is zero")
    # the chi-square(1) tail at x is erfc(sqrt(x / 2))
    return math.erfc(math.sqrt(0.5 * w / zeta))


def _check_levels(levels) -> None:
    for a in levels:
        if not 0 < a < 1:
            raise ValueError(f"significance level must lie in (0, 1), got {a!r}")


def _build_result(statistic: float, zeta: float, levels) -> TestResult:
    p_value = weighted_chisq_pvalue(statistic, zeta)
    return TestResult(
        statistic=float(statistic),
        weight=zeta,
        p_value=p_value,
        reject_at={float(a): p_value < a for a in levels},
    )


def one_sample_test(
    sample,
    family: PoissonFamily,
    theta0: float,
    p: TiltParams,
    levels=(0.05,),
) -> TestResult:
    """Full one-sample test: estimate, statistic, null law, p-value."""
    _check_levels(levels)
    w = one_sample_statistic(sample, family, theta0, p)
    return _build_result(w, null_law(family, theta0, p), levels)


def two_sample_statistic(
    sample1,
    sample2,
    family: PoissonFamily,
    p: TiltParams,
    levels=(0.05,),
) -> TestResult:
    """Two-sample homogeneity test S = (2nm/(n+m)) * LSD(f_theta1hat, f_theta2hat).

    The null law is evaluated at the minimum-divergence estimate on the
    pooled sample.  The three fits run as one :func:`minimize_lsd_many`
    call; the first that fails (sample 1, 2, pooled) raises its error.
    """
    _check_levels(levels)
    s1 = np.asarray(sample1)
    s2 = np.asarray(sample2)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("both samples must be non-empty")
    samples = (s1, s2, np.concatenate([s1, s2]))
    fits = minimize_lsd_many([empirical_frequencies(s) for s in samples], family, p)
    for fit in fits:
        if isinstance(fit, Exception):
            raise fit
    th1, th2, theta_null = (fit.theta_hat for fit in fits)
    n, m = s1.size, s2.size
    stat = (2.0 * n * m / (n + m)) * divergence_between_fits(family, th1, th2, p)
    return _build_result(stat, null_law(family, theta_null, p), levels)


def second_order_test_influence(
    y: int, family: PoissonFamily, theta0: float, p: TiltParams
) -> float:
    """Second-order influence of the test functional at the null:
    A_beta * IF1(y)^2 (the first-order influence is identically zero)."""
    c = moments_c_d(family, theta0, p.beta)[0]
    fy, uy = _density_score(family, theta0, y)
    return _curvature(c, p.beta) * _model_if1(c, fy, uy, p.beta) ** 2
