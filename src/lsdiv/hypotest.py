"""Divergence-based parametric hypothesis tests.

One-sample statistic W = 2n * LSD(f_thetahat, f_theta0) and its two-sample
analogue, calibrated against the weighted chi-square null law whose weights
are the nonzero eigenvalues of A * J^-1 K J^-1 evaluated at the null
parameter.  In the scalar-parameter case the law has a single weight and the
p-value is available in closed form; a seeded Monte Carlo path covers the
general case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from .divergence import DEFAULT_EPS_TAIL, DiscreteDensity, TiltParams, lsd
from .estimation import SearchConfig, empirical_frequencies, minimize_lsd
from .families import ParametricFamily, moments_c_d
from .asymptotics import SingularityError, _model_if1, _model_summary

__all__ = [
    "CalibrationMethod",
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


class CalibrationMethod(enum.Enum):
    CLOSED_FORM_SCALAR = "closed_form_scalar"
    MONTE_CARLO_WEIGHTED_CHISQ = "monte_carlo_weighted_chisq"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    eigenvalues: np.ndarray
    rank: int
    p_value: float
    method: CalibrationMethod
    reject_at: dict[float, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "eigenvalues": [float(z) for z in self.eigenvalues],
            "rank": self.rank,
            "p_value": self.p_value,
            "method": self.method.value,
            "reject_at": {str(k): bool(v) for k, v in self.reject_at.items()},
        }


def model_pair_densities(
    family: ParametricFamily,
    theta_g: float,
    theta_f: float,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> tuple[DiscreteDensity, DiscreteDensity]:
    """Two model densities evaluated on a single common window, so both are
    strictly positive everywhere the divergence looks."""
    o1, l1 = family.support_window(theta_g, eps_tail)
    o2, l2 = family.support_window(theta_f, eps_tail)
    lo, hi = min(o1, o2), max(o1 + l1, o2 + l2)
    x = np.arange(lo, hi)
    g = DiscreteDensity(offset=lo, mass=family.density(theta_g, x), tail_bound=eps_tail)
    f = DiscreteDensity(offset=lo, mass=family.density(theta_f, x), tail_bound=eps_tail)
    return g, f


def divergence_between_fits(
    family: ParametricFamily,
    theta_g: float,
    theta_f: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    g, f = model_pair_densities(family, theta_g, theta_f, eps_tail)
    value = lsd(g, f, p)
    # The divergence is nonnegative; cancellation between the three log terms
    # can leave an O(eps) negative residue when theta_g is numerically equal
    # to theta_f, which must not trip the statistic validation downstream.
    return value if value >= 0.0 else (0.0 if value > -1e-10 else value)


def one_sample_statistic(
    sample,
    family: ParametricFamily,
    theta0: float,
    p: TiltParams,
    search: SearchConfig = SearchConfig(),
    theta_hat: float | None = None,
) -> float:
    """W = 2n * LSD(f_thetahat, f_theta0); thetahat may be precomputed."""
    sample = np.asarray(sample)
    if theta_hat is None:
        theta_hat = minimize_lsd(empirical_frequencies(sample), family, p, search).theta_hat
    return 2.0 * sample.size * divergence_between_fits(
        family, theta_hat, theta0, p, search.eps_tail
    )


def curvature_a_beta(
    family: ParametricFamily,
    theta0: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """Second derivative of theta -> LSD(f_theta, f_theta0) at theta0.

    In the tilted score moments c_i of :func:`moments_c_d` this is
    (1+beta) * (c2/c0 - (c1/c0)^2): the variance of the score under the
    escort density f^(1+beta)/c0, scaled by 1+beta.  It does not depend on
    gamma and is >= 0 by Cauchy-Schwarz.
    """
    return _curvature(moments_c_d(family, theta0, p.beta, 2, eps_tail)[0], p.beta)


def _curvature(c: np.ndarray, beta: float) -> float:
    """:func:`curvature_a_beta` from the moments c_i at beta."""
    c0, c1, c2 = c[:3]
    return float((1.0 + beta) * (c2 / c0 - (c1 / c0) ** 2))


def null_law(
    family: ParametricFamily,
    theta0: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> tuple[np.ndarray, int]:
    """Eigenvalue weights and rank of the null law of the statistic.

    Scalar case: the single weight is A_beta * K / J^2 with the model-level
    J and K at theta0.
    """
    c = moments_c_d(family, theta0, p.beta, 2, eps_tail)[0]
    summary = _model_summary(c, moments_c_d(family, theta0, 2.0 * p.beta, 2, eps_tail)[0])
    a_beta = _curvature(c, p.beta)
    zeta = a_beta * summary.k_scalar / summary.j_scalar**2
    if zeta > 1e-12:
        return np.array([zeta]), 1
    return np.array([]), 0


def weighted_chisq_pvalue(
    w: float,
    eigenvalues,
    mc_draws: int = 200_000,
    seed: int = 0,
) -> tuple[float, float]:
    """P(sum_i zeta_i Z_i^2 > w) with its Monte-Carlo standard error.

    A single eigenvalue uses the exact chi-square tail (standard error 0);
    several eigenvalues are handled by seeded simulation.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if w < 0:
        raise ValueError("statistic must be nonnegative")
    if np.any(eigenvalues < 0):
        raise ValueError("eigenvalue weights must be nonnegative")
    if w == 0:
        return 1.0, 0.0
    if eigenvalues.size == 0 or np.all(eigenvalues == 0):
        raise SingularityError("degenerate null law: all eigenvalue weights are zero")
    if eigenvalues.size == 1:
        return float(chi2.sf(w / eigenvalues[0], df=1)), 0.0
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((mc_draws, eigenvalues.size)) ** 2 @ eigenvalues
    p = float(np.mean(draws > w))
    se = float(np.sqrt(p * (1.0 - p) / mc_draws))
    return p, se


def _build_result(
    statistic: float,
    eigenvalues: np.ndarray,
    rank: int,
    levels,
    mc_draws: int,
    seed: int,
) -> TestResult:
    p_value, _ = weighted_chisq_pvalue(statistic, eigenvalues, mc_draws, seed)
    method = (
        CalibrationMethod.CLOSED_FORM_SCALAR
        if eigenvalues.size <= 1
        else CalibrationMethod.MONTE_CARLO_WEIGHTED_CHISQ
    )
    return TestResult(
        statistic=float(statistic),
        eigenvalues=eigenvalues,
        rank=rank,
        p_value=p_value,
        method=method,
        reject_at={float(a): p_value < a for a in levels},
    )


def one_sample_test(
    sample,
    family: ParametricFamily,
    theta0: float,
    p: TiltParams,
    levels=(0.05,),
    search: SearchConfig = SearchConfig(),
    mc_draws: int = 200_000,
    seed: int = 0,
) -> TestResult:
    """Full one-sample test: estimate, statistic, null law, p-value."""
    w = one_sample_statistic(sample, family, theta0, p, search)
    eigenvalues, rank = null_law(family, theta0, p, search.eps_tail)
    return _build_result(w, eigenvalues, rank, levels, mc_draws, seed)


def two_sample_statistic(
    sample1,
    sample2,
    family: ParametricFamily,
    p: TiltParams,
    levels=(0.05,),
    search: SearchConfig = SearchConfig(),
    null_theta: float | str = "pooled",
    mc_draws: int = 200_000,
    seed: int = 0,
) -> TestResult:
    """Two-sample homogeneity test S = (2nm/(n+m)) * LSD(f_theta1hat, f_theta2hat).

    The null law is evaluated at ``null_theta``: the minimum-divergence
    estimate on the pooled sample (default), the first-sample estimate
    (``"first"``), or an explicit parameter value.
    """
    s1 = np.asarray(sample1)
    s2 = np.asarray(sample2)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("both samples must be non-empty")
    th1 = minimize_lsd(empirical_frequencies(s1), family, p, search).theta_hat
    th2 = minimize_lsd(empirical_frequencies(s2), family, p, search).theta_hat
    n, m = s1.size, s2.size
    stat = (2.0 * n * m / (n + m)) * divergence_between_fits(
        family, th1, th2, p, search.eps_tail
    )
    if null_theta == "pooled":
        pooled = np.concatenate([s1, s2])
        theta_null = minimize_lsd(empirical_frequencies(pooled), family, p, search).theta_hat
    elif null_theta == "first":
        theta_null = th1
    else:
        theta_null = float(null_theta)
    eigenvalues, rank = null_law(family, theta_null, p, search.eps_tail)
    return _build_result(stat, eigenvalues, rank, levels, mc_draws, seed)


def second_order_test_influence(
    y: int,
    family: ParametricFamily,
    theta0: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """Second-order influence of the test functional at the null:
    A_beta * IF1(y)^2 (the first-order influence is identically zero)."""
    c = moments_c_d(family, theta0, p.beta, 2, eps_tail)[0]
    return _curvature(c, p.beta) * _model_if1(c, family, theta0, y, p.beta) ** 2
