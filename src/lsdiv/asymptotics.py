"""Asymptotic covariance and influence-function machinery.

Covers the model-level J, K, xi triple and its sandwich, the corresponding
quantities under an arbitrary true density, first-order influence functions
(general and at the model), the second-order influence function of the
minimum-divergence estimator at the model, and bias-approximation curves in
the contamination proportion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import (
    DEFAULT_EPS_TAIL,
    DiscreteDensity,
    DivergenceInfiniteError,
    TiltParams,
)
from .families import ParametricFamily, moments_c_d

__all__ = [
    "SingularityError",
    "AsymptoticSummary",
    "BiasCurve",
    "model_jkxi",
    "general_jk",
    "if_first_order",
    "if_second_order",
    "bias_curves",
    "point_contaminated",
]


class SingularityError(ValueError):
    """A required curvature or information matrix is numerically singular."""


@dataclass(frozen=True)
class AsymptoticSummary:
    """J, K, xi and the sandwich J^-1 K J^-1, stored as 1x1/length-1 arrays
    so the shapes extend to vector parameters."""

    j: np.ndarray
    k: np.ndarray
    xi: np.ndarray
    sandwich: np.ndarray

    @property
    def j_scalar(self) -> float:
        return float(self.j[0, 0])

    @property
    def k_scalar(self) -> float:
        return float(self.k[0, 0])

    @property
    def xi_scalar(self) -> float:
        return float(self.xi[0])

    @property
    def sandwich_scalar(self) -> float:
        return float(self.sandwich[0, 0])


def _summary(j: float, k: float, xi: float) -> AsymptoticSummary:
    if abs(j) <= 1e-12:
        raise SingularityError(f"information term J = {j} is numerically singular")
    return AsymptoticSummary(
        j=np.array([[j]]),
        k=np.array([[k]]),
        xi=np.array([xi]),
        sandwich=np.array([[k / j**2]]),
    )


def model_jkxi(
    family: ParametricFamily,
    theta: float,
    beta: float,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> AsymptoticSummary:
    """J, K, xi at the model; all depend on beta only (gamma drops out).

    With w = Bf*u - Af, Af = sum f^(1+beta) u = c1, Bf = sum f^(1+beta) = c0
    and c_i the tilted score moments of :func:`moments_c_d`:
    J = sum w u f^(1+beta) = c0 c2 - c1^2, xi = sum w f^(1+beta) = 0 and
    K = sum w^2 f^(1+2beta) - xi^2 = c0^2 c2' - 2 c0 c1 c1' + c1^2 c0', where
    c' are the moments at 2*beta.  At beta = 0 the sandwich is the inverse
    Fisher information.
    """
    return _model_summary(
        moments_c_d(family, theta, beta, 2, eps_tail)[0],
        moments_c_d(family, theta, 2.0 * beta, 2, eps_tail)[0],
    )


def _model_summary(c: np.ndarray, c_2beta: np.ndarray) -> AsymptoticSummary:
    """:func:`model_jkxi` from the moments c_i at beta and at 2*beta."""
    c0, c1, c2 = c[:3]
    c0p, c1p, c2p = c_2beta[:3]
    k = c0**2 * c2p - 2.0 * c0 * c1 * c1p + c1**2 * c0p
    return _summary(c0 * c2 - c1**2, k, 0.0)


def _model_if1(
    c: np.ndarray, family: ParametricFamily, theta: float, y: int, beta: float
) -> float:
    """Model-case first-order influence f_y^beta (u_y c0 - c1) / (c0 c2 - c1^2)
    from the moments c_i at beta."""
    c0, c1, c2 = c[:3]
    j0 = c0 * c2 - c1**2
    if abs(j0) <= 1e-12:
        raise SingularityError("model information J0 is singular")
    fy = float(family.density(theta, np.array([y]))[0])
    uy = float(family.score(theta, np.array([y]))[0])
    return float(fy**beta * (uy * c0 - c1) / j0)


def _general_arrays(
    g: DiscreteDensity, family: ParametricFamily, theta: float, eps_tail: float
):
    """Aligned (x, f, g, u, u') vectors on the union of the model window and
    the support of g."""
    offset, length = family.support_window(theta, eps_tail)
    lo = min(offset, g.offset)
    hi = max(offset + length, g.offset + g.mass.size)
    x = np.arange(lo, hi)
    f = family.density(theta, x)
    gv = np.zeros(x.size)
    gv[g.offset - lo : g.offset - lo + g.mass.size] = g.mass
    u = family.score(theta, x)
    du = family.score_derivative(theta, x)
    return x, f, gv, u, du


def general_jk(
    g: DiscreteDensity,
    family: ParametricFamily,
    theta: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> AsymptoticSummary:
    """J and K under an arbitrary true density g, at its best-fitting theta.

    Values are normalized by the exponent A (J by A, K and xi accordingly)
    so that at g = f_theta they reduce exactly to the model-level J and K;
    the sandwich J^-1 K J^-1 is unaffected by this normalization.
    """
    return _general_jk(_general_arrays(g, family, theta, eps_tail), p)


def _general_jk(arrays, p: TiltParams) -> AsymptoticSummary:
    """:func:`general_jk` on the vectors of :func:`_general_arrays`."""
    a, b = p.exp_a, p.exp_b
    if a <= 0:
        raise DivergenceInfiniteError("general J/K require exponent A > 0")
    _, f, gv, u, du = arrays
    beta = p.beta
    fb = f ** (1.0 + beta)
    af = float(np.dot(fb, u))
    bf = float(fb.sum())
    af_prime = float(np.dot(fb, (1.0 + beta) * u**2 + du))
    bf_prime = (1.0 + beta) * af
    w = bf * u - af
    dw = bf_prime * u + bf * du - af_prime

    pos = gv > 0
    if not np.all(pos) and 2.0 * a - 1.0 <= 0:
        raise DivergenceInfiniteError(
            "variance term is infinite: empty cells with exponent A <= 1/2"
        )
    ga_fb_pos = gv[pos] ** a * f[pos] ** b  # g^A f^B on occupied cells
    m = (gv / f) ** a - 1.0  # M(delta); exact -1 on empty cells since A > 0

    # J_g of the curvature identity, divided by A.
    j = (
        float(np.dot(ga_fb_pos, (w * u)[pos]))
        - float(np.dot(m * fb, dw)) / a
        - (1.0 + beta) * float(np.dot(m * fb, w * u)) / a
    )
    # Variance of M'(delta) f^beta w under g, divided by A^2.
    z_mean = float(np.dot(ga_fb_pos, w[pos]))
    z_sq = float(np.dot(gv[pos] ** (2.0 * a - 1.0) * f[pos] ** (2.0 * beta + 2.0 - 2.0 * a), w[pos] ** 2))
    k = z_sq - z_mean**2
    return _summary(j, k, z_mean)


def if_first_order(
    y: int,
    g: DiscreteDensity | None,
    family: ParametricFamily,
    theta: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """First-order influence of the minimum-divergence functional at y.

    ``g=None`` selects the model case (true density f_theta), where the
    value depends on beta only.  In the general case ``theta`` must be the
    best-fitting parameter for ``g``.
    """
    if g is None:
        c = moments_c_d(family, theta, p.beta, 2, eps_tail)[0]
        return _model_if1(c, family, theta, y, p.beta)

    a, b = p.exp_a, p.exp_b
    arrays = _general_arrays(g, family, theta, eps_tail)
    x, f, gv, u, _ = arrays
    idx = y - int(x[0])
    if idx < 0 or idx >= gv.size or gv[idx] <= 0:
        raise DivergenceInfiniteError(
            "influence at a point with zero true density is infinite for A < 1"
        )
    beta = p.beta
    fb = f ** (1.0 + beta)
    af = float(np.dot(fb, u))
    bf = float(fb.sum())
    pos = gv > 0
    s_fg = float(np.dot(gv[pos] ** a, f[pos] ** b))
    s_fgu = float(np.dot(gv[pos] ** a * f[pos] ** b, u[pos]))
    t = f[idx] ** b * gv[idx] ** (a - 1.0)
    uy = u[idx]
    bvec = (af * s_fg - t * af) - (bf * s_fgu - t * uy * bf)
    return bvec / _general_jk(arrays, p).j_scalar


def if_second_order(
    y: int,
    family: ParametricFamily,
    theta: float,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """Second-order influence of the estimator functional at the model.

    Obtained by differentiating the estimating equation
    Bf(theta) * sum f^B g_eps^A u - Af(theta) * sum f^B g_eps^A = 0 twice
    along the contamination path g_eps = (1 - eps) f_theta + eps * delta_y
    and solving implicitly; with L the equation above,

        T'' = (L_ee + 2 L_te T' + L_tt T'^2) / (A * D0),

    where every partial is evaluated at the model and D0 = c2 c0 - c1^2.
    The three partials reduce to the tilted score moments c_i, d_i (second
    score derivatives cancel exactly in L_tt).  This derivation is pinned
    in the test suite against a contamination-path oracle: a Richardson-
    extrapolated second difference of theta(eps) solved by root finding,
    which the closed form matches to ~1e-6 relative error.
    """
    return _if_first_second(y, family, theta, p, eps_tail)[1]


def _if_first_second(
    y: int, family: ParametricFamily, theta: float, p: TiltParams, eps_tail: float
) -> tuple[float, float]:
    """(T', T'') of :func:`if_second_order` from one moment evaluation."""
    a, b, beta = p.exp_a, p.exp_b, p.beta
    c, d = moments_c_d(family, theta, beta, 3, eps_tail)
    c0, c1, c2, c3 = c
    d0, d1 = d[0], d[1]
    fy = float(family.density(theta, np.array([y]))[0])
    uy = float(family.score(theta, np.array([y]))[0])
    duy = float(family.score_derivative(theta, np.array([y]))[0])
    fby = fy**beta
    fbm1y = fy ** (beta - 1.0)
    tp = _model_if1(c, family, theta, y, beta)

    den = c2 * c0 - c1**2
    if abs(den) <= 1e-300:
        raise SingularityError("second-order influence denominator vanishes")

    # L_ee / A: pure contamination curvature of the tilted cross terms.
    l_ee = (a - 1.0) * (fbm1y - 2.0 * fby) * (c0 * uy - c1)
    # L_te / A: mixed theta/eps partial.
    l_te = (
        (1.0 + beta) * c1 * (fby * uy - c1)
        + c0 * (b * fby * uy**2 - b * c2 + fby * duy - d0)
        - (d0 + (1.0 + beta) * c2) * (fby - c0)
        - b * c1 * (fby * uy - c1)
    )
    # L_tt / A: curvature in theta at the model.
    l_tt = (a + 2.0 * b) * (c1 * c2 - c0 * c3) + 3.0 * (c1 * d0 - c0 * d1)
    return tp, float((l_ee + 2.0 * tp * l_te + tp**2 * l_tt) / den)


@dataclass(frozen=True)
class BiasCurve:
    """First- and second-order bias predictions over a contamination grid."""

    eps_grid: np.ndarray
    first_order: np.ndarray
    second_order: np.ndarray
    adequacy_ratio: np.ndarray


def bias_curves(
    y: int,
    family: ParametricFamily,
    theta: float,
    p: TiltParams,
    eps_grid,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> BiasCurve:
    """Predicted estimator bias eps*T' and eps*T' + eps^2/2 * T'' at the model,
    with the quadratic/linear adequacy ratio 1 + (T''/T') * eps/2."""
    eps = np.asarray(eps_grid, dtype=float)
    tp, tpp = _if_first_second(y, family, theta, p, eps_tail)
    first = eps * tp
    second = first + 0.5 * eps**2 * tpp
    with np.errstate(divide="ignore", invalid="ignore"):
        adequacy = 1.0 + (tpp / tp) * eps / 2.0
    return BiasCurve(eps_grid=eps, first_order=first, second_order=second, adequacy_ratio=adequacy)


def point_contaminated(f: DiscreteDensity, y: int, eps: float) -> DiscreteDensity:
    """(1 - eps) * f + eps * point mass at y, on a window covering y."""
    lo = min(f.offset, y)
    hi = max(f.offset + f.mass.size, y + 1)
    mass = np.zeros(hi - lo)
    mass[f.offset - lo : f.offset - lo + f.mass.size] = (1.0 - eps) * f.mass
    mass[y - lo] += eps
    return DiscreteDensity(offset=lo, mass=mass, tail_bound=(1.0 - eps) * f.tail_bound)
