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

from .divergence import DiscreteDensity, DivergenceInfiniteError, TiltParams
from .families import PoissonFamily, _moment_record, moments_c_d

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
    """J, K, xi and the sandwich K / J^2 of the scalar parameter."""

    j: float
    k: float
    xi: float
    sandwich: float


def _summary(j: float, k: float, xi: float) -> AsymptoticSummary:
    if abs(j) <= 1e-12:
        raise SingularityError(f"information term J = {j} is numerically singular")
    return AsymptoticSummary(j=float(j), k=float(k), xi=float(xi), sandwich=float(k / j**2))


def model_jkxi(family: PoissonFamily, theta: float, beta: float) -> AsymptoticSummary:
    """J, K, xi at the model; all depend on beta only (gamma drops out).

    With w = Bf*u - Af, Af = sum f^(1+beta) u = c1, Bf = sum f^(1+beta) = c0
    and c_i the tilted score moments of :func:`moments_c_d`:
    J = sum w u f^(1+beta) = c0 c2 - c1^2, xi = sum w f^(1+beta) = 0 and
    K = sum w^2 f^(1+2beta) - xi^2 = c0^2 c2' - 2 c0 c1 c1' + c1^2 c0', where
    c' are the moments at 2*beta.  At beta = 0 the sandwich is the inverse
    Fisher information.
    """
    return _model_summary(
        moments_c_d(family, theta, beta)[0], moments_c_d(family, theta, 2.0 * beta)[0]
    )


def _model_summary(c: np.ndarray, c_2beta: np.ndarray) -> AsymptoticSummary:
    """:func:`model_jkxi` from the moments c_i at beta and at 2*beta."""
    c0, c1, c2 = c[:3]
    c0p, c1p, c2p = c_2beta[:3]
    k = c0**2 * c2p - 2.0 * c0 * c1 * c1p + c1**2 * c0p
    return _summary(c0 * c2 - c1**2, k, 0.0)


def _density_score(family: PoissonFamily, theta: float, y: int) -> tuple[float, float]:
    """(f_y, u_y) at the lone integer point y, passed to the family as a
    scalar: numpy's in-place steps of ``log_density`` cost more on a
    1-element array than the arithmetic.

    Every model-case influence reads y here, so a y below the support
    {0, 1, ...} raises DivergenceInfiniteError, as the general case does for
    a point of zero true density.
    """
    if y < 0:
        raise DivergenceInfiniteError(
            f"influence at y = {y}, outside the support, is infinite"
        )
    return float(family.density(theta, y)), float(family.score(theta, y))


def _model_if1(c: np.ndarray, fy: float, uy: float, beta: float) -> float:
    """Model-case first-order influence f_y^beta (u_y c0 - c1) / (c0 c2 - c1^2)
    from the moments c_i at beta and (f_y, u_y) of :func:`_density_score`."""
    c0, c1, c2 = c[:3]
    j0 = c0 * c2 - c1**2
    if abs(j0) <= 1e-12:
        raise SingularityError("model information J0 is singular")
    return float(fy**beta * (uy * c0 - c1) / j0)


def general_jk(
    g: DiscreteDensity, family: PoissonFamily, theta: float, p: TiltParams
) -> AsymptoticSummary:
    """J and K under an arbitrary true density g, at its best-fitting theta.

    Values are normalized by the exponent A (J by A, K and xi accordingly)
    so that at g = f_theta they reduce exactly to the model-level J and K;
    the sandwich J^-1 K J^-1 is unaffected by this normalization.

    With the tilted moments c_i, d_i of :func:`moments_c_d`, w = c0 u - c1
    and dw = (1+beta) c1 u + c0 u' - (1+beta) c2 - d0 is its theta
    derivative.  The model-window terms of J sum to
    sum f^(1+beta) (dw + (1+beta) w u) = 0, so every remaining sum runs over
    the occupied cells of g only:

        J = sum g^A f^B (w u - (dw + (1+beta) w u) / A),
        xi = sum g^A f^B w,   K = sum g^(2A-1) f^(2beta+2-2A) w^2 - xi^2.
    """
    return _general_jk(_occupied(g, family, theta, p), p)


def _occupied(g: DiscreteDensity, family: PoissonFamily, theta: float, p: TiltParams):
    """The moments (c, d) at beta, and (g, f, u, u') on g's occupied cells.

    Raises the typed errors of the general summaries: A <= 0, and an empty
    cell on the union of g's window and the model window with 2A - 1 <= 0.
    """
    a = p.exp_a
    if a <= 0:
        raise DivergenceInfiniteError("general J/K require exponent A > 0")
    c, d, length = _moment_record(family, theta, p.beta)
    pos = g.mass > 0
    covered = g.offset <= 0 and length <= g.offset + g.mass.size
    if not (covered and np.all(pos)) and 2.0 * a - 1.0 <= 0:
        raise DivergenceInfiniteError(
            "variance term is infinite: empty cells with exponent A <= 1/2"
        )
    x = g.support[pos]
    return (
        c, d, g.mass[pos], family.density(theta, x), family.score(theta, x),
        family.score_derivative(theta, x),
    )


def _general_jk(arrays, p: TiltParams) -> AsymptoticSummary:
    """:func:`general_jk` from the arrays of :func:`_occupied`."""
    c, d, gp, f, u, du = arrays
    a, b, one_beta = p.exp_a, p.exp_b, 1.0 + p.beta
    c0, c1, c2 = c[:3]
    w = c0 * u - c1
    dw = one_beta * c1 * u + c0 * du - (one_beta * c2 + d[0])
    ga_fb = gp**a * f**b
    j = float(np.dot(ga_fb, w * u - (dw + one_beta * w * u) / a))
    z_mean = float(np.dot(ga_fb, w))
    z_sq = float(np.dot(gp ** (2.0 * a - 1.0) * f ** (2.0 * p.beta + 2.0 - 2.0 * a), w**2))
    return _summary(j, z_sq - z_mean**2, z_mean)


def if_first_order(
    y: int,
    g: DiscreteDensity | None,
    family: PoissonFamily,
    theta: float,
    p: TiltParams,
) -> float:
    """First-order influence of the minimum-divergence functional at y.

    ``g=None`` selects the model case (true density f_theta), where the
    value depends on beta only.  In the general case ``theta`` must be the
    best-fitting parameter for ``g``; the value is
    (c1 (S - t) - c0 (S_u - t u_y)) / J with S = sum g^A f^B,
    S_u = sum g^A f^B u over g's occupied cells and t = f_y^B g_y^(A-1).
    """
    if g is None:
        c = moments_c_d(family, theta, p.beta)[0]
        return _model_if1(c, *_density_score(family, theta, y), p.beta)

    k = y - g.offset
    if k < 0 or k >= g.mass.size or g.mass[k] <= 0:
        raise DivergenceInfiniteError(
            "influence at a point with zero true density is infinite for A < 1"
        )
    arrays = _occupied(g, family, theta, p)
    c, _, gp, f, u, _ = arrays
    a, b = p.exp_a, p.exp_b
    ga_fb = gp**a * f**b
    iy = int(np.count_nonzero(g.mass[:k]))  # y's place among the occupied cells
    t = f[iy] ** b * gp[iy] ** (a - 1.0)
    c0, c1 = c[0], c[1]
    numerator = c1 * (float(ga_fb.sum()) - t) - c0 * (float(np.dot(ga_fb, u)) - t * u[iy])
    return float(numerator / _general_jk(arrays, p).j)


def if_second_order(y: int, family: PoissonFamily, theta: float, p: TiltParams) -> float:
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
    return _if_first_second(y, family, theta, p)[1]


def _if_first_second(
    y: int, family: PoissonFamily, theta: float, p: TiltParams
) -> tuple[float, float]:
    """(T', T'') of :func:`if_second_order` from one moment evaluation."""
    a, b, beta = p.exp_a, p.exp_b, p.beta
    c, d = moments_c_d(family, theta, beta)
    c0, c1, c2, c3 = c
    d0, d1 = d[0], d[1]
    fy, uy = _density_score(family, theta, y)
    duy = float(family.score_derivative(theta, y))
    fby = fy**beta
    fbm1y = fy ** (beta - 1.0)
    tp = _model_if1(c, fy, uy, beta)

    den = c2 * c0 - c1**2  # nonzero: _model_if1 raised where it is within 1e-12 of 0

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
    family: PoissonFamily,
    theta: float,
    p: TiltParams,
    eps_grid,
) -> BiasCurve:
    """Predicted estimator bias eps*T' and eps*T' + eps^2/2 * T'' at the model,
    with the quadratic/linear adequacy ratio 1 + (T''/T') * eps/2.

    Raises:
        ValueError: if a contamination level lies outside [0, 1].
    """
    eps = np.asarray(eps_grid, dtype=float)
    if not (eps.min(initial=0.0) >= 0.0 and eps.max(initial=1.0) <= 1.0):  # NaN fails too
        raise ValueError("contamination levels must lie in [0, 1]")
    tp, tpp = _if_first_second(y, family, theta, p)
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
    return DiscreteDensity(offset=lo, mass=mass)
