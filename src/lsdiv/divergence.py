"""Core divergence evaluators for the logarithmic super divergence family.

The family is indexed by two real tilt parameters (beta, gamma) through the
derived exponents ``A = 1 + gamma*(1 - beta)`` and ``B = beta - gamma*(1 - beta)``,
which always satisfy ``A + B = 1 + beta``.  A link function applied to each
integral term selects the branch: the identity link gives the S-divergence,
the log link gives the logarithmic S-divergence (the default here).

All evaluators work on finite discrete mass vectors (:class:`DiscreteDensity`)
aligned on a common integer window; sums that could underflow are accumulated
in log space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Psi",
    "TiltParams",
    "DiscreteDensity",
    "DivergenceInfiniteError",
    "SupportAlignmentError",
    "derive_exponents",
    "align",
    "lsd",
    "gsd",
    "lpd",
    "ldpd",
    "ld",
]

# Below this magnitude an exponent is treated as zero: the identity link is
# undefined there, and A <= 0 makes an empty data cell's divergence infinite.
EXPONENT_BOUNDARY = 1e-8

DEFAULT_EPS_TAIL = 1e-12


class DivergenceInfiniteError(ValueError):
    """The divergence is +infinity for the given pair (e.g. an empty cell
    raised to a negative exponent)."""


class SupportAlignmentError(ValueError):
    """The two densities are not defined on a compatible window."""


class Psi(enum.Enum):
    """Link function applied to each integral term of the divergence."""

    IDENTITY = "identity"
    LOG = "log"


def derive_exponents(beta: float, gamma: float) -> tuple[float, float]:
    """Return the exponent pair ``(A, B)`` for tilt parameters (beta, gamma).

    ``A = 1 + gamma*(1 - beta)``, ``B = beta - gamma*(1 - beta)``; their sum
    is ``1 + beta`` exactly.

    Raises:
        ValueError: if beta or gamma is not finite, ``beta < 0``, or A or B
            overflows a double.
    """
    if not (math.isfinite(beta) and math.isfinite(gamma)):
        raise ValueError(f"beta and gamma must be finite, got beta={beta}, gamma={gamma}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    exp_a = 1.0 + gamma * (1.0 - beta)
    exp_b = beta - gamma * (1.0 - beta)
    if not (math.isfinite(exp_a) and math.isfinite(exp_b)):
        raise ValueError(
            f"exponents A and B must be finite, got A={exp_a}, B={exp_b} "
            f"at beta={beta}, gamma={gamma}"
        )
    return exp_a, exp_b


@dataclass(frozen=True)
class TiltParams:
    """The (beta, gamma) pair with its derived exponents."""

    beta: float
    gamma: float
    exp_a: float = field(init=False)
    exp_b: float = field(init=False)

    def __post_init__(self) -> None:
        exp_a, exp_b = derive_exponents(self.beta, self.gamma)
        object.__setattr__(self, "exp_a", exp_a)
        object.__setattr__(self, "exp_b", exp_b)


@dataclass(frozen=True)
class DiscreteDensity:
    """A finite nonnegative mass vector on a truncated integer support.

    ``mass[i]`` is the probability at ``offset + i``.  A model density
    truncated to its support window sums to within its tail bound of 1;
    empirical frequency vectors sum to exactly 1.
    """

    offset: int
    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty 1-d vector")
        # NaN propagates through min and max, so both bounds reject it
        if not (mass.min() >= 0 and mass.max() < math.inf):
            raise ValueError("mass entries must be finite and nonnegative")

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.mass.size)

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def mean(self) -> float:
        return float(np.dot(self.support, self.mass) / self.total)


def align(g: DiscreteDensity, f: DiscreteDensity) -> tuple[np.ndarray, np.ndarray]:
    """Place two densities on the union window, padding with zeros.

    Returns the pair of aligned mass vectors ``(g, f)``.
    """
    lo = min(g.offset, f.offset)
    hi = max(g.offset + g.mass.size, f.offset + f.mass.size)
    gv = np.zeros(hi - lo)
    fv = np.zeros(hi - lo)
    gv[g.offset - lo : g.offset - lo + g.mass.size] = g.mass
    fv[f.offset - lo : f.offset - lo + f.mass.size] = f.mass
    return gv, fv


def _aligned(g: DiscreteDensity, f: DiscreteDensity):
    """The union-window masses ``(gv, fv)`` of :func:`align` and the mask
    of the occupied data cells; a model mass that is not positive is a
    SupportAlignmentError, and data without positive mass a ValueError."""
    gv, fv = align(g, f)
    if np.any(fv <= 0):
        raise SupportAlignmentError("model density must be positive on the window")
    pos = gv > 0
    if not np.any(pos):
        raise ValueError("data density has no positive mass on the window")
    return gv, fv, pos


def _lse(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) over the last axis: a float for an (L,) vector, a (k,)
    array for a (k, L) stack of rows, each summed pairwise as numpy sums a
    lone vector: the identity link, the closed forms and the fits' model
    terms and log sum g^(1+beta).  The fit's data term takes its own passes,
    which add a row's cells in order."""
    m = a.max(axis=-1, keepdims=True)
    e = np.subtract(a, m, order="C")  # rows contiguous whatever a's layout
    np.exp(e, out=e)
    return m.squeeze(-1) + np.log(e.sum(axis=-1))


# log g on a padded cell of a stack: finite, so that log g - log f is an exact
# zero there and the cell weighs nothing in _lsd_from_logs or the fit's data term.
_PAD_LOGG = -1e300


def _s_combination(sf, sfg, sg, p: TiltParams):
    """sf / A - (1+beta) / (A B) sfg + sg / B: the LSD from the log sums
    log sum f^(1+beta), log sum f^B g^A and log sum g^(1+beta), or the
    S-divergence from the sums themselves."""
    return sf / p.exp_a - (1.0 + p.beta) / (p.exp_a * p.exp_b) * sfg + sg / p.exp_b


def _peak_and_mass(logx, k: float):
    """max log x, (x / max x)^k and its sum, over the last axis (kept)."""
    peak = logx.max(axis=-1, keepdims=True)
    scaled = np.exp(k * (logx - peak))
    return peak, scaled, scaled.sum(axis=-1, keepdims=True)


def _lsd_from_logs(logf, logf_pos, logg, p: TiltParams, psi: Psi):
    """The divergence with the link ``psi`` from log f on the model window,
    log f on the occupied data cells (``logf_pos``, ``logf`` itself where
    all are occupied) and log g there: one for vectors, one per row for
    (k, m) stacks whose unused cells hold log f = log g = ``_PAD_LOGG``.

    The log link is one formula at every tilt.  With c = 1 + beta, t = A/c
    and the convex h(s) = log sum_occupied f^(c(1-s)) g^(cs),

        LSD = (1/A) log(sum_all f^c / sum_occupied f^c) + h[0, t, 1] / c,

    h[0, t, 1] = (phi(1) - phi(t)/t) / (1 - t) >= 0 and phi(s) = log E_w
    e^(s c e), where w is the softmax of c log f on the occupied cells and e
    is log g - log f less its w-mean; t > 1/2 takes (g, f, 1 - t) instead."""
    one_beta = 1.0 + p.beta
    if psi is Psi.IDENTITY:
        if min(abs(p.exp_a), abs(p.exp_b)) < EXPONENT_BOUNDARY:
            raise ValueError(
                "identity-link divergence is undefined at the exponent boundary A=0 or B=0"
            )
        # B log f + A log g as B (log f - log g) + (1 + beta) log g: a padded cell weighs 0
        # at any tilt, its (1 + beta) _PAD_LOGG falling to -inf at a large beta
        with np.errstate(over="ignore", invalid="ignore"):
            tilted = p.exp_b * (logf_pos - logg) + one_beta * logg
            sums = np.exp([_lse(one_beta * logf), _lse(tilted), _lse(one_beta * logg)])
            value = _s_combination(*sums, p)  # from the sums themselves, which can overflow
        if not np.isfinite(value).all():
            raise OverflowError("the identity-link divergence overflows a double")
        return np.maximum(value, 0.0)  # the S-divergence is >= 0 but for rounding
    # c log f of a padded cell (a zero weight) and the expm1 form can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        empty = 0.0
        if logf_pos is not logf:  # empty data cells, which gsd admits at A > 0 only
            peak_all, _, mass_all = _peak_and_mass(logf, one_beta)
            peak, _, mass = _peak_and_mass(logf_pos, one_beta)
            empty = (one_beta * (peak_all - peak) + np.log(mass_all / mass)).squeeze(-1) / p.exp_a
        low, high, logu, logv = p.exp_a, p.exp_b, logf_pos, logg
        if low > high:  # t > 1/2
            low, high, logu, logv = high, low, logg, logf_pos
        peak, w, mass = _peak_and_mass(logu, one_beta)
        w /= mass  # the softmax
        d = logv - logu
        mu = np.vecdot(d, w, keepdims=True)
        e = d - mu
        # phi(1) and phi(t) as log1p(E_w[expm1(k e) - k e]) at k = c and c t,
        # whose absolute error stays near eps k E_w |e| however small k is
        x = np.multiply.outer((one_beta, low), e)
        phi = np.log1p(np.vecdot(np.expm1(x) - x, w))
        slopes = [phi[0] / one_beta, phi[1] * (1.0 / low if low else 0.0)]  # 0 at t = 0
        if not math.isfinite(phi.sum()):  # a finite phi is below 710
            # where expm1 overflows, sum the logs of w e^(k e), c lu + k e - log mass, in
            # units of |k|; e as (log v - peak - mu) - lu keeps ties of log v exact
            lu = logu - peak
            e, log_mass = (logv - peak - mu) - lu, np.log(mass)
            for i, k in enumerate((one_beta, low)):
                if not np.isfinite(phi[i]).all():
                    sign, k = math.copysign(1.0, k), abs(k)
                    top, _, total = _peak_and_mass((one_beta / k) * lu + sign * e, k)
                    y = sign * (top + (np.log(total) - log_mass) / k).squeeze(-1)
                    slopes[i] = np.where(np.isfinite(phi[i]), slopes[i], y)
        return empty + np.maximum((slopes[0] - slopes[1]) * (one_beta / high), 0.0)


def lsd(g: DiscreteDensity, f: DiscreteDensity, p: TiltParams) -> float:
    """Logarithmic S-divergence of data density ``g`` from model ``f``: :func:`gsd`."""
    return gsd(g, f, p)


def gsd(
    g: DiscreteDensity, f: DiscreteDensity, p: TiltParams, psi: Psi = Psi.LOG
) -> float:
    """Generalized S-divergence with the link ``psi``: the log link gives :func:`lsd`, the
    identity link the S-divergence from the exps of the same log sums (an
    OverflowError where one exceeds a double, a ValueError at A = 0 or B = 0)."""
    gv, fv, pos = _aligned(g, f)
    logf = np.log(fv)
    if np.all(pos):
        return float(_lsd_from_logs(logf, logf, np.log(gv), p, psi))
    if p.exp_a < EXPONENT_BOUNDARY:
        raise DivergenceInfiniteError(
            "empty data cell with exponent A <= 0 makes the divergence infinite"
        )
    return float(_lsd_from_logs(logf, logf[pos], np.log(gv[pos]), p, psi))


def lpd(g: DiscreteDensity, f: DiscreteDensity, gamma: float) -> float:
    """Logarithmic power divergence with index gamma (closed form).

    Undefined at gamma in {0, -1} where the coefficient 1/(gamma*(gamma+1))
    blows up.
    """
    if gamma in (0.0, -1.0):
        raise ValueError("lpd is undefined at gamma in {0, -1}")
    gv, fv, pos = _aligned(g, f)
    if gamma < -1 and not np.all(pos):
        raise DivergenceInfiniteError("empty data cell with gamma < -1")
    logf = np.log(fv[pos])
    logg = np.log(gv[pos])
    val = _lse((1.0 + gamma) * logg - gamma * logf)
    return float(val / (gamma * (gamma + 1.0)))


def ldpd(g: DiscreteDensity, f: DiscreteDensity, beta: float) -> float:
    """Logarithmic density power divergence with index beta > 0 (closed form)."""
    if beta <= 0:
        raise ValueError("ldpd requires beta > 0 (beta = 0 is the likelihood disparity)")
    gv, fv, pos = _aligned(g, f)
    logf = np.log(fv)
    logg = np.log(gv[pos])
    t1 = _lse((1.0 + beta) * logf)
    t2 = _lse(beta * logf[pos] + logg)
    t3 = _lse((1.0 + beta) * logg)
    return float(t1 - (1.0 + 1.0 / beta) * t2 + t3 / beta)


def ld(g: DiscreteDensity, f: DiscreteDensity) -> float:
    """Likelihood disparity sum g*log(g/f); empty data cells contribute 0."""
    gv, fv, pos = _aligned(g, f)
    return float(np.dot(gv[pos], np.log(gv[pos] / fv[pos])))
