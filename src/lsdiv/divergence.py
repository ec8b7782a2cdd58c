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

# Below this magnitude an exponent is treated as exactly zero and the
# continuity limit of the divergence is used instead of the raw formula.
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
    lone vector.  :func:`gsd`, the closed forms and the fits' model terms
    and log sum g^(1+beta) sum through it; the fit's data term
    (``estimation._objective`` and ``_FitWindow.residual``) takes its own
    max-shifted passes, which add a row's cells in order.
    """
    m = a.max(axis=-1, keepdims=True)
    e = np.subtract(a, m, order="C")  # rows contiguous whatever a's layout
    np.exp(e, out=e)
    return m.squeeze(-1) + np.log(e.sum(axis=-1))


def _zero_exponent_limit(log_sa, loga, logb, log_sb, one_beta: float):
    """(1/(1+beta)) log(sa/sb) - sum b^(1+beta) log(a/b) / sb over the last
    axis, the LSD's continuity limit at a zero exponent: B -> 0 with (a, b)
    = (f, g), and A -> 0 with (a, b) = (g, f).  A stacked ``logb`` (rows x
    cells) takes a ``log_sb`` with one entry per row; ``loga`` and ``logb``
    broadcast against each other.
    """
    w = np.exp(one_beta * logb - (log_sb[:, None] if logb.ndim > 1 else log_sb))
    diff = np.subtract(loga, logb, order="C")  # rows contiguous whatever loga's layout
    # each row's dot product as np.dot takes a lone vector's (a stack's
    # matmul would go through a matrix-vector BLAS call)
    return (log_sa - log_sb) / one_beta - np.vecdot(diff, w)


# log g on a padded cell of a stack: finite, so that each branch of
# _lsd_from_logs (whose stacks pad log f alike) and the fit's data term adds
# an exact zero for it (a -inf would give inf * 0 in the B -> 0 limit).
_PAD_LOGG = -1e300


def _s_combination(sf, sfg, sg, p: TiltParams):
    """sf / A - (1+beta) / (A B) sfg + sg / B: the LSD from the log sums
    log sum f^(1+beta), log sum f^B g^A and log sum g^(1+beta), or the
    S-divergence from the sums themselves."""
    return sf / p.exp_a - (1.0 + p.beta) / (p.exp_a * p.exp_b) * sfg + sg / p.exp_b


def _lsd_from_logs(logf, logf_pos, logg, p: TiltParams, psi: Psi):
    """The divergence with the link ``psi`` from log f on the model window,
    log f on the occupied data cells (``logf_pos``) and log g there.

    Vectors give one divergence; (k, m) stacks give k of them, each equal
    to what its row alone gives, with a row's unused cells padded with
    log f = log g = ``_PAD_LOGG``.  The log link takes the continuity limit
    at |A| < 1e-8, which needs g on every cell (``logg`` as wide as
    ``logf``), and at |B| < 1e-8; the identity link is a ValueError there,
    and elsewhere the S-divergence from the exps of the three log sums (an
    OverflowError where a sum or the divergence exceeds a double).
    """
    one_beta = 1.0 + p.beta
    log_sg = _lse(one_beta * logg)
    log_sf = _lse(one_beta * logf)
    if psi is Psi.LOG:
        if abs(p.exp_a) < EXPONENT_BOUNDARY:
            return _zero_exponent_limit(log_sg, logg, logf, log_sf, one_beta)
        if abs(p.exp_b) < EXPONENT_BOUNDARY:
            return _zero_exponent_limit(log_sf, logf_pos, logg, log_sg, one_beta)
    elif min(abs(p.exp_a), abs(p.exp_b)) < EXPONENT_BOUNDARY:
        raise ValueError(
            "identity-link divergence is undefined at the exponent boundary A=0 or B=0"
        )
    tilted = p.exp_b * logf_pos
    tilted += p.exp_a * logg  # in place (logf_pos has the full shape): one temporary less
    log_sfg = _lse(tilted)
    if psi is Psi.LOG:
        return _s_combination(log_sf, log_sfg, log_sg, p)
    # the identity link combines the sums themselves, which can leave a double's range
    with np.errstate(over="raise"):
        try:
            return _s_combination(np.exp(log_sf), np.exp(log_sfg), np.exp(log_sg), p)
        except FloatingPointError:
            raise OverflowError("the identity-link divergence overflows a double") from None


def lsd(g: DiscreteDensity, f: DiscreteDensity, p: TiltParams) -> float:
    """Logarithmic S-divergence between data density ``g`` and model ``f``.

    ``f`` must be strictly positive on the union window.  At the exponent
    boundaries ``|A| < 1e-8`` or ``|B| < 1e-8`` the continuity limit is
    returned (the raw formula is singular there); this covers in particular
    the likelihood-disparity member beta = gamma = 0.
    """
    return gsd(g, f, p)


def gsd(
    g: DiscreteDensity, f: DiscreteDensity, p: TiltParams, psi: Psi = Psi.LOG
) -> float:
    """Generalized S-divergence with the link ``psi``.

    The log link gives :func:`lsd`; the identity link evaluates the plain
    S-divergence from the exps of the same log sums, an OverflowError where
    one exceeds a double.  The identity link has no boundary limit: at
    A = 0 or B = 0 it is a ValueError (its members of interest keep both
    exponents away from zero).
    """
    gv, fv, pos = _aligned(g, f)
    if p.exp_a < EXPONENT_BOUNDARY and not np.all(pos):
        raise DivergenceInfiniteError(
            "empty data cell with exponent A <= 0 makes the divergence infinite"
        )
    logf = np.log(fv)
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
