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
from scipy.special import logsumexp

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


def _log_inputs(gv: np.ndarray, fv: np.ndarray, p: TiltParams):
    """Validate an aligned pair and return ``(log f, pos, log g[pos])``,
    where ``pos`` marks the occupied data cells."""
    if np.any(fv <= 0):
        raise SupportAlignmentError(
            "model density must be strictly positive on the union window"
        )
    pos = gv > 0
    if not np.any(pos):
        raise ValueError("data density has no positive mass on the window")
    if p.exp_a < EXPONENT_BOUNDARY and not np.all(pos):
        raise DivergenceInfiniteError(
            "empty data cell with exponent A <= 0 makes the divergence infinite"
        )
    return np.log(fv), pos, np.log(gv[pos])


def _lse(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(a) over ``axis``, the last by default: a float for an
    (L,) vector, a (k,) array for a (k, L) stack of rows.

    Along the last axis numpy sums each row pairwise, as it sums a lone
    vector; along another axis it adds the terms one after another, at
    every position of the axes after it.  Plain numpy: several times
    cheaper per call than scipy.special.logsumexp on the short vectors a
    fit evaluates.
    """
    m = a.max(axis=axis, keepdims=True)
    e = np.subtract(a, m, order="C")  # rows contiguous whatever a's layout
    np.exp(e, out=e)
    return m.squeeze(axis) + np.log(e.sum(axis=axis))


def _zero_exponent_limit(log_sa, loga, logb, log_sb, one_beta: float, axis: int = -1):
    """(1/(1+beta)) log(sa/sb) - sum b^(1+beta) log(a/b) / sb, the LSD's
    continuity limit at a zero exponent: B -> 0 with (a, b) = (f, g), and
    A -> 0 with (a, b) = (g, f).  The sums run over ``axis``.

    A stacked ``logb`` (rows on axis 0, cells on axis 1) takes a ``log_sb``
    with one entry per row, shaped as ``logb`` without its cells axis;
    ``loga`` and ``logb`` broadcast against each other.
    """
    w = np.exp(one_beta * logb - (log_sb[:, None] if logb.ndim > 1 else log_sb))
    diff = np.subtract(loga, logb, order="C")  # rows contiguous whatever loga's layout
    if axis == -1:
        # each row's dot product as np.dot takes a lone vector's (a stack's
        # matmul would go through a matrix-vector BLAS call)
        dot = np.vecdot(diff, w)
    else:  # the cells added one after another, as _lse adds them
        dot = np.multiply(diff, w, out=diff).sum(axis=axis)
    return (log_sa - log_sb) / one_beta - dot


# log g on a padded data cell of a stack: finite, so that each branch of
# _lsd_kernel adds an exact zero for it (with A > 0, or with log f padded
# alike).
_PAD_LOGG = -1e300


def _lsd_kernel(
    log_sf, logf_pos: np.ndarray, logg: np.ndarray, log_sg: float, p: TiltParams,
    axis: int = -1, psi: Psi = Psi.LOG,
) -> np.ndarray:
    """LSD from its model term and its data term's inputs; with the identity
    link ``psi``, the S-divergence from the exps of the same three log sums
    (an OverflowError where a sum or the divergence exceeds a double).

    The model term ``log_sf = log sum f^(1+beta)`` runs over the model's
    whole window and does not depend on the data; the data term needs log f
    only on the occupied data cells (``logf_pos``), where ``logg`` is log g,
    and ``log_sg = log sum g^(1+beta)``.

    ``log_sf`` has shape ``(...)`` and ``logf_pos`` shape ``(..., m)`` on m
    occupied cells: a scalar and an (m,) vector give one divergence, a (k,)
    vector and a (k, m) stack (one row per model) give k of them, each equal
    to what its row alone gives, whatever the stack's layout (a transposed
    (m, k) array gives the same bits).  ``logg`` of shape (m,) with a float
    ``log_sg`` is shared by every row; a (k, m) ``logg`` with a (k,)
    ``log_sg`` gives each row its own data.  A row with fewer occupied cells
    is padded with log f finite and log g = ``_PAD_LOGG``, which add exact zeros
    to both branches (a -inf would give inf * 0 in the B -> 0 limit).
    ``axis`` names the cells axis of ``logf_pos`` when it is not the last;
    ``logg`` then broadcasts against ``logf_pos`` and ``log_sg`` against
    the result (see :func:`_lse` for the order of the sums).
    Covers the general formula and, for the log link, the B -> 0 continuity
    limit; the A -> 0 limit, which needs g on every cell, stays with
    :func:`lsd`.
    """
    one_beta = 1.0 + p.beta
    if abs(p.exp_b) < EXPONENT_BOUNDARY and psi is Psi.LOG:
        return _zero_exponent_limit(log_sf, logf_pos, logg, log_sg, one_beta, axis)
    tilted = p.exp_b * logf_pos
    tilted += p.exp_a * logg  # in place (logf_pos has the full shape): one temporary less
    log_sfg = _lse(tilted, axis)
    if psi is Psi.LOG:
        return _s_combination(log_sf, log_sfg, log_sg, p)
    if min(abs(p.exp_a), abs(p.exp_b)) < EXPONENT_BOUNDARY:
        raise ValueError(
            "identity-link divergence is undefined at the exponent boundary A=0 or B=0"
        )
    # the identity link combines the sums themselves, which can leave a double's range
    with np.errstate(over="raise"):
        try:
            return _s_combination(np.exp(log_sf), np.exp(log_sfg), np.exp(log_sg), p)
        except FloatingPointError:
            raise OverflowError("the identity-link divergence overflows a double") from None


def _s_combination(sf, sfg, sg, p: TiltParams):
    """sf / A - (1+beta) / (A B) sfg + sg / B: the LSD from the log sums
    log sum f^(1+beta), log sum f^B g^A and log sum g^(1+beta), or the
    S-divergence from the sums themselves."""
    return sf / p.exp_a - (1.0 + p.beta) / (p.exp_a * p.exp_b) * sfg + sg / p.exp_b


def _divergence(g: DiscreteDensity, f: DiscreteDensity, p: TiltParams, psi: Psi) -> float:
    """The divergence of :func:`gsd` with the link ``psi``; the log link
    takes the A -> 0 continuity limit, which needs g on every cell."""
    gv, fv = align(g, f)
    logf, pos, logg = _log_inputs(gv, fv, p)
    one_beta = 1.0 + p.beta
    log_sg = _lse(one_beta * logg)
    log_sf = _lse(one_beta * logf)
    if abs(p.exp_a) < EXPONENT_BOUNDARY and psi is Psi.LOG:
        # every cell is occupied here
        return float(_zero_exponent_limit(log_sg, logg, logf, log_sf, one_beta))
    return float(_lsd_kernel(log_sf, logf[pos], logg, log_sg, p, psi=psi))


def lsd(g: DiscreteDensity, f: DiscreteDensity, p: TiltParams) -> float:
    """Logarithmic S-divergence between data density ``g`` and model ``f``.

    ``f`` must be strictly positive on the union window.  At the exponent
    boundaries ``|A| < 1e-8`` or ``|B| < 1e-8`` the continuity limit is
    returned (the raw formula is singular there); this covers in particular
    the likelihood-disparity member beta = gamma = 0.
    """
    return _divergence(g, f, p, Psi.LOG)


def gsd(
    g: DiscreteDensity, f: DiscreteDensity, p: TiltParams, psi: Psi = Psi.LOG
) -> float:
    """Generalized S-divergence with the link ``psi``.

    The log link gives :func:`lsd`; the identity link evaluates the plain
    S-divergence from the exps of the same log sums, an OverflowError where
    one exceeds a double.  The identity branch has no boundary-limit
    handling (its members of interest keep both exponents away from zero).
    """
    return _divergence(g, f, p, psi)


def lpd(g: DiscreteDensity, f: DiscreteDensity, gamma: float) -> float:
    """Logarithmic power divergence with index gamma (closed form).

    Undefined at gamma in {0, -1} where the coefficient 1/(gamma*(gamma+1))
    blows up.
    """
    if gamma in (0.0, -1.0):
        raise ValueError("lpd is undefined at gamma in {0, -1}")
    gv, fv = align(g, f)
    if np.any(fv <= 0):
        raise SupportAlignmentError("model density must be positive on the window")
    pos = gv > 0
    if gamma < -1 and not np.all(pos):
        raise DivergenceInfiniteError("empty data cell with gamma < -1")
    logf = np.log(fv[pos])
    logg = np.log(gv[pos])
    val = logsumexp((1.0 + gamma) * logg - gamma * logf)
    return float(val / (gamma * (gamma + 1.0)))


def ldpd(g: DiscreteDensity, f: DiscreteDensity, beta: float) -> float:
    """Logarithmic density power divergence with index beta > 0 (closed form)."""
    if beta <= 0:
        raise ValueError("ldpd requires beta > 0 (beta = 0 is the likelihood disparity)")
    gv, fv = align(g, f)
    if np.any(fv <= 0):
        raise SupportAlignmentError("model density must be positive on the window")
    pos = gv > 0
    logf = np.log(fv)
    logg = np.log(gv[pos])
    t1 = logsumexp((1.0 + beta) * logf)
    t2 = logsumexp(beta * logf[pos] + logg)
    t3 = logsumexp((1.0 + beta) * logg)
    return float(t1 - (1.0 + 1.0 / beta) * t2 + t3 / beta)


def ld(g: DiscreteDensity, f: DiscreteDensity) -> float:
    """Likelihood disparity sum g*log(g/f); empty data cells contribute 0."""
    gv, fv = align(g, f)
    if np.any(fv <= 0):
        raise SupportAlignmentError("model density must be positive on the window")
    pos = gv > 0
    return float(np.dot(gv[pos], np.log(gv[pos] / fv[pos])))
