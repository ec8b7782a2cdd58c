"""The Poisson model family and its tilted score moments.

The family exposes the pointwise density, the score u = d log f / d theta,
the score derivative u' = du/d theta and a truncated support window whose
excluded tail mass is below a caller-chosen bound.  Every "integral" of the
underlying theory becomes a finite sum over that window.

Every log x! the package takes comes from one process-wide, read-only table
of the points [0, n) as floats and log x! there, grown on demand: a window
of its points (:func:`_points`) reads a view of its log x!, any other array
of points a gather (:meth:`PoissonFamily._log_factorial`), and a lone point
one entry, or the formula past the table's end.  :func:`_log_gamma` fills
it, taking log Gamma(x + 1) at integers x >= 0 alone: the cephes ``lgam``
that ``scipy.special.gammaln`` evaluates, step for step on Python floats, so
the table equals ``gammaln(x + 1)`` bit for bit without importing scipy.  It
takes ``math.log`` point by point, since ``np.log`` differs from it in the
last bit at a few integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import DEFAULT_EPS_TAIL, DiscreteDensity

__all__ = ["PoissonFamily", "density_vector", "moments_c_d"]

_TINY = np.finfo(float).tiny  # smallest normal double

# Every support window the family builds is shorter than this many points.
_MAX_WINDOW = 100_000

# The coefficients of cephes' Stirling series (see _log_gamma), log sqrt(2
# pi), and the largest x whose log gamma is finite.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _log_gamma(x: float) -> float:
    """log Gamma(x) at an integer x >= 1, with the bits of cephes' lgam, the
    function behind ``scipy.special.gammaln``.  Below 13 lgam's shifts stop
    at 2 and return the log of their product, the exact (x - 1)!; above,
    its Stirling branches run on Python floats in its order of operations."""
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        series = series * p + coef
    return q + series / x


# The points [0, n) as floats and log x! there, read-only (see _table).
_POINTS = np.zeros(0), np.zeros(0)


def _table(end: int) -> tuple[np.ndarray, np.ndarray]:
    """The process-wide table of points and log x!, grown on demand (at
    least doubling) to cover [0, end); a grown table replaces the old one
    whole, so a reader holding either sees complete, read-only arrays."""
    global _POINTS
    points = _POINTS  # another thread may replace the table, with a shorter one
    if len(points[0]) < end:
        start, size = len(points[0]), max(end, 2 * len(points[0]))
        new = [_log_gamma(k + 1.0) for k in range(start, size)]
        points = np.arange(size, dtype=float), np.concatenate((points[1], new))
        for a in points:
            a.flags.writeable = False
        _POINTS = points
    return points


def _points(end: int) -> np.ndarray:
    """The window [0, end) as floats, a read-only view of the table's
    points, whose log x! the family reads as a view of the table's (see
    :meth:`PoissonFamily._log_factorial`)."""
    return _table(end)[0][:end]


# Records in the tilted-moment memo: a curve over y needs one, a null law two
# (at beta and 2 beta).
_MOMENT_MEMO_SIZE = 32


@dataclass(frozen=True)
class PoissonFamily:
    """Poisson(theta) on {0, 1, 2, ...}; u = x/theta - 1, u' = -x/theta^2.

    The family is a frozen dataclass, hashed by value: it keys the
    per-process memos of the fit's windows and model terms and of the tilted
    moments (:func:`moments_c_d`).  x is an array of integer points (as ints
    or as floats of integer value), and theta a positive finite float or an
    array that broadcasts against x; ``density``, ``score`` and
    ``score_derivative`` also take a lone integer point, which the
    model-case influence functions pass.  The fit calls ``log_density`` and
    ``score`` with a 1-d x and a (k, 1) column of thetas, which give a
    (k, len(x)) array.  Every support window starts at 0, so every sum over
    the model runs over [0, length).
    """

    def _check(self, theta) -> None:
        # A plain comparison for a scalar theta keeps the per-call cost of
        # density and score low; an array of thetas (the fit's grids and
        # steps, inside a bracket whose ends passed the scalar check) is
        # checked at its minimum and maximum, which are NaN when any entry is.
        if isinstance(theta, np.ndarray):
            ok = theta.min() > 0 and theta.max() < math.inf
        else:
            ok = 0 < theta < math.inf
        if not ok:
            raise ValueError(f"Poisson parameter must be positive and finite, got {theta}")

    def density(self, theta: float, x) -> np.ndarray:
        self._check(theta)
        return np.exp(self._log_mass(theta, x))

    def log_density(self, theta, x) -> np.ndarray:
        """log f_theta(x); a (k, 1) column of thetas gives a (k, len(x)) matrix."""
        self._check(theta)
        return self._log_mass(theta, x)

    @staticmethod
    def _log_mass(theta, x):
        """log f_theta(x), unchecked: ``density`` reads it here, not through
        ``log_density``, whose x is always an array.  A lone point x gives a
        numpy scalar and scalar steps."""
        x = np.asarray(x, dtype=float)
        # in place: for an array theta that broadcasts against x, numpy
        # cannot reuse the product's buffer for the differences, and on a
        # (rows x window) array of divergence_between_fits two fresh
        # temporaries cost more than the arithmetic
        logf = x * np.log(theta)
        logf -= theta
        logf -= PoissonFamily._log_factorial(x)
        return logf

    @staticmethod
    def _log_factorial(x: np.ndarray):
        """log x! of a float array x, the last term of :meth:`_log_mass`.
        A window of the table's points (:func:`_points`) reads the same
        window of its log x!, any other array a gather from the table, grown
        to cover x.  A lone point reads one entry, or the formula past the
        table's end, as does an array with a point past ``_MAX_WINDOW``, for
        which the table does not grow.  A point that is not a nonnegative
        integer is a ValueError."""
        points = _POINTS
        if x.ndim == 1 and x.size and x.base is points[0] and x.strides == points[0].strides:
            start = int(x[0])  # the table's points are read-only: x is [start, start + size)
            return points[1][start : start + x.size]
        if x.ndim == 0:
            point = float(x)
            if not (point >= 0.0 and point.is_integer()):
                raise ValueError(f"a Poisson point must be a nonnegative integer, got {point}")
            return points[1][int(point)] if point < len(points[1]) else _log_gamma(point + 1.0)
        if not x.size:
            return np.zeros(x.shape)
        # "not >=" rejects NaN; an inf point passes here (floor(inf) == inf)
        # and fails as a lone point below
        if not (x.min() >= 0.0 and (np.floor(x) == x).all()):
            raise ValueError("Poisson points must be nonnegative integers")
        top = x.max()
        if top > _MAX_WINDOW:
            return np.array([PoissonFamily._log_factorial(v) for v in x.ravel()]).reshape(x.shape)
        return _table(int(top) + 1)[1][x.astype(np.intp)]

    def score(self, theta: float, x) -> np.ndarray:
        self._check(theta)
        return np.asarray(x, dtype=float) / theta - 1.0

    def score_derivative(self, theta: float, x) -> np.ndarray:
        self._check(theta)
        return -np.asarray(x, dtype=float) / theta**2

    def support_window(
        self, theta: float, eps_tail: float = DEFAULT_EPS_TAIL
    ) -> tuple[int, int]:
        """Smallest window (0, length) capturing mass >= 1 - eps_tail."""
        return 0, len(self._window_mass(theta, eps_tail))

    def _window_mass(self, theta: float, eps_tail: float) -> list[float]:
        """The masses on the support window [0, length)."""
        self._check(theta)
        if not 0 < eps_tail < 1:
            raise ValueError("eps_tail must lie in (0, 1)")
        # Ratio recurrence f(x+1) = f(x) * theta / (x+1), stable on the window
        # and exact at the mode tie of integer theta; stop at the first length
        # whose excluded tail mass is < eps_tail.
        fx = float(np.exp(-theta))
        if fx < _TINY:
            # A subnormal (theta >~ 708.4) or zero first mass loses precision
            # down the recurrence: the window would come out silently short.
            raise FloatingPointError(
                f"first Poisson mass exp(-{theta}) underflows; the support window "
                "cannot be computed"
            )
        mass = [fx]
        cum = fx
        for x in range(1, _MAX_WINDOW):
            if 1.0 - cum < eps_tail:
                return mass
            if fx == 0.0:
                break  # the masses underflowed before the tail bound: the sum is final
            fx *= theta / x
            cum += fx
            mass.append(fx)
        raise FloatingPointError(
            f"support window scan at theta={theta} cannot reach mass 1 - {eps_tail}"
        )


def density_vector(
    family: PoissonFamily, theta: float, eps_tail: float = DEFAULT_EPS_TAIL
) -> DiscreteDensity:
    """Model density truncated to its eps_tail support window."""
    return DiscreteDensity(offset=0, mass=family._window_mass(theta, eps_tail))


class _TiltedMoments(NamedTuple):
    """The tilted score moments c_0..c_3 and d_0..d_3 (read-only) of
    :func:`moments_c_d` and the length of the support window [0, length)
    they sum over."""

    c: np.ndarray
    d: np.ndarray
    length: int


# Score powers 0..3 as one (4, 1) exponent column.
_POWERS = np.arange(4)[:, None]


@functools.lru_cache(maxsize=_MOMENT_MEMO_SIZE)
def _moment_record(family: PoissonFamily, theta: float, beta: float) -> _TiltedMoments:
    """The moments of (family, theta, beta) in one pass over the support
    window: w = f^(1+beta) from log f, and the score powers u^0..u^3 as one
    (4 x window) array."""
    length = family.support_window(theta)[1]
    x = _points(length)
    w = np.exp((1.0 + beta) * family.log_density(theta, x))
    powers = family.score(theta, x) ** _POWERS
    c = powers @ w
    d = powers @ (family.score_derivative(theta, x) * w)
    c.flags.writeable = d.flags.writeable = False
    return _TiltedMoments(c, d, length)


def moments_c_d(family: PoissonFamily, theta: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Tilted score moments c_i = sum u^i f^(1+beta), d_i = sum u' u^i f^(1+beta)
    over the support window of the default tail bound, for i = 0..3.

    Returned as read-only arrays of length 4, one record per (family,
    theta, beta) in a process-wide memo of 32 records, so the influence
    functions and the null law at one (theta, beta) share one pass over the
    window.
    """
    record = _moment_record(family, theta, beta)
    return record.c, record.d
