"""The Poisson model family and its tilted score moments.

The family exposes the pointwise density, the score u = d log f / d theta,
the score derivative u' = du/d theta and a truncated support window whose
excluded tail mass is below a caller-chosen bound.  Every "integral" of the
underlying theory becomes a finite sum over that window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .divergence import DEFAULT_EPS_TAIL, DiscreteDensity

__all__ = ["PoissonFamily", "density_vector", "moments_c_d"]

_TINY = np.finfo(float).tiny  # smallest normal double

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
    (k, len(x)) array, and ``log_density`` with a (rows, m, 1) x and a
    (rows, 1, k) theta, which give a (rows, m, k) array.  Every support
    window starts at 0, so every sum over the model runs over [0, length).
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
        # sample part's (rows x cells x grid) array two fresh temporaries
        # cost more than the arithmetic
        logf = x * np.log(theta)
        logf -= theta
        logf -= gammaln(x + 1.0)
        return logf

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
        for x in range(1, 100_000):
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
    x = np.arange(length)
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
