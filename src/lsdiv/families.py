"""Discrete parametric family contract and the Poisson implementation.

A family exposes the pointwise density, the score u = d log f / d theta,
the score derivative u' = du/d theta and a truncated support window whose
excluded tail mass is below a caller-chosen bound.  Every "integral" of the
underlying theory becomes a finite sum over that window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .divergence import DEFAULT_EPS_TAIL, DiscreteDensity

__all__ = ["ParametricFamily", "PoissonFamily", "density_vector", "moments_c_d"]

_TINY = np.finfo(float).tiny  # smallest normal double


class ParametricFamily(ABC):
    """Scalar-parameter discrete model on a subset of {0, 1, 2, ...}.

    A family hashed by value (a frozen dataclass, as :class:`PoissonFamily`)
    keys the fit's per-process memos of windows and model terms, so it must
    not change; one hashed by identity or unhashable is fitted without them.
    The fit calls ``log_density`` and ``score`` with a (k, 1) column of
    thetas as well, which must broadcast against x to a (k, len(x)) array.
    """

    @abstractmethod
    def density(self, theta: float, x: np.ndarray) -> np.ndarray:
        """f_theta evaluated at integer points x."""

    def log_density(self, theta: float, x: np.ndarray) -> np.ndarray:
        """log f_theta(x); override when an analytic form avoids underflow."""
        return np.log(self.density(theta, x))

    @abstractmethod
    def score(self, theta: float, x: np.ndarray) -> np.ndarray:
        """u(theta, x) = d log f_theta(x) / d theta."""

    @abstractmethod
    def score_derivative(self, theta: float, x: np.ndarray) -> np.ndarray:
        """u'(theta, x) = d u(theta, x) / d theta."""

    @abstractmethod
    def support_window(
        self, theta: float, eps_tail: float = DEFAULT_EPS_TAIL
    ) -> tuple[int, int]:
        """Smallest window (offset, length) capturing mass >= 1 - eps_tail."""

    def _window_mass(self, theta: float, eps_tail: float):
        """(offset, masses) on the support window; a family overrides this
        when it has a more accurate way to compute its masses there."""
        offset, length = self.support_window(theta, eps_tail)
        return offset, self.density(theta, offset + np.arange(length))


@dataclass(frozen=True)
class PoissonFamily(ParametricFamily):
    """Poisson(theta) on {0, 1, 2, ...}; u = x/theta - 1, u' = -x/theta^2."""

    def _check(self, theta) -> None:
        # A plain comparison for a scalar theta keeps the per-call cost of
        # density and score low; an array of thetas is checked at its minimum.
        if (np.min(theta) if isinstance(theta, np.ndarray) else theta) <= 0:
            raise ValueError(f"Poisson parameter must be positive, got {theta}")

    def density(self, theta: float, x) -> np.ndarray:
        return np.exp(self.log_density(theta, x))

    def log_density(self, theta, x) -> np.ndarray:
        """log f_theta(x); a (k, 1) column of thetas gives a (k, len(x)) matrix."""
        self._check(theta)
        x = np.asarray(x, dtype=float)
        return x * np.log(theta) - theta - gammaln(x + 1.0)

    def score(self, theta: float, x) -> np.ndarray:
        self._check(theta)
        return np.asarray(x, dtype=float) / theta - 1.0

    def score_derivative(self, theta: float, x) -> np.ndarray:
        self._check(theta)
        return -np.asarray(x, dtype=float) / theta**2

    def support_window(
        self, theta: float, eps_tail: float = DEFAULT_EPS_TAIL
    ) -> tuple[int, int]:
        return 0, len(self._window_mass(theta, eps_tail)[1])

    def _window_mass(self, theta: float, eps_tail: float) -> tuple[int, list[float]]:
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
                return 0, mass
            if fx == 0.0:
                break  # the masses underflowed before the tail bound: the sum is final
            fx *= theta / x
            cum += fx
            mass.append(fx)
        raise FloatingPointError(
            f"support window scan at theta={theta} cannot reach mass 1 - {eps_tail}"
        )


def density_vector(
    family: ParametricFamily, theta: float, eps_tail: float = DEFAULT_EPS_TAIL
) -> DiscreteDensity:
    """Model density truncated to its eps_tail support window."""
    offset, mass = family._window_mass(theta, eps_tail)
    return DiscreteDensity(offset=offset, mass=mass, tail_bound=eps_tail)


def moments_c_d(
    family: ParametricFamily,
    theta: float,
    beta: float,
    i_max: int = 3,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> tuple[np.ndarray, np.ndarray]:
    """Tilted score moments c_i = sum u^i f^(1+beta), d_i = sum u' u^i f^(1+beta).

    Returned as arrays of length i_max + 1.
    """
    offset, length = family.support_window(theta, eps_tail)
    x = offset + np.arange(length)
    f = family.density(theta, x)
    u = family.score(theta, x)
    du = family.score_derivative(theta, x)
    w = f ** (1.0 + beta)
    powers = np.vstack([u**i for i in range(i_max + 1)])
    c = powers @ w
    d = powers @ (du * w)
    return c, d
