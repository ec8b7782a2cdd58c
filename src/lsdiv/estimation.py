"""Minimum-divergence estimation for discrete models.

The estimate minimizes theta -> LSD(r_n, f_theta) over a bracket around the
sample mean.  A coarse scan guards against the multimodality that appears
for large gamma under contamination and picks the best grid cell.  Since
the estimating-equation residual has the sign opposite to the objective's
derivative (for A > 0), the minimizer in that cell is the root of the
residual, found by brentq whenever the residual falls from positive to
negative across the cell.  Otherwise (the scan's best cell at a bracket
edge, or a degenerate sample) golden-section search narrows the cell and a
residual root refinement restores full precision when the residual changes
sign nearby.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .divergence import (
    DEFAULT_EPS_TAIL,
    EXPONENT_BOUNDARY,
    DiscreteDensity,
    DivergenceInfiniteError,
    TiltParams,
    _lse,
    _lsd_kernel,
    lsd,
)
from .families import ParametricFamily, density_vector

__all__ = [
    "SearchConfig",
    "EstimatorResult",
    "empirical_frequencies",
    "estimating_equation_residual",
    "minimize_lsd",
    "oracle_grid_minimize",
]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Tolerances and bracket policy for the scalar minimization."""

    tol_ee: float = 1e-6        # estimating-equation residual at convergence
    tol_theta: float = 1e-8     # final bracket width
    max_iterations: int = 200
    n_scan: int = 256           # coarse-grid points guarding multimodality
    bracket: tuple[float, float] | None = None  # overrides the mean-based default
    eps_tail: float = DEFAULT_EPS_TAIL


@dataclass(frozen=True)
class EstimatorResult:
    """A fit's estimate and diagnostics.

    ``iterations`` counts brentq's steps on the residual, or golden-section
    steps where that safeguard ran.  ``bracket`` is the tightest interval
    around ``theta_hat`` whose ends were evaluated with residual > 0 (low
    end) and < 0 (high end), ``(theta_hat, theta_hat)`` on an exact zero, or
    the golden-section interval where the safeguard ran.
    """

    theta_hat: float
    objective: float
    residual: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]


def empirical_frequencies(sample) -> DiscreteDensity:
    """Relative frequency vector of a nonnegative integer sample.

    The window starts at 0 and covers max(sample); the masses sum to
    exactly 1.
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    if np.any(sample < 0) or not np.issubdtype(sample.dtype, np.integer):
        raise ValueError("sample entries must be nonnegative integers")
    counts = np.bincount(sample)
    return DiscreteDensity(offset=0, mass=counts / sample.size, tail_bound=0.0)


def estimating_equation_residual(
    theta: float,
    r_n: DiscreteDensity,
    family: ParametricFamily,
    p: TiltParams,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """Imbalance Bf * sum e u - Af * sum e of the estimating equation.

    Here e = r_n^A f_theta^B on the occupied data cells, Af = sum f^(1+beta) u
    and Bf = sum f^(1+beta); since sum f^(1+beta) (Bf u - Af) = 0 this equals
    sum (delta^A - 1) f^(1+beta) (Bf u - Af) with delta = r_n / f_theta.  Zero
    at an interior optimum; its sign is opposite to the sign of the objective
    derivative (positive below the minimizer for A > 0).
    """
    if p.exp_a <= EXPONENT_BOUNDARY:
        raise DivergenceInfiniteError(
            "estimating equation degenerates for exponent A <= 0"
        )
    return _FitContext(r_n, family, p, eps_tail, (theta,)).residual(theta)


class _FitContext:
    """Precomputed log-space objective and residual for one minimization.

    The window is fixed once (covering the data and the model tail at every
    theta in ``thetas``, for a fit the bracket ends and midpoint), the
    data-side terms are computed once, and each evaluation reduces to one
    log-density computation plus two weighted reductions.  The objective is
    the kernel behind :func:`lsd`; the independent oracles for this path are
    the closed forms :func:`lpd`, :func:`ldpd`, :func:`ld` and
    :func:`oracle_grid_minimize`.

    On the L-cell window, ``logf`` and ``objective`` take a float theta,
    giving an (L,) vector and a scalar, or a (k, 1) column of thetas, giving
    a (k, L) matrix and k objectives in one array pass (the coarse scan);
    ``residual`` takes a float.
    """

    def __init__(
        self,
        g: DiscreteDensity,
        family: ParametricFamily,
        p: TiltParams,
        eps_tail: float,
        thetas: tuple[float, ...],
    ):
        self.family = family
        self.p = p
        length = g.offset + g.mass.size
        for theta in thetas:
            off, ln = family.support_window(theta, eps_tail)
            length = max(length, off + ln)
        self.x = np.arange(0, length)
        gv = np.zeros(length)
        gv[g.offset : g.offset + g.mass.size] = g.mass
        self.pos = gv > 0
        self.logg_pos = np.log(gv[self.pos])
        self.log_sg = _lse((1.0 + p.beta) * self.logg_pos)

    def logf(self, theta) -> np.ndarray:
        return self.family.log_density(theta, self.x)

    def objective(self, theta):
        return _lsd_kernel(self.logf(theta), self.pos, self.logg_pos, self.log_sg, self.p)

    def residual(self, theta: float) -> float:
        p = self.p
        logf = self.logf(theta)
        u = self.family.score(theta, self.x)
        fb = np.exp((1.0 + p.beta) * logf)
        af = float(np.dot(fb, u))
        bf = float(fb.sum())
        e = np.exp(p.exp_a * self.logg_pos + p.exp_b * logf[self.pos])
        return bf * float(np.dot(e, u[self.pos])) - af * float(e.sum())


def _golden_section(fun, lo: float, hi: float, tol: float, max_iter: int):
    """Golden-section minimization; returns (argmin, bracket, evaluations).

    The safeguard of :func:`minimize_lsd` for a scan cell across which the
    residual does not fall from positive to negative.
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    it = 0
    while hi - lo > tol and it < max_iter:
        if f1 <= f2:  # ties shrink toward the smaller theta
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fun(x2)
        it += 1
    return (lo if f1 <= f2 else x2, (lo, hi), it)


def _residual_root(res_fun, lo: float, v_lo: float, hi: float, v_hi: float, max_iter: int):
    """Root of the residual on [lo, hi], whose end values v_lo and v_hi differ
    in sign, by brentq; returns (root, residual at root, bracket, iterations).

    The bracket is the tightest interval around the root whose ends were
    evaluated with the sign of v_lo (low end) and of v_hi (high end); it is
    (root, root) on an exact zero.
    """
    seen = {lo: v_lo, hi: v_hi}

    def fun(theta):
        if theta not in seen:
            seen[theta] = res_fun(theta)
        return seen[theta]

    root, info = brentq(
        fun, lo, hi, xtol=1e-12, maxiter=max_iter, full_output=True, disp=False
    )
    res = fun(root)
    if res == 0.0:
        return root, res, (root, root), info.iterations
    below = max(t for t, v in seen.items() if t <= root and v * v_lo > 0)
    above = min(t for t, v in seen.items() if t >= root and v * v_hi > 0)
    return root, res, (below, above), info.iterations


def minimize_lsd(
    r_n: DiscreteDensity,
    family: ParametricFamily,
    p: TiltParams,
    search: SearchConfig = SearchConfig(),
) -> EstimatorResult:
    """Minimum-LSD estimate of the scalar model parameter from a density r_n.

    Raises:
        DivergenceInfiniteError: when the exponent A is <= 0 and the data
            density has empty cells inside the model window (the objective
            and estimating equation are not usable there).
    """
    if p.exp_a <= EXPONENT_BOUNDARY:
        raise DivergenceInfiniteError(
            "estimation requires exponent A > 0 (empty cells make the divergence infinite)"
        )
    mean = r_n.mean()
    if search.bracket is not None:
        lo, hi = search.bracket
    else:
        lo, hi = max(1e-3, mean / 5.0), 5.0 * mean + 5.0

    ctx = _FitContext(r_n, family, p, search.eps_tail, (lo, 0.5 * (lo + hi), hi))
    fun = ctx.objective

    # Coarse scan: pick the best cell of a uniform grid (first index on ties),
    # evaluated as one (grid x window) array pass.
    grid = np.linspace(lo, hi, search.n_scan)
    values = fun(grid[:, None])
    i_best = int(np.argmin(values))
    boundary_hit = i_best in (0, search.n_scan - 1)
    g_lo = grid[max(i_best - 1, 0)]
    g_hi = grid[min(i_best + 1, search.n_scan - 1)]

    res_fun = ctx.residual
    v_lo, v_hi = res_fun(g_lo), res_fun(g_hi)
    if v_lo > 0 > v_hi:
        theta_hat, res, bracket, iterations = _residual_root(
            res_fun, g_lo, v_lo, g_hi, v_hi, search.max_iterations
        )
    else:
        theta_hat, bracket, iterations = _golden_section(
            fun, g_lo, g_hi, search.tol_theta, search.max_iterations
        )

        # Residual-based refinement when the root is bracketed locally.
        res = res_fun(theta_hat)
        half = max(10.0 * search.tol_theta, 1e-5)
        r_lo, r_hi = max(lo, theta_hat - half), min(hi, theta_hat + half)
        try:
            v_lo, v_hi = res_fun(r_lo), res_fun(r_hi)
            if v_lo * v_hi < 0:
                theta_hat, res, _, _ = _residual_root(
                    res_fun, r_lo, v_lo, r_hi, v_hi, search.max_iterations
                )
                bracket = (r_lo, r_hi) if r_hi - r_lo < bracket[1] - bracket[0] else bracket
        except (ValueError, DivergenceInfiniteError):  # pragma: no cover - keep golden result
            pass

    converged = (
        not boundary_hit
        and abs(res) <= search.tol_ee
        and bracket[1] - bracket[0] <= max(search.tol_theta, 1e-10 * max(1.0, theta_hat))
    )
    return EstimatorResult(
        theta_hat=float(theta_hat),
        objective=float(fun(theta_hat)),
        residual=float(res),
        iterations=iterations,
        converged=bool(converged),
        bracket=(float(bracket[0]), float(bracket[1])),
    )


def oracle_grid_minimize(
    r_n: DiscreteDensity,
    family: ParametricFamily,
    p: TiltParams,
    lo: float,
    hi: float,
    pitch: float,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> float:
    """Exhaustive grid argmin of the objective; smallest theta on ties.

    Independent brute-force check for :func:`minimize_lsd`.
    """
    if not (lo < hi and pitch > 0):
        raise ValueError("need lo < hi and pitch > 0")
    grid = np.arange(lo, hi + pitch / 2.0, pitch)
    values = []
    for theta in grid:
        # model density on a window covering both its own tail bound and r_n
        fm = density_vector(family, theta, eps_tail)
        if r_n.offset + r_n.mass.size > fm.offset + fm.mass.size:
            x = np.arange(fm.offset, r_n.offset + r_n.mass.size)
            fm = DiscreteDensity(offset=fm.offset, mass=family.density(theta, x))
        values.append(lsd(r_n, fm, p))
    return float(grid[int(np.argmin(values))])
