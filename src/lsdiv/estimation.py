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

:func:`minimize_lsd_many` fits several samples at one tilt: each keeps its
own scan, and the residuals, roots (by Chandrupatla's method) and final
objectives of all of them run as (rows x window) array passes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .divergence import (
    DEFAULT_EPS_TAIL,
    EXPONENT_BOUNDARY,
    DiscreteDensity,
    DivergenceInfiniteError,
    TiltParams,
    _PAD_LOGG,
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
    "minimize_lsd_many",
    "oracle_grid_minimize",
]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Entries per memo, and the largest n_scan whose scan the memo keeps: an
# entry holds n_scan floats, so the scan memo stays below 1024 x 256 x 8
# bytes = 2 MB.  The simulation harness fits a chunk of 32 samples at every
# cell in turn, so a chunk needs at most 32 entries per beta (256 on the
# default 8-beta grid) for every later gamma to hit.
_MEMO_SIZE = 1024
_MEMO_MAX_SCAN = 256

# Tolerances of a residual root: brentq's xtol as the fit passes it, and
# its default rtol.
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps

# minimize_lsd_many fits fewer rows than this one by one with minimize_lsd:
# a small stack's array passes cost more than the calls they replace.
_MIN_STACK = 4


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

    ``iterations`` counts the root solver's steps on the residual (brentq's,
    or Chandrupatla's in :func:`minimize_lsd_many`), or golden-section steps
    where that safeguard ran.  ``bracket`` is the tightest interval
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


def _memoised(memo, family: ParametricFamily, *args, keep: bool = True):
    """``memo(family, *args)``, or the function behind it when ``keep`` is
    false or the family is hashed by identity or not at all (its value could
    change under its key)."""
    hash_ = type(family).__hash__
    if not keep or hash_ is None or hash_ is object.__hash__:
        return memo.__wrapped__(family, *args)
    return memo(family, *args)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _model_window_end(family: ParametricFamily, thetas: tuple, eps_tail: float) -> int:
    """End of the window from 0 that covers the support window of every
    theta in ``thetas``."""
    windows = [family.support_window(t, eps_tail) for t in thetas]
    return max(off + ln for off, ln in windows)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _scan_model_terms(
    family: ParametricFamily, lo: float, hi: float, n_scan: int, one_beta: float, length: int
) -> np.ndarray:
    """The model term log sum f_theta^(1+beta) over the window [0, length) at
    each theta of the coarse grid ``np.linspace(lo, hi, n_scan)``, as a
    read-only array.

    The bracket depends on the sample only through its mean, so fits of one
    sample (or of samples with the same mean and window) at one beta share
    an entry whatever their gamma.
    """
    grid = np.linspace(lo, hi, n_scan)
    log_sf = _lse(one_beta * family.log_density(grid[:, None], np.arange(length)))
    log_sf.flags.writeable = False
    return log_sf


class _FitContext:
    """Precomputed log-space objective and residual for one minimization.

    The window [0, L) is fixed once: it covers the data and the model tail at
    every theta in ``thetas`` (for a fit the bracket ends and midpoint),
    whose window end comes from a process-wide memo.  The data-side terms
    are computed once; ``x_pos`` holds the occupied cells, which index the
    window since it starts at 0.  The objective is the kernel behind
    :func:`lsd`: a model term log sum f^(1+beta) over the whole window plus
    a data term on the occupied cells only.  The independent oracles for this path are the
    closed forms :func:`lpd`, :func:`ldpd`, :func:`ld` and
    :func:`oracle_grid_minimize`.

    ``objective`` and ``residual`` take a float theta.  ``scan`` gives the
    objective on the coarse grid in one (grid x occupied cells) array pass,
    with the model terms from a process-wide memo.
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
        window_end = _memoised(_model_window_end, family, thetas, eps_tail)
        length = max(g.offset + g.mass.size, window_end)
        self.x = np.arange(0, length)
        gv = np.zeros(length)
        gv[g.offset : g.offset + g.mass.size] = g.mass
        self.x_pos = np.flatnonzero(gv)
        self.logg_pos = np.log(gv[self.x_pos])
        self.a_logg = p.exp_a * self.logg_pos
        self.log_sg = _lse((1.0 + p.beta) * self.logg_pos)

    def objective(self, theta: float) -> float:
        logf = self.family.log_density(theta, self.x)
        log_sf = _lse((1.0 + self.p.beta) * logf)
        return _lsd_kernel(log_sf, logf[self.x_pos], self.logg_pos, self.log_sg, self.p)

    def scan(self, lo: float, hi: float, n_scan: int) -> tuple[np.ndarray, np.ndarray]:
        """The grid of ``n_scan`` thetas on [lo, hi] and the objective at each,
        equal bit for bit to ``objective`` at each grid theta."""
        grid = np.linspace(lo, hi, n_scan)
        log_sf = _memoised(
            _scan_model_terms, self.family, lo, hi, n_scan, 1.0 + self.p.beta, self.x.size,
            keep=n_scan <= _MEMO_MAX_SCAN,
        )
        logf_pos = self.family.log_density(grid[:, None], self.x_pos)
        return grid, _lsd_kernel(log_sf, logf_pos, self.logg_pos, self.log_sg, self.p)

    def residual(self, theta: float) -> float:
        logf = self.family.log_density(theta, self.x)
        u = self.family.score(theta, self.x)
        pos = self.x_pos
        return float(_residual(logf, u, logf[pos], u[pos], self.a_logg, self.p))


def _residual(logf, u, logf_pos, u_pos, a_logg, p: TiltParams):
    """The residual Bf * sum e u - Af * sum e from log f and the score u on
    the model window, their values on the occupied cells and A log g there,
    with e = g^A f^B; row by row for (rows x window) and (rows x cells)
    stacks.  ``vecdot`` takes a row's dot product as ``np.dot`` takes a
    lone vector's."""
    fb = np.exp((1.0 + p.beta) * logf)
    e = np.exp(a_logg + p.exp_b * logf_pos)
    return fb.sum(-1) * np.vecdot(e, u_pos) - np.vecdot(fb, u) * e.sum(-1)


class _FitStack:
    """Several fits' contexts at one tilt as rows of one (rows x window)
    grid, for array passes of the objective and the residual at one theta
    per row.

    Each row's window [0, L) is padded to the longest with log f = -inf, and
    its occupied cells to the most any row has with cell 0 and log g =
    ``_PAD_LOGG``; both pads add exact zeros.  A padded row's sums group
    their terms otherwise than its context's, so its values differ from the
    context's in the last bits, depending on the rows that share its stack.
    """

    def __init__(self, contexts):
        self.family, self.p = contexts[0].family, contexts[0].p
        rows = len(contexts)
        length = max(c.x.size for c in contexts)
        self.x = np.arange(length)
        self.pad = np.zeros((rows, length))
        cells = max(c.x_pos.size for c in contexts)
        # flat indices of the occupied cells into a (rows x window) array
        self.pos = np.repeat(np.arange(rows)[:, None] * length, cells, axis=1)
        self.logg = np.full(self.pos.shape, _PAD_LOGG)
        for i, c in enumerate(contexts):
            self.pad[i, c.x.size :] = -np.inf
            self.pos[i, : c.x_pos.size] += c.x_pos
            self.logg[i, : c.x_pos.size] = c.logg_pos
        self.a_logg = self.p.exp_a * self.logg
        self.log_sg = np.array([c.log_sg for c in contexts])

    def objective(self, theta: np.ndarray) -> np.ndarray:
        logf = self.family.log_density(theta[:, None], self.x) + self.pad
        log_sf = _lse((1.0 + self.p.beta) * logf)
        return _lsd_kernel(log_sf, logf.reshape(-1)[self.pos], self.logg, self.log_sg, self.p)

    def residual(self, theta: np.ndarray) -> np.ndarray:
        logf = self.family.log_density(theta[:, None], self.x) + self.pad
        u = self.family.score(theta[:, None], self.x)
        pos = self.pos
        return _residual(logf, u, logf.reshape(-1)[pos], u.reshape(-1)[pos], self.a_logg, self.p)


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
        fun, lo, hi, xtol=_XTOL, maxiter=max_iter, full_output=True, disp=False
    )
    res = fun(root)
    if res == 0.0:
        return root, res, (root, root), info.iterations
    below = max(t for t, v in seen.items() if t <= root and v * v_lo > 0)
    above = min(t for t, v in seen.items() if t >= root and v * v_hi > 0)
    return root, res, (below, above), info.iterations


def _residual_roots(res_fun, x1, f1, x2, f2, active, max_iter: int):
    """Roots of the stacked residual on the rows where ``active``, each on
    [x1, x2] with f1 > 0 > f2 there, by Chandrupatla's method: inverse
    quadratic interpolation where the last three points trust it, bisection
    elsewhere, each step at least half the tolerance inside the bracket.

    Every step evaluates ``res_fun`` at one theta per row (a row that is
    done at a point it has seen).  A row stops on an exact zero or once its
    bracket is narrower than brentq's tolerance.  Returns arrays (root,
    residual at root, bracket low end, bracket high end, iterations) with
    the meanings of :func:`_residual_root`'s results.
    """
    x3, f3 = x2, f2
    t = np.full(x1.shape, 0.5)
    iterations = np.zeros(x1.shape, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            near = np.abs(f1) < np.abs(f2)
            root, res = np.where(near, x1, x2), np.where(near, f1, f2)
            tol = _RTOL * np.abs(root) + _XTOL
            dx = np.abs(x2 - x1)
            active = active & (res != 0.0) & (dx >= tol) & (iterations < max_iter)
            if not active.any():
                break
            tl = 0.5 * tol / dx
            xt = np.where(active, x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1), x1)
            ft = res_fun(xt)
            # xt replaces x1; the end it drops (x1 if their signs agree,
            # else x2, which x1 replaces) becomes x3.  A row that is done
            # keeps its ends; its x3 and t are not read again.
            same = np.sign(ft) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            other = active & ~same
            x2, f2 = np.where(other, x1, x2), np.where(other, f1, f2)
            x1, f1 = np.where(active, xt, x1), np.where(active, ft, f1)
            iterations += active
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    exact = res == 0.0
    return root, res, np.where(exact, root, lo), np.where(exact, root, hi), iterations


def _scan_cell(r_n: DiscreteDensity, family: ParametricFamily, p: TiltParams, search: SearchConfig):
    """A fit's context, its bracket (lo, hi), the scan cell (g_lo, g_hi)
    around the coarse grid's best point (the first on ties) and whether that
    point is a bracket end."""
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
    grid, values = ctx.scan(lo, hi, search.n_scan)
    i_best = int(np.argmin(values))
    g_lo = grid[max(i_best - 1, 0)]
    g_hi = grid[min(i_best + 1, search.n_scan - 1)]
    return ctx, lo, hi, g_lo, g_hi, i_best in (0, search.n_scan - 1)


def _safeguard(ctx: _FitContext, lo: float, hi: float, g_lo: float, g_hi: float, search: SearchConfig):
    """Golden section on a scan cell across which the residual does not fall
    from positive to negative, refined on the residual where it changes sign
    nearby; returns (theta_hat, residual, bracket, iterations)."""
    theta_hat, bracket, iterations = _golden_section(
        ctx.objective, g_lo, g_hi, search.tol_theta, search.max_iterations
    )
    res = ctx.residual(theta_hat)
    half = max(10.0 * search.tol_theta, 1e-5)
    r_lo, r_hi = max(lo, theta_hat - half), min(hi, theta_hat + half)
    try:
        v_lo, v_hi = ctx.residual(r_lo), ctx.residual(r_hi)
        if v_lo * v_hi < 0:
            theta_hat, res, _, _ = _residual_root(
                ctx.residual, r_lo, v_lo, r_hi, v_hi, search.max_iterations
            )
            bracket = (r_lo, r_hi) if r_hi - r_lo < bracket[1] - bracket[0] else bracket
    except (ValueError, DivergenceInfiniteError):  # pragma: no cover - keep golden result
        pass
    return theta_hat, res, bracket, iterations


def _result(theta_hat, res, bracket, iterations, objective, boundary_hit: bool, search: SearchConfig):
    """A fit's result; it has converged when the scan's best point is inside
    the bracket, the residual is small and the bracket narrow."""
    converged = (
        not boundary_hit
        and abs(res) <= search.tol_ee
        and bracket[1] - bracket[0] <= max(search.tol_theta, 1e-10 * max(1.0, theta_hat))
    )
    return EstimatorResult(
        theta_hat=float(theta_hat),
        objective=float(objective),
        residual=float(res),
        iterations=int(iterations),
        converged=bool(converged),
        bracket=(float(bracket[0]), float(bracket[1])),
    )


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
    ctx, lo, hi, g_lo, g_hi, boundary_hit = _scan_cell(r_n, family, p, search)
    v_lo, v_hi = ctx.residual(g_lo), ctx.residual(g_hi)
    if v_lo > 0 > v_hi:
        fit = _residual_root(ctx.residual, g_lo, v_lo, g_hi, v_hi, search.max_iterations)
    else:
        fit = _safeguard(ctx, lo, hi, g_lo, g_hi, search)
    return _result(*fit, ctx.objective(fit[0]), boundary_hit, search)


def minimize_lsd_many(
    densities,
    family: ParametricFamily,
    p: TiltParams,
    search: SearchConfig = SearchConfig(),
) -> list:
    """Minimum-LSD estimates of several data densities at one tilt.

    Entry i is the :class:`EstimatorResult` that :func:`minimize_lsd` gives
    for ``densities[i]``, or the ValueError or ArithmeticError it raises
    (as an exception object, leaving the other rows alone).

    Each row keeps its own context and coarse scan.  The residual at every
    row's scan cell ends, the roots of the rows whose residual falls from
    positive to negative there (Chandrupatla's method in place of brentq)
    and the final objectives run as (rows x window) array passes; the other
    rows take :func:`minimize_lsd`'s golden-section safeguard.  A row's
    estimate agrees with minimize_lsd's within the root tolerance, and its
    padded sums make its values depend in the last bits on which rows share
    the call.  Fewer than four densities are fitted one by one with
    minimize_lsd.
    """
    out: list = [None] * len(densities)
    if len(densities) < _MIN_STACK:
        for i, r_n in enumerate(densities):
            try:
                out[i] = minimize_lsd(r_n, family, p, search)
            except (ValueError, ArithmeticError) as exc:
                out[i] = exc
        return out

    rows, cells = [], []
    for i, r_n in enumerate(densities):
        try:
            cells.append(_scan_cell(r_n, family, p, search))
        except (ValueError, ArithmeticError) as exc:
            out[i] = exc
        else:
            rows.append(i)
    if not rows:
        return out

    contexts, lo, hi, g_lo, g_hi, boundary_hit = zip(*cells)
    stack = _FitStack(contexts)
    g_lo, g_hi = np.array(g_lo), np.array(g_hi)
    v_lo, v_hi = stack.residual(g_lo), stack.residual(g_hi)
    falls = (v_lo > 0) & (v_hi < 0)
    root, res, b_lo, b_hi, iterations = _residual_roots(
        stack.residual, g_lo, v_lo, g_hi, v_hi, falls, search.max_iterations
    )
    fits = [
        (root[k], res[k], (b_lo[k], b_hi[k]), iterations[k]) if falls[k]
        else _safeguard(contexts[k], lo[k], hi[k], g_lo[k], g_hi[k], search)
        for k in range(len(rows))
    ]
    objective = stack.objective(np.array([fit[0] for fit in fits]))
    for i, fit, value, edge in zip(rows, fits, objective, boundary_hit):
        out[i] = _result(*fit, value, edge, search)
    return out


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
