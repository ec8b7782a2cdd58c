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

Every fit starts from a sample part (:class:`_SamplePart`): the tilt-free
state of one or more samples as rows, built in a few array passes (each
row's bracket, coarse grid, window, occupied cells, log g there and log f
on occupied cells x grid).  A fit at a tilt adds only the tilt's terms:
the memoised model terms, log sum g^(1+beta), A log g and the scan kernel.
:func:`minimize_lsd` builds a one-row part; :func:`minimize_lsd_many`
builds one part for all its densities, and the simulation harness one per
chunk of drawn samples, which it fits at every cell of a table.  The scan
of every row runs in blocks of rows, each summed over its cells axis; the
residuals, roots (by Chandrupatla's method) and final objectives of a part
of four rows or more run as (rows x window) array passes.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .divergence import (
    EXPONENT_BOUNDARY,
    DiscreteDensity,
    DivergenceInfiniteError,
    TiltParams,
    _PAD_LOGG,
    _lse,
    _lsd_kernel,
    lsd,
)
from .families import _MAX_WINDOW, PoissonFamily, density_vector

__all__ = [
    "EstimatorResult",
    "empirical_frequencies",
    "estimating_equation_residual",
    "minimize_lsd",
    "minimize_lsd_many",
    "oracle_grid_minimize",
]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Points of each row's coarse scan, which guards against multimodality, the
# width of the golden-section safeguard's final bracket, and the half-width
# of the interval around its result on which it refines theta on the residual.
_N_SCAN = 256
_TOL_THETA = 1e-8
_REFINE_HALF = max(10.0 * _TOL_THETA, 1e-5)

# Per point of the coarse grid: the grid indices of the scan cell around it
# (its neighbours, clipped to the grid), and whether it is a bracket end.
# A scan reads both with one lookup each; on minimize_lsd's one-row part,
# np.clip with np.take_along_axis, or two comparisons, cost several times
# more (numpy's per-call cost on one-element arrays).
_SCAN_CELL = np.clip(np.arange(_N_SCAN)[:, None] + [-1, 1], 0, _N_SCAN - 1)
_BRACKET_END = np.isin(np.arange(_N_SCAN), [0, _N_SCAN - 1])

# Entries per memo: an entry of the scan memo holds _N_SCAN floats, so it
# stays below 1024 x 256 x 8 bytes = 2 MB.  The simulation harness fits a
# chunk of 32 samples at every cell in turn, so a chunk needs at most 32
# entries per beta (256 on the default 8-beta grid) for every later gamma
# to hit.
_MEMO_SIZE = 1024

# Tolerances of a residual root: brentq's xtol as the fit passes it, and
# its default rtol.
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps

# A converged fit's largest estimating-equation residual, and each solver's
# step budget (brentq's, Chandrupatla's and golden section's).
_TOL_EE = 1e-6
_MAX_ITERATIONS = 200

# Floats in a block of the coarse scan's (rows x cells x _N_SCAN) arrays
# (256 KB).  Blocks this small reuse the memory the previous block freed;
# the temporaries of a whole chunk, or of blocks of 65 536 floats, cost
# hundreds of minor page faults per cell of the estimation tables.
_SCAN_BLOCK = 32768

# A sample part of fewer rows than this is fitted row by row on the scalar
# path of minimize_lsd: a small stack's array passes cost more than the
# calls they replace.
_MIN_STACK = 4


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class EstimatorResult:
    """A fit's estimate and diagnostics.

    ``iterations`` counts the root solver's steps on the residual (brentq's,
    or Chandrupatla's in :func:`minimize_lsd_many`), or golden-section steps
    where that safeguard ran.  ``bracket`` is the tightest interval
    around ``theta_hat`` whose ends were evaluated with residual > 0 (low
    end) and < 0 (high end), ``(theta_hat, theta_hat)`` on an exact zero, or
    the golden-section interval where the safeguard ran and did not refine.
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
    exactly 1.  An entry at or above the longest support window the family
    builds raises ValueError: no model window reaches it, and its count
    vector would be as long as the entry.
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    if np.any(sample < 0) or not np.issubdtype(sample.dtype, np.integer):
        raise ValueError("sample entries must be nonnegative integers")
    if sample.max() >= _MAX_WINDOW:
        raise ValueError(
            f"sample entries must be below {_MAX_WINDOW}, the longest support window"
        )
    counts = np.bincount(sample)
    return DiscreteDensity(offset=0, mass=counts / sample.size)


def estimating_equation_residual(
    theta: float,
    r_n: DiscreteDensity,
    family: PoissonFamily,
    p: TiltParams,
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
    if not (_is_real(theta) and theta > 0):
        raise ValueError(f"theta must be a finite number > 0, got {theta!r}")
    # a one-row part whose window covers the data and theta's model window
    part = _SamplePart.from_densities([r_n], family, bracket=(theta, theta))
    if part.errors[0] is not None:
        raise part.errors[0]
    return _FitContext(part, 0, p).residual(theta)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _model_window_end(family: PoissonFamily, thetas: tuple) -> int:
    """End of the window from 0 that covers the support window of every
    theta in ``thetas``, the longest (a length is not monotone in theta)."""
    return max(family.support_window(t)[1] for t in thetas)


def _grids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coarse grids, one row per bracket: row k is ``np.linspace(lo[k],
    hi[k], _N_SCAN)`` bit for bit (numpy's arange times the step, plus lo,
    with the end point set), in a few array passes for any number of rows."""
    grid = np.arange(_N_SCAN) * ((hi - lo) / (_N_SCAN - 1))[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _scan_model_terms(
    family: PoissonFamily, lo: float, hi: float, one_beta: float, length: int
) -> np.ndarray:
    """The model term log sum f_theta^(1+beta) over the window [0, length) at
    each theta of the coarse grid of (lo, hi) (see :func:`_grids`), as a
    read-only array.

    The bracket depends on the sample only through its mean, so fits of one
    sample (or of samples with the same mean and window) at one beta share
    an entry whatever their gamma.
    """
    grid = _grids(np.array([lo]), np.array([hi]))[0]
    log_sf = _lse(one_beta * family.log_density(grid[:, None], np.arange(length)))
    log_sf.flags.writeable = False
    return log_sf


class _SamplePart:
    """The tilt-free part of the fits of several data densities, as rows.

    Built once from each row's occupied cells ``x_pos`` on the window from
    0, log g there (``logg``), their number ``cells``, the row's mean and
    the end of its stored window: each row's bracket (lo, hi) (the
    mean-based default of the one-sample fit, or ``bracket`` for every
    row), its window [0, L) covering the data and the model tail at the
    bracket ends and midpoint (``length``, from a process-wide memo; the
    scan and the scalar fit sum over it), and, in one array
    pass over all rows at first use, its coarse grid of ``_N_SCAN`` thetas
    and log f on occupied cells x grid (``logf_scan``: long rows, which
    numpy's array passes run faster than a short row per theta).  A row
    given an error in ``errors``, or whose window cannot be computed, keeps
    that error and is left out of every array; ``index`` maps the kept rows
    to the rows given.  The residual at theta reads only the window of the
    bracket (theta, theta), so its part never builds a scan.

    ``x_pos`` and ``logg`` hold each kept row's ``cells`` occupied cells in
    order, padded to the most any row has with cell 0 and log g =
    ``_PAD_LOGG``.  :meth:`scan` gives every row's coarse scan at a tilt as
    arrays over the rows, from the objective on every row's grid
    (:meth:`scan_objective`, in blocks of rows) and the log sum g^(1+beta)
    kept per beta (:meth:`log_sum_g`); the scalar fit (:class:`_FitContext`)
    and the stacked one (:class:`_FitStack`, on its own window) the rest.
    """

    def __init__(
        self, x_pos: np.ndarray, logg: np.ndarray, cells: np.ndarray, means, ends,
        family: PoissonFamily, errors=None, bracket: tuple[float, float] | None = None,
    ):
        self.family = family
        self.size = len(means)
        self._log_sg: dict[float, np.ndarray] = {}
        self.errors: list = list(errors) if errors else [None] * self.size
        self.index, self.lo, self.hi, self.length = [], [], [], []
        for i, (mean, end) in enumerate(zip(means, ends)):
            if self.errors[i] is not None:
                continue
            lo, hi = bracket or (max(1e-3, mean / 5.0), 5.0 * mean + 5.0)
            try:
                window_end = _model_window_end(family, (lo, 0.5 * (lo + hi), hi))
            except (ValueError, ArithmeticError) as exc:
                self.errors[i] = exc
                continue
            self.index.append(i)
            self.lo.append(lo)
            self.hi.append(hi)
            self.length.append(max(end, window_end))
        if not self.index:
            return
        if len(self.index) < self.size:
            cells = cells[self.index]
            width = cells.max()
            x_pos, logg = x_pos[self.index, :width], logg[self.index, :width]
        self.x_pos, self.logg, self.cells = x_pos, logg, cells

    @classmethod
    def from_samples(cls, samples: np.ndarray, family: PoissonFamily):
        """The part of the empirical frequencies of each row of a (rows x n)
        matrix of nonnegative integer samples, tabulated in one bincount.

        A row's masses, mean and window end are those of
        :func:`empirical_frequencies` of that row, bit for bit.
        """
        rows, n = samples.shape
        ends = samples.max(axis=1) + 1
        width = int(ends.max())
        flat = (samples + width * np.arange(rows)[:, None]).ravel()
        mass = np.bincount(flat, minlength=rows * width).reshape(rows, width) / n
        occupied = mass > 0
        cells = occupied.sum(axis=1)
        kept = np.arange(cells.max()) < cells[:, None]
        x_pos = np.zeros(kept.shape, dtype=np.intp)
        x_pos[kept] = occupied.nonzero()[1]
        logg = np.full(kept.shape, _PAD_LOGG)
        logg[kept] = np.log(mass[occupied])
        # each row's mean as DiscreteDensity.mean sums it, on the row's own
        # window: one dot product a row, taken for all rows of one window end
        # at once, gives the same bits as a dot product of that row alone
        means = np.empty(rows)
        for end in set(ends.tolist()):
            group = ends == end
            window = mass[group, :end]
            means[group] = np.vecdot(np.arange(end), window) / window.sum(axis=1)
        return cls(x_pos, logg, cells, means.tolist(), ends.tolist(), family)

    @classmethod
    def from_densities(cls, densities, family: PoissonFamily, bracket=None):
        """The part of a list of data densities, each placed at its offset; a
        density below cell 0 or without positive mass keeps a ValueError.
        ``bracket`` replaces every row's mean-based bracket."""
        errors, occupied, ends, means = [], [], [], []
        for r_n in densities:
            nz = np.flatnonzero(r_n.mass)
            bad = r_n.offset < 0 or not nz.size
            errors.append(ValueError(
                "a data density must lie on cells >= 0 and have positive mass"
            ) if bad else None)
            occupied.append(nz[:0] if bad else nz)
            ends.append(r_n.offset + r_n.mass.size)
            means.append(np.nan if bad else r_n.mean())
        cells = np.array([nz.size for nz in occupied], dtype=int)
        x_pos = np.zeros((len(densities), cells.max(initial=0)), dtype=np.intp)
        logg = np.full(x_pos.shape, _PAD_LOGG)
        for k, (r_n, nz) in enumerate(zip(densities, occupied)):
            x_pos[k, : nz.size] = r_n.offset + nz
            logg[k, : nz.size] = np.log(r_n.mass[nz])
        return cls(x_pos, logg, cells, means, ends, family, errors, bracket)

    def log_sum_g(self, one_beta: float) -> np.ndarray:
        """Each kept row's log sum g^(1+beta), computed at the first call
        for each beta and kept, read-only, for the part's other cells at
        that beta.  The rows of one cell count share one pass, which sums
        each row as it sums the row alone (see :func:`_lse`)."""
        if one_beta not in self._log_sg:
            counts = set(self.cells.tolist())
            if len(counts) == 1:
                # every row as wide as the part, as in minimize_lsd's one-row
                # part: no masks, which cost a third of such a call
                log_sg = _lse(one_beta * self.logg)
            else:
                log_sg = np.empty(len(self.cells))
                for m in counts:
                    rows = self.cells == m
                    log_sg[rows] = _lse(one_beta * self.logg[rows, :m])
            log_sg.flags.writeable = False
            self._log_sg[one_beta] = log_sg
        return self._log_sg[one_beta]

    def scan_objective(self, p: TiltParams):
        """Each kept row's log sum g^(1+beta) at tilt p and its objective at
        each theta of its grid, as (rows,) and (rows x _N_SCAN) arrays.

        ``logf_scan`` is read in blocks of rows of at most ``_SCAN_BLOCK``
        floats (at least one row), and each block's data terms are summed
        over its cells axis, one cell after another, so that the grid is the
        contiguous inner loop; a row's padded cells add exact zeros at the
        end, which gives the row the same bits in any part and any block.
        The model terms come from a process-wide memo, one lookup per row
        (the only step taken row by row).  A value differs from
        :class:`_FitContext`'s objective there, which sums its cells
        pairwise, in the last bits only.
        """
        one_beta = 1.0 + p.beta
        log_sg = self.log_sum_g(one_beta)
        values = np.array([
            _scan_model_terms(self.family, lo, hi, one_beta, length)
            for lo, hi, length in zip(self.lo, self.hi, self.length)
        ])
        logf, logg = self.logf_scan, self.logg[:, :, None]
        step = max(1, _SCAN_BLOCK // logf[0].size)
        for i in range(0, len(values), step):
            block = slice(i, i + step)
            values[block] = _lsd_kernel(
                values[block], logf[block], logg[block], log_sg[block, None], p, axis=1
            )
        return log_sg, values

    def scan(self, p: TiltParams):
        """Each kept row's coarse scan at tilt p, as arrays over the rows:
        log sum g^(1+beta), the scan cell (g_lo, g_hi) around the grid's best
        point (the first on ties) and whether that point is a bracket end."""
        log_sg, values = self.scan_objective(p)
        best = values.argmin(axis=1)
        cell = self.grid[np.arange(len(best))[:, None], _SCAN_CELL[best]]
        return log_sg, cell[:, 0], cell[:, 1], _BRACKET_END[best]

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """Each kept row's coarse grid of its bracket (see :func:`_grids`)."""
        return _grids(np.array(self.lo), np.array(self.hi))

    @functools.cached_property
    def logf_scan(self) -> np.ndarray:
        """log f on each kept row's occupied cells x grid, as a (rows x
        cells x _N_SCAN) array."""
        return self.family.log_density(self.grid[:, None, :], self.x_pos[:, :, None])


class _FitContext:
    """The log-space objective and residual of one kept row of a sample part
    at one tilt, each at a float theta.  Only the objective reads
    ``log_sg``, the row's log sum g^(1+beta) from :meth:`_SamplePart.scan`.

    The objective is the kernel behind :func:`lsd`: a model term log sum
    f^(1+beta) over the row's whole window plus a data term on its occupied
    cells only, summed pairwise as numpy sums a lone vector.  The
    independent oracles for this path are the closed forms :func:`lpd`,
    :func:`ldpd`, :func:`ld` and :func:`oracle_grid_minimize`.
    """

    def __init__(self, part: _SamplePart, k: int, p: TiltParams, log_sg: float | None = None):
        self.family, self.p, self.log_sg = part.family, p, log_sg
        # the window's points as floats, which the family would otherwise
        # convert at every evaluation
        self.x = np.arange(part.length[k], dtype=float)
        m = part.cells[k]
        self.x_pos = part.x_pos[k, :m]
        self.logg_pos = part.logg[k, :m]
        self.a_logg = p.exp_a * self.logg_pos

    def objective(self, theta: float) -> float:
        logf = self.family.log_density(theta, self.x)
        log_sf = _lse((1.0 + self.p.beta) * logf)
        return _lsd_kernel(log_sf, logf[self.x_pos], self.logg_pos, self.log_sg, self.p)

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
    """A sample part's kept rows at one tilt as rows of one (rows x window)
    grid, for array passes of the objective and the residual at one theta
    per row, each theta at most ``top``.

    Every row sums over one window [0, end) that holds the part's data and
    the support window of ``top``, and so (the Poisson tail beyond any x
    grows with theta) every row's model tail at each theta evaluated.  The
    occupied cells are padded to the most any row has with cell 0 and log g
    = ``_PAD_LOGG``, which add exact zeros.  A row's values differ from its
    :class:`_FitContext`'s, on another window, in the last bits, depending
    on the rows that share its stack.
    """

    def __init__(self, part: _SamplePart, p: TiltParams, log_sg: np.ndarray, top: float):
        self.family, self.p, self.log_sg, self.logg = part.family, p, log_sg, part.logg
        end = max(int(part.x_pos.max()) + 1, part.family.support_window(top)[1])
        self.x = np.arange(end, dtype=float)
        self.pos = np.arange(len(part.index))[:, None] * end + part.x_pos
        self.a_logg = p.exp_a * self.logg

    def objective(self, theta: np.ndarray) -> np.ndarray:
        logf = self.family.log_density(theta[:, None], self.x)
        log_sf = _lse((1.0 + self.p.beta) * logf)
        return _lsd_kernel(log_sf, logf.reshape(-1)[self.pos], self.logg, self.log_sg, self.p)

    def residual(self, theta: np.ndarray) -> np.ndarray:
        logf = self.family.log_density(theta[:, None], self.x)
        u = self.family.score(theta[:, None], self.x)
        pos = self.pos
        return _residual(logf, u, logf.reshape(-1)[pos], u.reshape(-1)[pos], self.a_logg, self.p)


def _golden_section(fun, lo: float, hi: float):
    """Golden-section minimization to a bracket of ``_TOL_THETA`` or
    ``_MAX_ITERATIONS`` steps; returns (argmin, bracket, evaluations).

    The safeguard of :func:`minimize_lsd` for a scan cell across which the
    residual does not fall from positive to negative.
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    it = 0
    while hi - lo > _TOL_THETA and it < _MAX_ITERATIONS:
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


def _residual_root(res_fun, lo: float, v_lo: float, hi: float, v_hi: float):
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
        fun, lo, hi, xtol=_XTOL, maxiter=_MAX_ITERATIONS, full_output=True, disp=False
    )
    res = fun(root)
    if res == 0.0:
        return root, res, (root, root), info.iterations
    below = max(t for t, v in seen.items() if t <= root and v * v_lo > 0)
    above = min(t for t, v in seen.items() if t >= root and v * v_hi > 0)
    return root, res, (below, above), info.iterations


def _residual_roots(res_fun, x1, f1, x2, f2, active):
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
            active = active & (res != 0.0) & (dx >= tol) & (iterations < _MAX_ITERATIONS)
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


def _safeguard(ctx: _FitContext, lo: float, hi: float, g_lo: float, g_hi: float):
    """Golden section on a scan cell across which the residual does not fall
    from positive to negative, refined on the residual where it changes sign
    nearby; returns (theta_hat, residual, bracket, iterations)."""
    theta_hat, bracket, iterations = _golden_section(ctx.objective, g_lo, g_hi)
    res = ctx.residual(theta_hat)
    r_lo, r_hi = max(lo, theta_hat - _REFINE_HALF), min(hi, theta_hat + _REFINE_HALF)
    v_lo, v_hi = ctx.residual(r_lo), ctx.residual(r_hi)
    if v_lo * v_hi < 0:
        theta_hat, res, bracket, _ = _residual_root(ctx.residual, r_lo, v_lo, r_hi, v_hi)
    return theta_hat, res, bracket, iterations


def _result(theta_hat, res, bracket, iterations, objective, boundary_hit: bool):
    """A fit's result; it has converged when the scan's best point is inside
    the bracket, the residual is small and the bracket narrow."""
    converged = (
        not boundary_hit
        and abs(res) <= _TOL_EE
        and bracket[1] - bracket[0] <= max(_TOL_THETA, 1e-10 * max(1.0, theta_hat))
    )
    return EstimatorResult(
        theta_hat=float(theta_hat),
        objective=float(objective),
        residual=float(res),
        iterations=int(iterations),
        converged=bool(converged),
        bracket=(float(bracket[0]), float(bracket[1])),
    )


def _fit_part(part: _SamplePart, p: TiltParams) -> list:
    """The fits of a sample part's rows at tilt p: entry i is row i's
    :class:`EstimatorResult`, or the error that row raises (an exception
    object of its own).

    Every row is scanned in one blocked pass, and a part of fewer than
    ``_MIN_STACK`` rows is fitted row by row on the scalar path (brentq on
    the residual of the scan cell, or the golden-section safeguard), all on
    the rows' bracket windows.  Otherwise the residual at every row's scan
    cell ends, the roots where it falls from positive to negative there
    (Chandrupatla's method in place of brentq) and the final objectives run
    as array passes of a :class:`_FitStack` on one window of the highest
    theta they reach; the other rows take the scalar safeguard.
    """
    if p.exp_a <= EXPONENT_BOUNDARY:
        return [
            DivergenceInfiniteError(
                "estimation requires exponent A > 0 (empty cells make the divergence infinite)"
            )
            for _ in range(part.size)
        ]
    out = list(part.errors)
    if not part.index:
        return out
    log_sg, g_lo, g_hi, boundary_hit = part.scan(p)
    if part.size < _MIN_STACK:
        for k, i in enumerate(part.index):
            ctx = _FitContext(part, k, p, log_sg[k])
            v_lo, v_hi = ctx.residual(g_lo[k]), ctx.residual(g_hi[k])
            if v_lo > 0 > v_hi:
                fit = _residual_root(ctx.residual, g_lo[k], v_lo, g_hi[k], v_hi)
            else:
                fit = _safeguard(ctx, part.lo[k], part.hi[k], g_lo[k], g_hi[k])
            out[i] = _result(*fit, ctx.objective(fit[0]), boundary_hit[k])
        return out

    # a root lies in its scan cell, a safeguard result at most _REFINE_HALF above
    top = np.minimum(part.hi, g_hi + _REFINE_HALF).max()
    stack = _FitStack(part, p, log_sg, top)
    v_lo, v_hi = stack.residual(g_lo), stack.residual(g_hi)
    falls = (v_lo > 0) & (v_hi < 0)
    root, res, b_lo, b_hi, iterations = _residual_roots(
        stack.residual, g_lo, v_lo, g_hi, v_hi, falls
    )
    fits = [
        (root[k], res[k], (b_lo[k], b_hi[k]), iterations[k]) if falls[k]
        else _safeguard(
            _FitContext(part, k, p, log_sg[k]), part.lo[k], part.hi[k], g_lo[k], g_hi[k]
        )
        for k in range(len(part.index))
    ]
    objective = stack.objective(np.array([fit[0] for fit in fits]))
    for i, fit, value, edge in zip(part.index, fits, objective, boundary_hit):
        out[i] = _result(*fit, value, edge)
    return out


def minimize_lsd(r_n: DiscreteDensity, family: PoissonFamily, p: TiltParams) -> EstimatorResult:
    """Minimum-LSD estimate of the scalar model parameter from a density r_n.

    Raises:
        DivergenceInfiniteError: when the exponent A is <= 0 and the data
            density has empty cells inside the model window (the objective
            and estimating equation are not usable there).
    """
    (fit,) = _fit_part(_SamplePart.from_densities([r_n], family), p)
    if isinstance(fit, Exception):
        raise fit
    return fit


def minimize_lsd_many(densities, family: PoissonFamily, p: TiltParams) -> list:
    """Minimum-LSD estimates of several data densities at one tilt.

    Entry i is the :class:`EstimatorResult` that :func:`minimize_lsd` gives
    for ``densities[i]``, or the ValueError or ArithmeticError it raises
    (as an exception object of its own, leaving the other rows alone).

    The densities become the rows of one sample part (see
    :class:`_SamplePart`), each placed at its offset: one pass builds every
    row's bracket, grid, window, occupied cells and log f on grid x
    occupied cells.  The coarse scans of all rows run in blocks of rows (see
    :meth:`_SamplePart.scan_objective`).  The residual at every row's scan
    cell ends, the roots of the rows whose residual falls
    from positive to negative there (Chandrupatla's method in place of
    brentq) and the final objectives run as (rows x window) array passes;
    the other rows take :func:`minimize_lsd`'s golden-section safeguard.  A
    row's estimate agrees with minimize_lsd's within the root tolerance,
    and its padded sums make its values depend in the last bits on which
    rows share the call.  Fewer than four densities are fitted one by one
    as minimize_lsd fits them.
    """
    return _fit_part(_SamplePart.from_densities(densities, family), p)


def oracle_grid_minimize(
    r_n: DiscreteDensity,
    family: PoissonFamily,
    p: TiltParams,
    lo: float,
    hi: float,
    pitch: float,
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
        fm = density_vector(family, theta)
        if r_n.offset + r_n.mass.size > fm.mass.size:
            x = np.arange(r_n.offset + r_n.mass.size)
            fm = DiscreteDensity(offset=0, mass=family.density(theta, x))
        values.append(lsd(r_n, fm, p))
    return float(grid[int(np.argmin(values))])
