"""Minimum-divergence estimation for discrete models.

The estimate minimizes theta -> LSD(r_n, f_theta) over the bracket
(max(1e-3, x_min - 1), x_max + 1) of the sample's smallest and largest
values, which holds every minimizer (see :class:`_SamplePart`).  A coarse
scan picks the best point of a grid over the bracket: the objective is
convex in log theta at B <= 0, but at B > 0 it can have several local
minima (on the samples measured, at gamma < beta / (1 - beta), and at
every gamma when beta = 1).  The estimating-equation residual is the
objective's slope in log theta times -A / ((1 + beta) theta), so where it
falls from positive to negative across the scan cell around the best
point, the minimizer is its root there, found by a safeguarded Newton
method on the residual and its closed-form slope.  Otherwise (the best
point at the floor, or a degenerate sample) the fit keeps the best grid
point.

Every fit starts from a sample part (:class:`_SamplePart`): the tilt-free
state of one or more samples as rows, built in a few array passes (each
row's bracket, coarse grid and log theta there, window, occupied cells with
log f at a reference theta there, and log g there).  A fit at a tilt adds
only the tilt's terms: the memoised model terms, log sum g^(1+beta) and the
data term's factors.
:func:`minimize_lsd` builds a one-row part; :func:`minimize_lsd_many`
builds one part for all its densities, and the simulation harness one per
chunk of drawn samples, which it fits at every cell of a table.  The scan
of a part of four rows or more is certified at B != 0: it evaluates every
16th grid point, then only the points where a bound (a chord at B > 0,
convexity at B < 0) shows the grid's argmin can lie, gathered over the rows
in one pass (:meth:`_SamplePart.scan_objective`); a smaller part, and any
part at B = 0, evaluates the whole grid.  The residuals, roots and final
objectives of a part of four rows or more run as (rows x window) array
passes, and a smaller part's roots on floats; both evaluate one fit window
(:class:`_FitWindow`), a stack's or a row's.
The fits are one record of arrays over the rows (:class:`_PartFits`), from
which only the public functions build :class:`EstimatorResult`s.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import (
    EXPONENT_BOUNDARY,
    DiscreteDensity,
    DivergenceInfiniteError,
    TiltParams,
    _PAD_LOGG,
    _lse,
    _s_combination,
    lsd,
)
from .families import _MAX_WINDOW, PoissonFamily, _points, density_vector

__all__ = [
    "EstimatorResult",
    "empirical_frequencies",
    "estimating_equation_residual",
    "minimize_lsd",
    "minimize_lsd_many",
    "oracle_grid_minimize",
]

# Points of each row's coarse scan, which guards against multimodality, and
# the least distance from a converged estimate to its search bracket's ends.
_N_SCAN = 256
_TOL_THETA = 1e-8

# Per point of the coarse grid: the grid indices of its scan cell's low end,
# of itself and of the cell's high end (its neighbours, clipped to the
# grid).  A scan reads them with one lookup; on minimize_lsd's one-row part,
# np.clip with np.take_along_axis costs several times more (numpy's
# per-call cost on one-element arrays).
_SCAN_CELL = np.clip(np.arange(_N_SCAN)[:, None] + [-1, 0, 1], 0, _N_SCAN - 1)
_GRID_STEPS = np.arange(_N_SCAN, dtype=float)  # np.linspace's step counts, in floats

# Entries per memo: an entry of the scan memo holds _N_SCAN floats, so it
# stays below 1024 x 256 x 8 bytes = 2 MB.  The simulation harness fits a
# chunk of 32 samples at every cell in turn, so a chunk needs at most 32
# entries per beta (256 on the default 8-beta grid) for every later gamma
# to hit.
_MEMO_SIZE = 1024


# A root's solve stops once its bracket is narrower than
# _RTOL * |root| + _XTOL (Python floats, as the scalar solver's arithmetic).
_XTOL = 1e-12
_RTOL = 4.0 * math.ulp(1.0)

# A converged fit's largest estimating-equation residual and lowest
# objective (the LSD is >= 0; a value below this is cancellation in its log
# sums, as at beta ~ 1e10), and the root solver's step budget.
_TOL_EE = 1e-6
_MIN_OBJECTIVE = -1e-10
_MAX_ITERATIONS = 200

# The certified scan's coarse pass: every _COARSE_STEP-th grid point and the
# last (measured against steps of 8 and 32 on the table shapes); per grid
# point, the coarse interval [a, b] that holds it, by its position among the
# coarse points, and whether it is a fine (not a coarse) point.  A fine
# point stays in the scan while a bound shows it may be within
# _SCAN_MARGIN, relative to the size of the objective's terms, of the
# coarse best, which covers their rounding.
_COARSE_STEP = 16
_COARSE = np.append(np.arange(0, _N_SCAN, _COARSE_STEP), _N_SCAN - 1)
_INTERVAL = np.arange(_N_SCAN) // _COARSE_STEP
_FINE = np.isin(np.arange(_N_SCAN), _COARSE, invert=True)
_SCAN_MARGIN = 1e-12

_POWERS = np.arange(3.0)  # of x, whose weighted sums a residual pass takes

# A sample part of fewer rows than this is fitted row by row on the scalar
# path of minimize_lsd: a small stack's array passes cost more than the
# calls they replace.
_MIN_STACK = 4


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class EstimatorResult:
    """A fit's estimate and diagnostics.

    ``residual`` is :func:`estimating_equation_residual` at ``theta_hat``.
    ``iterations`` counts the root solver's steps (each a pass over the
    residual and its slope at one theta, or at the closing pair around the
    root), 0 where the fit kept the scan's best grid point.  ``bracket`` is
    the tightest interval around ``theta_hat`` whose ends were evaluated
    with residual > 0 (low end) and < 0 (high end),
    ``(theta_hat, theta_hat)`` on an exact zero, or the scan cell around
    a kept grid point.  ``converged`` is True when ``theta_hat`` is more
    than 1e-8 inside the search bracket, |residual| <= 1e-6 and the
    objective is at least -1e-10 (the LSD is >= 0: a lower value is
    cancellation in its log sums, as at beta ~ 1e10); a root's bracket is
    then at most max(1e-8, 1e-10 max(1, theta_hat)) wide, which the
    solver's stop rule gives.
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
    """The estimating equation's residual E_e[u] - E_{f^(1+beta)}[u] at theta.

    The means of the Poisson score u = x / theta - 1 are taken under weights
    e = r_n^A f_theta^B on the occupied data cells (r_n^(1+beta) at B = 0)
    and f_theta^(1+beta) on the model window, each normalised, so the value
    is (E_e[x] - E_{f^(1+beta)}[x]) / theta and does not change when f is
    scaled.  It is the objective's derivative in log theta times
    -A / ((1+beta) theta): zero at an interior optimum, positive below the
    minimizer for A > 0.  The estimating equation's left side sum
    (delta^A - 1) f^(1+beta) (Bf u - Af), with delta = r_n / f_theta, Af =
    sum f^(1+beta) u and Bf = sum f^(1+beta), is sum e times Bf times this
    residual.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in a fit
        return float(_FitWindow.row(part, 0, p).residual(theta))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _model_window_end(family: PoissonFamily, thetas: tuple) -> int:
    """End of the window from 0 that covers the support window of every
    theta in ``thetas``, the longest (a length is not monotone in theta)."""
    return max(family.support_window(t)[1] for t in thetas)


def _grids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coarse grids, one row per bracket: row k is ``np.linspace(lo[k],
    hi[k], _N_SCAN)`` bit for bit (numpy's arange times the step, plus lo,
    with the end point set), in a few array passes for any number of rows."""
    grid = _GRID_STEPS * ((hi - lo) / (_N_SCAN - 1))[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _scan_model_terms(
    family: PoissonFamily, lo: float, hi: float, one_beta: float, length: int
) -> np.ndarray:
    """The model term log sum f_theta^(1+beta) over the window [0, length) at
    each theta of the coarse grid of (lo, hi) (see :func:`_grids`), of f
    scaled as :func:`_objective` scales it, at the reference theta_r =
    (lo + hi) / 2, as a read-only array.

    The bracket depends on the sample only through its smallest and largest
    values, so fits of one sample (or of samples with the same data range and
    window) at one beta share an entry whatever their gamma.
    """
    grid, ref = _grids(np.array([lo]), np.array([hi]))[0], 0.5 * (lo + hi)
    family._check(grid)
    x = _points(length)
    logf = x * np.log(grid / ref)[:, None]  # log f e^(theta - theta_r), see _objective
    logf += family._log_mass(ref, x)
    log_sf = _lse(one_beta * logf)
    log_sf.flags.writeable = False
    return log_sf


def _objective(log_sf, log_ratio, factors, log_sg, p: TiltParams):
    """The objective at theta from the model term ``log_sf``, log(theta /
    theta_r) and the data term's factors: floats for a row, or arrays over
    rows whose factors hold the cells on axis 1.  The LSD does not change
    when f is scaled (its terms move by (1+beta)/A log c, -(1+beta)/A log c
    and 0), so both terms take f_theta e^(theta - theta_r), whose log is
    log f_theta_r + x log(theta / theta_r), smooth in theta.  At B != 0 the
    data term is the log-sum-exp of (B x) log(theta / theta_r) + (A log g +
    B log f_theta_r); at B = 0 the limit's sum w (log f - log g) is
    log(theta / theta_r) sum w x + sum w (log f_theta_r - log g)."""
    if abs(p.exp_b) < EXPONENT_BOUNDARY:  # factors: sum w x, sum w (log f_theta_r - log g)
        return (log_sf - log_sg) / (1.0 + p.beta) - (log_ratio * factors[0] + factors[1])
    bx, c = factors
    rows = isinstance(log_ratio, np.ndarray)
    tilted = bx * (log_ratio[:, None] if rows else log_ratio)
    tilted += c
    peak = tilted.max(axis=1, keepdims=True) if rows else tilted.max()
    tilted -= peak
    e = np.exp(tilted, out=tilted)
    # a row's cells are added one after another, as a scan's sum over axis 1 adds them
    log_sfg = (peak[:, 0] if rows else peak) + np.log(e.sum(axis=1) if rows else sum(e.tolist()))
    return _s_combination(log_sf, log_sfg, log_sg, p)


class _SamplePart:
    """The tilt-free part of the fits of several data densities, as rows.

    Built once from each row's occupied cells ``x_pos`` on the window from
    0, log g there (``logg``) and their number ``cells``: each row's bracket
    (lo, hi) from its first and last occupied cells x_min and x_max (or
    ``bracket`` for every row), its reference theta_r = (lo + hi) / 2
    (``ref``), its window [0, L) covering the data and the model tail at
    the bracket ends and midpoint (``length``, from a process-wide memo;
    the scan and the scalar fit sum over it), and, in one array pass over all
    rows at first use each, its occupied cells as floats with log f at its
    reference theta there (``cell_terms``) and its coarse grid of
    ``_N_SCAN`` thetas (``grid``) with log(theta / theta_r) there
    (``scan_terms``).  A row given an error in ``errors``, or whose window
    cannot be computed, keeps that error and is left out of every array;
    ``index`` maps the kept rows to the rows given.  The residual at theta
    reads only the window of the bracket (theta, theta) and the cell terms,
    so its part never builds a grid.

    The bracket (max(1e-3, x_min - 1), x_max + 1) holds every minimizer at
    A > 0: the residual is (E_e[x] - m(theta)) / theta, where E_e[x], a
    weighted mean of the occupied cells, lies in [x_min, x_max], and m(theta)
    = E_{f^(1+beta)}[x] rises in theta with m(theta) - theta in (-1, 0]
    (checked on a dense grid of beta <= 20).  So the residual is positive at
    x_min - 1 and negative at x_max + 1; only a sample with x_min = 0 can
    have its infimum at the floor 1e-3.

    ``x_pos`` and ``logg`` hold each kept row's ``cells`` occupied cells in
    order, padded to the most any row has with cell 0 and log g =
    ``_PAD_LOGG``.  :meth:`scan` gives every row's coarse scan at a tilt as
    arrays over the rows, from the objective on every row's grid
    (:meth:`scan_objective`), the log sum g^(1+beta) kept per beta
    (:meth:`log_sum_g`) and the data term's factors kept for the last tilt
    (:meth:`data_factors`), which the fit windows (:class:`_FitWindow`)
    read too.
    """

    def __init__(
        self, x_pos: np.ndarray, logg: np.ndarray, cells: np.ndarray, family: PoissonFamily,
        errors=None, bracket: tuple[float, float] | None = None,
    ):
        self.family = family
        self.size = len(cells)
        self._log_sg: dict[float, np.ndarray] = {}
        self._factors = None, None  # the last tilt and its data_factors
        self.errors: list = list(errors) if errors else [None] * self.size
        self.index, self.lo, self.hi, self.length, self.ref = [], [], [], [], []
        for i in range(self.size):
            if self.errors[i] is not None:
                continue
            x_min, x_max = int(x_pos[i, 0]), int(x_pos[i, cells[i] - 1])
            lo, hi = bracket or (max(1e-3, x_min - 1.0), x_max + 1.0)
            ref = 0.5 * (lo + hi)
            try:
                window_end = _model_window_end(family, (lo, ref, hi))
            except (ValueError, ArithmeticError) as exc:
                self.errors[i] = exc
                continue
            self.index.append(i)
            self.lo.append(lo)
            self.hi.append(hi)
            self.length.append(max(x_max + 1, window_end))
            self.ref.append(ref)
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

        A row's masses are those of :func:`empirical_frequencies` of that
        row, bit for bit.
        """
        rows, n = samples.shape
        width = int(samples.max()) + 1
        flat = (samples + width * np.arange(rows)[:, None]).ravel()
        mass = np.bincount(flat, minlength=rows * width).reshape(rows, width) / n
        occupied = mass > 0
        cells = occupied.sum(axis=1)
        kept = np.arange(cells.max()) < cells[:, None]
        x_pos = np.zeros(kept.shape, dtype=np.intp)
        x_pos[kept] = occupied.nonzero()[1]
        logg = np.full(kept.shape, _PAD_LOGG)
        logg[kept] = np.log(mass[occupied])
        return cls(x_pos, logg, cells, family)

    @classmethod
    def from_densities(cls, densities, family: PoissonFamily, bracket=None):
        """The part of a list of data densities, each placed at its offset; a
        density below cell 0 or without positive mass keeps a ValueError.
        ``bracket`` replaces every row's bracket from its data."""
        errors, occupied = [], []
        for r_n in densities:
            nz = r_n.mass.nonzero()[0]
            bad = r_n.offset < 0 or not nz.size
            errors.append(ValueError(
                "a data density must lie on cells >= 0 and have positive mass"
            ) if bad else None)
            occupied.append(nz[:0] if bad else nz)
        cells = np.array([nz.size for nz in occupied], dtype=int)
        x_pos = np.zeros((len(densities), max(map(len, occupied), default=0)), dtype=np.intp)
        logg = np.full(x_pos.shape, _PAD_LOGG)
        for k, (r_n, nz) in enumerate(zip(densities, occupied)):
            x_pos[k, : nz.size] = r_n.offset + nz
            logg[k, : nz.size] = np.log(r_n.mass[nz])
        return cls(x_pos, logg, cells, family, errors, bracket)

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

    def data_factors(self, p: TiltParams):
        """Every kept row's theta-free factors of the data term at tilt p
        (see :func:`_objective`), kept for the last tilt asked, which the
        scan and then the fit windows read: at B != 0, B x and A log g +
        B log f_theta_r, (rows x cells) arrays; at B = 0, sum w x and sum w
        (log f_theta_r - log g) per row, each added one cell after another,
        so that padded cells (w = 0) leave a row's bits alone."""
        if self._factors[0] is not p:
            x, logf_ref = self.cell_terms
            if abs(p.exp_b) < EXPONENT_BOUNDARY:
                log_w = (1.0 + p.beta) * self.logg - self.log_sum_g(1.0 + p.beta)[:, None]
                terms = np.exp(log_w) * [x, logf_ref - self.logg]
                self._factors = p, np.cumsum(terms, axis=-1)[..., -1]
            else:
                self._factors = p, (p.exp_b * x, p.exp_a * self.logg + p.exp_b * logf_ref)
        return self._factors[1]

    def scan_objective(self, p: TiltParams) -> np.ndarray:
        """Each kept row's objective at tilt p at each theta of its grid, as
        a (rows x _N_SCAN) array, +inf at the points a certified scan skips.

        The model terms come from a process-wide memo, one lookup per row.
        The data term (:func:`_objective`) sums each point's products over
        the cells one after another (the cells on an outer axis, the points
        on the contiguous inner one): a row's padded cells add exact zeros
        at the end, so an evaluated value equals the row's
        :class:`_FitWindow` objective at that theta bit for bit, in any part.

        At B = 0, and in a part of fewer than ``_MIN_STACK`` rows (such as
        minimize_lsd's one-row part, where the extra passes cost more than
        they save), every point is evaluated.  Otherwise the scan is
        certified: it evaluates the coarse points ``_COARSE``, then, in one
        pass gathered over the rows, only the fine points where the grid's
        argmin can lie, so that the argmin (the first on ties) and the value
        there are the full grid's.  In r = log(theta / theta_r) the model
        term and the data term's log sum K(r) = log sum exp(c + B x r) are
        convex (log-sum-exps of terms linear in r), and:

        - at B > 0 the objective less its model term, -(1+beta)/(AB) K plus
          a constant, is concave, so its chord between two coarse points
          plus the model term bounds the objective from below between them;
          a fine point is kept where that bound is within the margin of the
          coarse best;
        - at B < 0 the objective is convex, so its argmin lies within one
          coarse interval of a coarse point within the margin of the coarse
          best; both intervals around each such point are kept.
        """
        one_beta = 1.0 + p.beta
        log_sg = self.log_sum_g(one_beta)
        model = np.array([
            _scan_model_terms(self.family, lo, hi, one_beta, length)
            for lo, hi, length in zip(self.lo, self.hi, self.length)
        ])
        factors = self.data_factors(p)
        columns = [f[..., None] for f in factors]  # rows x cells x 1
        if self.size < _MIN_STACK or abs(p.exp_b) < EXPONENT_BOUNDARY:
            return _objective(model, self.scan_terms, columns, log_sg[:, None], p)
        r = self.scan_terms
        coarse = _objective(model[:, _COARSE], r[:, _COARSE], columns, log_sg[:, None], p)
        # the objective's terms: log sum f^(1+beta) / A (model_term), the
        # data term and log sum g^(1+beta) / B (g_term); the margin scales
        # with their sizes
        model_term, g_term = model / p.exp_a, (log_sg / p.exp_b)[:, None]
        rest = coarse - model_term[:, _COARSE]
        size = np.abs(model_term).max(axis=1) + np.abs(rest - g_term).max(axis=1)
        limit = coarse.min(axis=1) + _SCAN_MARGIN * (1.0 + size + np.abs(g_term[:, 0]))
        if p.exp_b > 0:
            ends = r[:, _COARSE]
            share = (r - ends[:, _INTERVAL]) / (ends[:, _INTERVAL + 1] - ends[:, _INTERVAL])
            low = rest[:, _INTERVAL]
            kept = model_term + low + (rest[:, _INTERVAL + 1] - low) * share <= limit[:, None]
        else:
            near = coarse <= limit[:, None]
            kept = (near[:, :-1] | near[:, 1:])[:, _INTERVAL]
        values = np.full(model.shape, np.inf)
        values[:, _COARSE] = coarse
        rows, points = (kept & _FINE).nonzero()
        if len(rows) == 1:  # numpy sums a lone point's cells pairwise, as a contiguous axis
            rows, points = rows.repeat(2), points.repeat(2)
        # the kept points as the points of one row, each with its row's cells
        gathered = [f.T.take(rows, axis=1)[None] for f in factors]
        values[rows, points] = _objective(
            model[rows, points][None], r[rows, points][None], gathered, log_sg[rows][None], p
        )[0]
        return values

    def scan(self, p: TiltParams):
        """Each kept row's coarse scan at tilt p, as arrays over the rows:
        the grid's best point (the first on ties), the objective there, the
        scan cell (g_lo, g_hi) around it and the objective at the cell's
        ends (+inf where a certified scan skipped one)."""
        values = self.scan_objective(p)
        best = values.argmin(axis=1)
        rows = np.arange(len(best))[:, None]
        cell = _SCAN_CELL[best]
        (g_lo, theta, g_hi), (v_lo, value, v_hi) = self.grid[rows, cell].T, values[rows, cell].T
        return theta, value, g_lo, g_hi, v_lo, v_hi

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """Each kept row's coarse grid of its bracket (see :func:`_grids`)."""
        return _grids(np.array(self.lo), np.array(self.hi))

    @functools.cached_property
    def cell_terms(self):
        """Each kept row's occupied cells as floats and log f_theta_r there
        (rows x cells), at its reference theta_r (``ref``, its bracket's
        midpoint)."""
        x = self.x_pos.astype(float)
        return x, self.family._log_mass(np.array(self.ref)[:, None], x)

    @functools.cached_property
    def cell_columns(self) -> np.ndarray:
        """Each kept row's occupied cells' powers [1, x, x^2], rows x cells x 3."""
        return self.cell_terms[0][..., None] ** _POWERS

    @functools.cached_property
    def scan_terms(self) -> np.ndarray:
        """log(theta / theta_r) on each kept row's grid (checked once by the
        family), rows x _N_SCAN."""
        self.family._check(self.grid)
        return np.log(self.grid / np.array(self.ref)[:, None])


class _FitWindow:
    """The log-space objective and residual of a sample part's kept rows at
    one tilt, summed over one window [0, end): one row's at a float theta
    (:meth:`row`), or every row's at (rows, k) thetas (:meth:`stack`).

    Both read log f e^(theta - theta_r) = log f_theta_r + x log(theta /
    theta_r) on the window, and the part's data-term factors and log sum
    g^(1+beta) at the tilt; ``cells`` indexes the rows and cells of the
    part's arrays (a stack's with a middle axis for the thetas).  The
    objective is :func:`lsd`'s (:func:`_objective`): a row's equals its
    scan at a grid point bit for bit, and a stack sums each row's cells
    pairwise.  The residual is :func:`estimating_equation_residual`'s
    (E_e[x] - E_{f^(1+beta)}[x]) / theta, whose means take max-shifted exps
    of the objective's own terms: (1+beta) log f on the window, and the data
    term's (B x) log(theta / theta_r) + (A log g + B log f_theta_r) on the
    occupied cells (at B = 0, its factor sum w x is the data mean).  So it
    neither overflows nor changes when f is scaled.  A row's values in a
    stack differ from its own window's in the last bits, depending on the
    rows that share the stack.
    The independent oracles for this path are the closed forms :func:`lpd`,
    :func:`ldpd`, :func:`ld` and :func:`oracle_grid_minimize`.
    """

    def __init__(self, part: _SamplePart, p: TiltParams, cells, ref, end: int):
        self.family, self.p, self.ref = part.family, p, ref
        # the window from the log x! table, and log f_theta_r there
        self.x = _points(end)
        self.logf_ref = part.family._log_mass(ref, self.x)
        self.log_sg = part.log_sum_g(1.0 + p.beta)[cells[0]]
        self.factors = [f[cells[: f.ndim]] for f in part.data_factors(p)]
        # the powers [1, x, x^2] on the window and the occupied cells
        self.columns, self.cell_columns = self.x[:, None] ** _POWERS, part.cell_columns[cells]

    @classmethod
    def row(cls, part: _SamplePart, k: int, p: TiltParams):
        """Kept row k on its bracket window [0, ``part.length[k]``)."""
        return cls(part, p, (k, slice(part.cells[k])), part.ref[k], part.length[k])

    @classmethod
    def stack(cls, part: _SamplePart, p: TiltParams, top: float):
        """Every kept row on one window that holds the part's data and the
        support window of ``top`` (from the window memo), the highest theta
        a row evaluates; the occupied cells are padded as the part pads them
        (cell 0, log g = ``_PAD_LOGG``), which add exact zeros.  The exact
        support window grows with theta, but the computed one can be one
        cell shorter at a higher theta by rounding (see
        :func:`_model_window_end`), so a lower theta's computed window may
        end one cell past this one."""
        end = max(int(part.x_pos.max()) + 1, _model_window_end(part.family, (top,)))
        window = cls(part, p, (slice(None),), np.array(part.ref)[:, None, None], end)
        window.log_sg = window.log_sg[:, None]
        window.factors = [f[:, None] for f in window.factors]
        return window

    def _log_f(self, theta):
        """log(theta / theta_r) and log f e^(theta - theta_r) on the window,
        unchecked (a fit's thetas lie in its checked grid's cells)."""
        if isinstance(theta, np.ndarray):
            theta = theta[..., None]
        ratio = np.log(theta / self.ref)
        logf = self.x * ratio
        logf += self.logf_ref
        return ratio, logf

    def objective(self, theta):
        ratio, logf = self._log_f(theta)
        log_sf, factors, log_sg = _lse((1.0 + self.p.beta) * logf), self.factors, self.log_sg
        if isinstance(theta, np.ndarray):  # a stack's (rows, 1) thetas, as the scan's rows
            log_sf, ratio, log_sg = log_sf[:, 0], ratio[:, 0, 0], log_sg[:, 0]
            factors = [f[:, 0] for f in factors]
        return _objective(log_sf, ratio, factors, log_sg, self.p)

    def residual_slope(self, theta):
        """The residual R and its slope in theta from one pass: as
        d log f / d theta = x / theta - 1, the slope is
        (B Var_e[x] - (1+beta) Var_{f^(1+beta)}[x]) / theta^2 - R / theta
        (e does not move at B = 0)."""
        ratio, logf = self._log_f(theta)
        stack = isinstance(theta, np.ndarray)
        # log f less its largest value, a row's at the mode floor(theta)
        logf -= logf.max(axis=-1, keepdims=True) if stack else logf[int(theta)]
        one_beta = 1.0 + self.p.beta
        logf *= one_beta
        mean_f, var_f = _moments(np.exp(logf, out=logf), self.columns)
        if abs(self.p.exp_b) < EXPONENT_BOUNDARY:
            mean_e, var_e = self.factors[0], 0.0
        else:
            bx, c = self.factors
            log_e = bx * ratio
            log_e += c
            log_e -= log_e.max(axis=-1, keepdims=True)
            mean_e, var_e = _moments(np.exp(log_e, out=log_e), self.cell_columns)
        residual = (mean_e - mean_f) / theta
        slope = (self.p.exp_b * var_e - one_beta * var_f) / (theta * theta) - residual / theta
        return residual, slope

    def residual(self, theta):
        return self.residual_slope(theta)[0]


def _moments(w, columns):
    """The mean and variance of x under the weights w (last axis), from the
    weights' product with the powers [1, x, x^2]."""
    sums = w @ columns  # a row's as floats, which cost it less than numpy scalars
    s0, s1, s2 = sums.tolist() if sums.ndim == 1 else (sums[..., 0], sums[..., 1], sums[..., 2])
    mean = s1 / s0
    return mean, s2 / s0 - mean * mean


def _newton_start(best, value, g_lo, g_hi, v_lo, v_hi):
    """The vertex of the parabola through a scan's best points and their
    cell ends (:meth:`_SamplePart.scan`), or the best point where that is
    not finite (a skipped cell end, +inf, or a cell at a grid end)."""
    h_lo, h_hi, d_lo, d_hi = best - g_lo, g_hi - best, v_lo - value, v_hi - value
    vertex = best + 0.5 * (d_lo * h_hi * h_hi - d_hi * h_lo * h_lo) / (d_lo * h_hi + d_hi * h_lo)
    return np.where(np.isfinite(vertex), vertex, best)


# After a Newton step shorter than this times 1 + |theta|, the next pass closes.
_CLOSE_STEP = 3e-7


def _residual_root(res_fun, lo: float, start: float, hi: float):
    """:func:`_residual_roots` on one row, on floats and with its results
    bit for bit: (root, residual at root, bracket, steps), or None where
    the row has no root; ``res_fun`` takes and gives floats."""
    a, fa, lim_lo, b, fb, lim_hi = lo, math.inf, -math.inf, hi, -math.inf, math.inf
    t, scale, pair, iterations = start, abs(start), False, 0
    for _ in range(_MAX_ITERATIONS):
        tol = _RTOL * scale + _XTOL
        if not b - a >= tol:
            break
        half = 0.5 * tol
        t = min(max(t, a + half), b - half)
        for k, point in enumerate((t - 0.5 * half, t + 0.5 * half) if pair else (t,)):
            if k and not a < point < b:
                break
            x, (r, d) = point, map(float, res_fun(point))
            if r >= 0.0:
                a, fa, lim_lo = x, r, x
            if not r > 0.0:
                b, fb, lim_hi = x, r, x
        iterations, scale = iterations + 1, abs(x)
        step = r / d if d else r * math.copysign(math.inf, d)  # numpy's r / d
        newton = lim_lo <= x - step <= lim_hi
        pair = newton and abs(step) < _CLOSE_STEP + _CLOSE_STEP * scale
        t = x - step if newton else 0.5 * (a + b)
    if not (lim_lo > -math.inf and lim_hi < math.inf):
        v_lo, v_hi = float(res_fun(lo)[0]), float(res_fun(hi)[0])
        if not v_lo > 0.0 > v_hi:
            return None
        fa, fb = v_lo if lim_lo == -math.inf else fa, v_hi if lim_hi == math.inf else fb
    root, res = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    return root, res, (a, b), iterations


def _residual_roots(res_fun, lo, start, hi):
    """Roots of the stacked residual, each row's on its scan cell [lo, hi],
    by a safeguarded Newton method from ``start``; ``res_fun`` gives the
    residual and its slope at (rows, k) thetas, k = 1 or 2, as two arrays.

    A cell's ends count as positive (lo) and negative (hi) until evaluated;
    a point with residual >= 0 becomes the low end, one not > 0 the high
    end.  The next point is the Newton step from the last one where it
    stays inside the bracket or passes an end never evaluated (a slope not
    negative sends it out through the last point), else the midpoint, kept
    half the tolerance ``_RTOL`` |theta| + ``_XTOL`` inside the bracket.
    After a step shorter than ``_CLOSE_STEP`` (1 + |theta|), the pass
    evaluates the pair a quarter of the tolerance either side (the high
    point where the low one moved the low end), closing a bracket that
    straddles the root.  A row stops once its bracket is narrower than the
    tolerance or after ``_MAX_ITERATIONS`` steps; where a side was never
    evaluated, one pass at the cell ends gives it its value if the residual
    falls across the cell, else the row has no root.  Returns arrays (root,
    the end of smaller |residual|; residual there; bracket ends; steps;
    whether the row has a root).
    """
    a, b, t, scale = lo.copy(), hi.copy(), start, np.abs(start)
    fa, lim_lo, fb, lim_hi = (np.full(lo.shape, v) for v in (np.inf, -np.inf, -np.inf, np.inf))
    pair, active = np.zeros(lo.shape, dtype=bool), np.ones(lo.shape, dtype=bool)
    iterations = np.zeros(lo.shape, dtype=int)
    for _ in range(_MAX_ITERATIONS):
        tol = _RTOL * scale + _XTOL
        active &= b - a >= tol
        if not np.count_nonzero(active):
            break
        half = 0.5 * tol
        t = np.minimum(np.maximum(t, a + half), b - half)
        pair &= active
        q = 0.5 * half * pair  # 0 where a row does not close: it evaluates t twice
        points = np.stack([t - q, t + q], axis=-1) if np.count_nonzero(pair) else t[:, None]
        values, slopes = res_fun(points)
        x, r, d, kept = points[:, 0], values[:, 0], slopes[:, 0], active
        for k in range(points.shape[1]):
            if k:
                kept = active & (a < points[:, 1]) & (points[:, 1] < b)
                x, r, d = (
                    np.where(kept, v[:, 1], v0) for v, v0 in ((points, x), (values, r), (slopes, d))
                )
            low, high = kept & (r >= 0.0), kept > (r > 0.0)  # an exact zero moves both ends
            for end, f, lim, moved in ((a, fa, lim_lo, low), (b, fb, lim_hi, high)):
                np.copyto(end, x, where=moved)
                np.copyto(f, r, where=moved)
                np.copyto(lim, x, where=moved)
        iterations += active
        scale, step = np.abs(x), r / d
        n = x - step
        newton = (lim_lo <= n) & (n <= lim_hi)
        pair = newton & (np.abs(step) < _CLOSE_STEP + _CLOSE_STEP * scale)
        t = np.where(newton, n, 0.5 * (a + b))
    found = (lim_lo > -np.inf) & (lim_hi < np.inf)
    if not found.all():
        ends = res_fun(np.stack([lo, hi], axis=-1))[0]
        falls = ~found & (ends[:, 0] > 0.0) & (ends[:, 1] < 0.0)
        np.copyto(fa, ends[:, 0], where=falls & (lim_lo == -np.inf))
        np.copyto(fb, ends[:, 1], where=falls & (lim_hi == np.inf))
        found |= falls
    near = np.abs(fa) < np.abs(fb)
    return np.where(near, a, b), np.where(near, fa, fb), a, b, iterations, found


class _PartFits(NamedTuple):
    """A sample part's fits at one tilt as arrays over its rows: the fields
    of :class:`EstimatorResult` (``bracket`` rows x 2) and ``errors``, row
    i's error (an object of its own) or None.  A failed row holds NaN in the
    float columns, 0 iterations and converged False."""

    theta_hat: np.ndarray
    objective: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    bracket: np.ndarray
    errors: list


def _fit_part(part: _SamplePart, p: TiltParams) -> _PartFits:
    """The fits of a sample part's rows at tilt p, after one scan of them all.

    A row whose residual falls from positive to negative across its scan
    cell takes the root there, from the scan's parabola vertex.  In a part
    of ``_MIN_STACK`` rows or more, the roots and the final objectives run
    as array passes of :meth:`_FitWindow.stack` on one window of the
    highest cell top; a smaller part fits row by row on
    :meth:`_FitWindow.row`'s bracket window.  Any other row keeps the
    scan's best grid point, with the scan's value, the residual there, its
    scan cell as the bracket and 0 iterations: the residual is a negative
    multiple of the objective's slope, so across the cell of an interior
    best point it falls unless the objective is flat there or has two
    minima in the cell.  A fit has converged when its estimate is more than
    ``_TOL_THETA`` inside the search bracket, the residual is small and the
    objective is not below ``_MIN_OBJECTIVE``.  A root's bracket is not
    tested: the root solvers narrow it below ``_RTOL * |root| + _XTOL`` (or
    to a point on an exact zero) well within their step budget.  Overflow
    at extreme tilts ends as non-finite values, without numpy warnings.
    """
    errors, index = list(part.errors), part.index
    if p.exp_a <= EXPONENT_BOUNDARY:
        message = "estimation requires exponent A > 0 (empty cells make the divergence infinite)"
        errors, index = [DivergenceInfiniteError(message) for _ in errors], []
    # the kept rows' theta_hat, objective, residual and bracket ends
    table = np.empty((5, len(index)))
    iterations = np.zeros(len(index), dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if index:
            scan = part.scan(p)
            best, table[1], g_lo, g_hi = scan[:4]
            if part.size >= _MIN_STACK:
                stack = _FitWindow.stack(part, p, g_hi.max())
                start = _newton_start(*scan)
                *roots, found = _residual_roots(stack.residual_slope, g_lo, start, g_hi)
                res = roots[1] if found.all() else stack.residual(best[:, None])[:, 0]
                table[[0, 2, 3, 4]] = np.where(found, roots[:4], [best, res, g_lo, g_hi])
                iterations = np.where(found, roots[4], 0)
                table[1] = np.where(found, stack.objective(table[0][:, None]), table[1])
            else:
                for k in range(len(index)):
                    ctx = _FitWindow.row(part, k, p)
                    start = float(_newton_start(*(v[k] for v in scan)))  # on numpy scalars, cheaper
                    fit = _residual_root(ctx.residual_slope, float(g_lo[k]), start, float(g_hi[k]))
                    if fit is None:
                        table[:, k] = best[k], table[1, k], ctx.residual(best[k]), g_lo[k], g_hi[k]
                    else:
                        root, table[2, k], (table[3, k], table[4, k]), iterations[k] = fit
                        table[0, k], table[1, k] = root, ctx.objective(root)
    # on floats, which cost a one-row part less than four array passes
    ends = zip(table[0].tolist(), part.lo, part.hi)
    inside = np.array([min(t - lo, hi - t) > _TOL_THETA for t, lo, hi in ends], dtype=bool)
    if len(index) < part.size:  # a failed row: NaN, 0 iterations, not inside
        full = np.full((5, part.size), np.nan), np.zeros(part.size, int), np.zeros(part.size, bool)
        for whole, kept in zip(full, (table, iterations, inside)):
            whole[..., index] = kept
        table, iterations, inside = full
    theta_hat, objective, residual = table[:3]
    converged = inside & (np.abs(residual) <= _TOL_EE) & (objective >= _MIN_OBJECTIVE)
    return _PartFits(theta_hat, objective, residual, iterations, converged, table[3:].T, errors)


def minimize_lsd(r_n: DiscreteDensity, family: PoissonFamily, p: TiltParams) -> EstimatorResult:
    """Minimum-LSD estimate of the scalar model parameter from a density r_n.

    Raises:
        DivergenceInfiniteError: when the exponent A is <= 0 and the data
            density has empty cells inside the model window (the objective
            and estimating equation are not usable there).
    """
    (fit,) = minimize_lsd_many([r_n], family, p)
    if isinstance(fit, Exception):
        raise fit
    return fit


def minimize_lsd_many(densities, family: PoissonFamily, p: TiltParams) -> list:
    """Minimum-LSD estimates of several data densities at one tilt.

    Entry i is the :class:`EstimatorResult` that :func:`minimize_lsd` gives
    for ``densities[i]``, or the ValueError or ArithmeticError it raises
    (as an exception object of its own, leaving the other rows alone).

    The densities, each placed at its offset, become the rows of one
    sample part (see :class:`_SamplePart`) that :func:`_fit_part` fits.
    Fewer than four are fitted one by one as minimize_lsd fits them; the
    rows of more are solved in (rows x window) array passes, whose padded
    sums make a row's values depend in the last bits on the rows that share
    the call, and its estimate agree with minimize_lsd's within the root
    tolerance.
    """
    fits = _fit_part(_SamplePart.from_densities(densities, family), p)
    # the record's first five columns are EstimatorResult's first five fields
    rows = zip(*(column.tolist() for column in fits[:5]), map(tuple, fits.bracket.tolist()))
    return [EstimatorResult(*row) if e is None else e for e, row in zip(fits.errors, rows)]


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
