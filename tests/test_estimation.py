"""Minimum-divergence estimation: frequencies, optimizer, oracle, residual."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lsdiv import (
    Contamination,
    ContaminationScheme,
    DiscreteDensity,
    DivergenceInfiniteError,
    PoissonFamily,
    TiltParams,
    contaminated_sample,
    density_vector,
    derive_exponents,
    empirical_frequencies,
    estimating_equation_residual,
    lsd,
    minimize_lsd,
    minimize_lsd_many,
    oracle_grid_minimize,
)
from lsdiv.divergence import _lse
from lsdiv.families import moments_c_d
from lsdiv.estimation import (
    _COARSE,
    _MAX_ITERATIONS,
    _MIN_STACK,
    _N_SCAN,
    _RTOL,
    _SCAN_MARGIN,
    _TOL_THETA,
    _XTOL,
    _FitWindow,
    _SamplePart,
    _fit_part,
    _grids,
    _model_window_end,
    _newton_start,
    _residual_root,
    _residual_roots,
    _scan_model_terms,
)
from lsdiv.simulate import (
    ESTIMATION_BETA_GRID,
    GAMMA_GRID,
    _ChunkStreams,
    _chunk_part,
    _draw_chunk,
    replication_rng,
)

from helpers import (
    converged_oracle,
    full_scan_oracle,
    golden_section_oracle,
    in_order,
    residual_oracle,
    scan_oracle,
    search_bracket,
)


def refined_grid_argmin(r_n, family, p, lo, hi):
    """Two-stage dense-grid oracle reaching pitch 1e-4."""
    coarse = oracle_grid_minimize(r_n, family, p, lo, hi, 1e-2)
    return oracle_grid_minimize(
        r_n, family, p, max(lo, coarse - 2e-2), min(hi, coarse + 2e-2), 1e-4
    )


class TestEmpiricalFrequencies:
    def test_small_example(self):
        d = empirical_frequencies(np.array([2, 2, 3]))
        np.testing.assert_allclose(d.mass, [0.0, 0.0, 2.0 / 3.0, 1.0 / 3.0])
        assert d.offset == 0

    def test_single_zero(self):
        d = empirical_frequencies(np.array([0]))
        np.testing.assert_allclose(d.mass, [1.0])

    def test_exact_normalization(self):
        rng = np.random.default_rng(1)
        sample = rng.poisson(4.0, 50)
        assert empirical_frequencies(sample).total == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            empirical_frequencies(np.array([], dtype=int))
        with pytest.raises(ValueError):
            empirical_frequencies(np.array([1, -2]))
        with pytest.raises(ValueError):
            empirical_frequencies(np.array([1.5, 2.0]))

    def test_rejects_a_string_sample(self):
        # the dtype is checked before any comparison: sample < 0 on strings
        # raised numpy's UFuncTypeError, a TypeError
        with pytest.raises(ValueError, match="must be integers, got dtype <U1"):
            empirical_frequencies(np.array(["1", "2"]))

    def test_rejects_a_2d_sample(self):
        # bincount raised "object too deep for desired array"
        with pytest.raises(ValueError, match=r"must be a non-empty 1-d array, got shape \(2, 2\)"):
            empirical_frequencies(np.array([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("entry", [100_000, 2**40])
    def test_rejects_entries_past_the_longest_window(self, entry):
        # 2**40 used to ask bincount for 8 TiB and raise MemoryError
        with pytest.raises(ValueError, match="longest support window"):
            empirical_frequencies(np.array([3, entry]))
        assert empirical_frequencies(np.array([3, 99_999])).mass.size == 100_000

    def test_largest_int64_entry_rejected(self):
        # bincount's length overflows at 2**63 - 1 and it writes past its
        # buffer, which aborts the interpreter: run the call in a child
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import numpy as np\n"
            "from lsdiv import empirical_frequencies\n"
            "try:\n"
            "    empirical_frequencies(np.array([3, 2**63 - 1]))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert "longest support window" in done.stdout


class TestMinimizeLsd:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
    def test_population_case_recovers_theta(self, family, beta, gamma):
        r_n = density_vector(family, 4.0, 1e-12)
        result = minimize_lsd(r_n, family, TiltParams(beta, gamma))
        assert result.theta_hat == pytest.approx(4.0, abs=1e-6)
        assert result.converged

    def test_fisher_consistency_full_grid(self, family):
        r_n = density_vector(family, 4.0, 1e-12)
        for gamma in GAMMA_GRID:
            for beta in ESTIMATION_BETA_GRID:
                if derive_exponents(beta, gamma)[0] <= 1e-8:
                    continue
                result = minimize_lsd(r_n, family, TiltParams(beta, gamma))
                assert result.theta_hat == pytest.approx(4.0, abs=1e-6), (beta, gamma)

    def test_mle_equals_sample_mean(self, family):
        rng = np.random.default_rng(5)
        p = TiltParams(0.0, 0.0)
        for _ in range(20):
            sample = rng.poisson(rng.uniform(1.0, 8.0), 40)
            if sample.max() == 0:
                continue
            result = minimize_lsd(empirical_frequencies(sample), family, p)
            assert result.theta_hat == pytest.approx(sample.mean(), abs=1e-6)

    def test_nonpositive_exp_a_rejected(self, family):
        r_n = empirical_frequencies(np.array([1, 2, 3]))
        with pytest.raises(DivergenceInfiniteError):
            minimize_lsd(r_n, family, TiltParams(0.0, -1.0))  # exp_a = 0

    def test_converged_result_invariants(self, family):
        rng = np.random.default_rng(9)
        sample = rng.poisson(4.0, 60)
        result = minimize_lsd(empirical_frequencies(sample), family, TiltParams(0.3, 0.5))
        assert result.converged
        assert abs(result.residual) <= 1e-6
        lo, hi = result.bracket
        r_n = empirical_frequencies(sample)
        p = TiltParams(0.3, 0.5)

        def objective(t):
            fm = density_vector(family, t, 1e-12)
            return lsd(r_n, fm, p)

        assert result.objective <= objective(lo) + 1e-12
        assert result.objective <= objective(hi) + 1e-12

    # Inputs where the residual, taken as sum f^(1+beta) sum e (E_e[u] -
    # E_{f^(1+beta)}[u]), overflowed to NaN (gamma 1e4 and 1e5), read 1.2e11
    # and -8.2e234 at the root (gamma 100 and 1e3) or -569 ([22]), or
    # crossed 1e-6 between the two ends of a 5e-13 root bracket ([37, 37, 0])
    @pytest.mark.parametrize(
        "sample,beta,gamma",
        [*(([1, 2, 3, 3, 4], 0.0, g) for g in (100.0, 1e3, 1e4, 1e5)),
         ([22], 20.0, -3.0), ([37, 37, 0], 0.2, 2.0)],
    )
    def test_scale_free_residual_converges(self, family, sample, beta, gamma):
        r_n, p = empirical_frequencies(np.array(sample)), TiltParams(beta, gamma)
        with np.errstate(over="raise", invalid="raise"):
            fit = minimize_lsd(r_n, family, p)
            stacked = minimize_lsd_many([r_n] * 5, family, p)
        assert np.isfinite([fit.theta_hat, fit.objective, fit.residual]).all()
        assert fit.converged and abs(fit.residual) <= 1e-12
        assert abs(fit.residual - residual_oracle(fit.theta_hat, r_n, p)) <= 1e-12
        for row in stacked:
            assert row.converged and abs(row.theta_hat - fit.theta_hat) <= 1e-8

    def test_result_fields_are_python_scalars(self, family):
        sample = np.random.default_rng(9).poisson(4.0, 60)
        result = minimize_lsd(empirical_frequencies(sample), family, TiltParams(0.3, 0.5))
        assert type(result.theta_hat) is float
        assert type(result.objective) is float
        assert type(result.residual) is float


# B > 0, B < 0, and B = 0 at beta = 0 and at beta > 0
SCAN_TILTS = [(0.2, -0.5), (0.2, 1.0), (0.0, 0.0), (0.5, 1.0)]


def assert_scan_of(values, full):
    """A row's scan ``values`` against its objective at every grid point:
    the same bits wherever the scan evaluated (it reads +inf where it
    skipped) and the same best point, the first on ties."""
    evaluated = np.isfinite(values)
    np.testing.assert_array_equal(values[evaluated], full[evaluated])
    assert values.argmin() == full.argmin()


class TestBatchedScan:
    """The coarse scan evaluates a whole part's grids in array passes,
    adding each row's cells one after another: every value it evaluates
    must equal the in-order oracle and the row's one-theta objective bit for
    bit, whatever part holds the row, and its best point must be theirs.  A
    part of ``_MIN_STACK`` rows or more skips, at B != 0, the points that
    cannot hold the argmin (see :class:`TestCertifiedScan`); a smaller part
    evaluates every point."""

    @pytest.mark.parametrize(
        "theta,n,n_contam",
        # the estimation table's, a wide window, a mean of about 138, and one of
        # about 600, whose bracket top near 680 nears the largest window the
        # fit accepts: there x log theta reaches about 4 400 and log x! 3 750,
        # so a data term factored on them rather than on log f at the row's
        # reference would cancel most
        [(4.0, 50, 5), (100.0, 200, 0), (138.0, 200, 0), (600.0, 200, 0)],
    )
    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.0, 0.0), (0.0, 0.5), (0.2, 1.0), (0.5, 0.0), (0.2, -0.5), (1.0, 0.0)],
    )
    def test_grid_pass_matches_pointwise(self, family, theta, n, n_contam, beta, gamma):
        # memoised model terms plus data terms on the occupied cells only,
        # with the memo cold and again warm
        rng = np.random.default_rng(17)
        sample = rng.poisson(theta, n)
        sample[:n_contam] = 12
        r_n = empirical_frequencies(sample)
        lo, hi = search_bracket(r_n)
        part = _SamplePart.from_densities([r_n], family)
        p = TiltParams(beta, gamma)
        _scan_model_terms.cache_clear()
        for _ in ("cold", "warm"):
            values = part.scan_objective(p)
            grid = part.grid[0]
            np.testing.assert_array_equal(grid, np.linspace(lo, hi, _N_SCAN))
            assert values.shape == (1, _N_SCAN)
            ctx = _FitWindow.row(part, 0, p)
            pointwise = np.array([ctx.objective(t) for t in grid])
            np.testing.assert_allclose(values[0], pointwise, rtol=1e-14, atol=0.0)
            assert values[0].argmin() == pointwise.argmin()
        assert _scan_model_terms.cache_info().hits == 1

    # at (0.5, 1000), B = -499.5, e^y overflows and phi is a log-sum-exp
    @pytest.mark.parametrize("beta,gamma", [*SCAN_TILTS, (0.5, 1000.0)])
    def test_scan_equals_in_order_oracle(self, family, beta, gamma):
        # the first rows of an estimation-table chunk (about 15 cells) and
        # of a wide one (about 47), each padded to its chunk's widest row
        p = TiltParams(beta, gamma)
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            values = part.scan_objective(p)
            assert np.isfinite(values).all() == (abs(p.exp_b) < np.finfo(float).tiny)
            for k in range(8):
                assert_scan_of(values[k], scan_oracle(part, k, p))

    @pytest.mark.parametrize("beta,gamma", SCAN_TILTS)
    def test_scan_is_the_row_objective(self, family, beta, gamma):
        # the scan and a row's one-theta objective share their model and
        # data terms and the order of their sums: they agree bit for bit,
        # at every point of the row's own one-row part
        p = TiltParams(beta, gamma)
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            values = part.scan_objective(p)
            for k in range(0, len(samples), 9):
                full = full_scan_oracle(part, k, p)
                assert_scan_of(values[k], full)
                one = _SamplePart.from_samples(samples[k : k + 1], family)
                np.testing.assert_array_equal(one.scan_objective(p)[0], full)

    @pytest.mark.parametrize("beta,gamma", SCAN_TILTS)
    def test_row_scan_same_in_any_part(self, family, beta, gamma):
        # each row alone, in a 32-row chunk of either table, and in a part
        # of both shapes and single-cell rows
        p = TiltParams(beta, gamma)
        contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        wide = Contamination(0.1, 130.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        table_chunk, wide_chunk = (
            np.array([contaminated_sample(n, theta, c, replication_rng(3, rep)) for rep in range(32)])
            for n, theta, c in ((50, 4.0, contam), (200, 100.0, wide))
        )
        mixed = [*table_chunk[:10], *wide_chunk[:10], *map(np.array, ([0] * 50, [3], [7] * 20))]
        parts = [
            (_SamplePart.from_samples(table_chunk, family), table_chunk),
            (_SamplePart.from_samples(wide_chunk, family), wide_chunk),
            (_SamplePart.from_densities([empirical_frequencies(s) for s in mixed], family), mixed),
        ]
        assert sorted(parts[2][0].cells)[:3] == [1, 1, 1]
        for part, samples in parts:
            values = part.scan_objective(p)
            for k, sample in enumerate(samples):
                one = _SamplePart.from_densities([empirical_frequencies(sample)], family)
                assert_scan_of(values[k], one.scan_objective(p)[0])


class TestObjectiveIsTheDivergence:
    """The fit's objective is one formula at every tilt, centred on the
    data's weights: a row's value at theta is :func:`lsd` of its data and
    the model on the row's window, also where phi / B is dropped (B = 0),
    where B = -1.1e-16 and 5e-9 (dropping phi / B there would err by about
    B Var_w / 2) and where phi / B is a millionth of phi (B = 8e-7)."""

    @pytest.mark.parametrize(
        "beta,gamma", [*SCAN_TILTS, (0.6, 1.5), (0.2, 0.249999), (0.2, 0.24999999375)]
    )
    def test_row_objective_is_lsd(self, family, beta, gamma):
        p = TiltParams(beta, gamma)
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            for k in range(0, len(samples), 3):
                row = _FitWindow.row(part, k, p)
                g, x = empirical_frequencies(samples[k]), np.arange(part.length[k])
                for theta in np.linspace(part.lo[k], part.hi[k], 7)[1:-1]:
                    want = lsd(g, DiscreteDensity(offset=0, mass=family.density(theta, x)), p)
                    assert abs(row.objective(theta) - want) <= 1e-12 * (1.0 + abs(want))


class TestCertifiedScan:
    """A part of ``_MIN_STACK`` rows or more evaluates, where the objective
    keeps phi / B, its coarse points and then only the fine points where a
    bound shows the grid's argmin can lie: the chord bound at B > 0, the
    convex bracket at B < 0.  On rows built to stress both, the scan must
    keep the full grid's argmin (the first on ties), the value there and
    the scan cell, and every value it evaluates must equal the row's
    objective bit for bit.  At B >= 0 the chord bound itself must hold at
    every grid point within the margin (at B = 0 the objective less its
    model term is linear)."""

    BRACKET = (1.0, 52.0)  # a grid step of 0.2
    # B > 0 and B < 0, each up to beta = 20, B = 8e-7, where phi / B is a
    # millionth of phi, B = 0, where the objective drops phi / B and the
    # scan keeps the whole grid, and B = -1.1e-16, which a convex bracket
    # certifies
    TILTS = [
        (1.0, 0.0), (0.5, 0.0), (0.2, -0.5), (20.0, 0.0),
        (0.0, 0.5), (0.4, 2.0), (5.0, -3.0), (20.0, -3.0), (0.2, 0.249999),
        (0.0, 0.0), (0.5, 1.0), (0.6, 1.5),
    ]

    @staticmethod
    def two_minima(family, p, bracket):
        """Masses at 2 and 30 whose weight makes the objective's best
        points below and above theta = 10 as equal as bisection gets them
        (at B > 0; elsewhere the objective has one minimum)."""
        split = np.searchsorted(np.linspace(*bracket, _N_SCAN), 10.0)

        def density(w):
            return DiscreteDensity(offset=0, mass=np.eye(31)[2] * w + np.eye(31)[30] * (1.0 - w))

        def gap(w):
            one = _SamplePart.from_densities([density(w)], family, bracket=bracket)
            values = one.scan_objective(p)[0]
            return values[:split].min() - values[split:].min()

        lo, hi = 0.01, 0.99
        if gap(lo) < 0 < gap(hi) or gap(lo) > 0 > gap(hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (gap(mid) > 0) == (gap(lo) > 0) else (lo, mid)
        return density(lo)

    def stress_parts(self, family, p):
        """Parts of the stress rows, each of at least ``_MIN_STACK`` rows,
        and the grid index each row's argmin must have (None: any)."""
        grid = np.linspace(*self.BRACKET, _N_SCAN)
        # Poisson populations whose minimum lies at a coarse point (48), next
        # to one (49, 63), mid-interval (56), at the last point and beyond
        # either end of the search bracket
        thetas = [(grid[j], j) for j in (48, 49, 56, 63, 255)] + [(0.5, 0), (60.0, 255)]
        populations = [density_vector(family, t) for t, _ in thetas]
        one_cell = [[3], [0] * 50, [7] * 20, [0] * 45 + [1] * 5, [0] * 49 + [30]]
        return [
            (
                _SamplePart.from_densities(
                    [*populations, self.two_minima(family, p, self.BRACKET)], family,
                    bracket=self.BRACKET,
                ),
                [j for _, j in thetas] + [None],
            ),
            (
                _SamplePart.from_densities(
                    [empirical_frequencies(np.array(s)) for s in one_cell], family
                ),
                [None] * len(one_cell),
            ),
            # all-zero and near-zero samples on a bracket where the objective
            # is flat to 1e-9 (at beta = 5) or to rounding (at beta = 20)
            (
                _SamplePart.from_densities(
                    [empirical_frequencies(np.array(s)) for s in one_cell[1:]], family,
                    bracket=(1e-3, 0.05),
                ),
                [None] * 4,
            ),
        ]

    @pytest.mark.parametrize("beta,gamma", TILTS)
    def test_stress_rows_keep_the_full_argmin(self, family, beta, gamma):
        p = TiltParams(beta, gamma)
        for part, argmins in self.stress_parts(family, p):
            assert part.size >= _MIN_STACK
            values = part.scan_objective(p)
            best, value, g_lo, g_hi, *_ = part.scan(p)
            for k, argmin in enumerate(argmins):
                full = full_scan_oracle(part, k, p)
                j = full.argmin()
                assert argmin is None or j == argmin
                assert_scan_of(values[k], full)
                grid = part.grid[k]
                assert (best[k], value[k]) == (grid[j], full[j])
                assert (g_lo[k], g_hi[k]) == (grid[max(j - 1, 0)], grid[min(j + 1, _N_SCAN - 1)])
                if p.exp_b >= 0:
                    assert chord_bound(part, k, p, full).max() <= _SCAN_MARGIN * (1.0 + abs(full[j]))

    def test_the_stress_rows_stress_the_scan(self, family):
        # the tuned row's two best points are equal or a few ulps apart,
        # and the flat bracket keeps more than one coarse interval pair
        p = TiltParams(1.0, 0.0)
        part, _ = self.stress_parts(family, p)[0]
        full = full_scan_oracle(part, part.size - 1, p)
        split = np.searchsorted(part.grid[-1], 10.0)
        assert abs(full[:split].min() - full[split:].min()) <= 1e-14 * full.min()
        p = TiltParams(5.0, -3.0)
        part = self.stress_parts(family, p)[2][0]
        full = full_scan_oracle(part, 0, p)
        coarse = full[_COARSE]
        assert (coarse <= coarse.min() + _SCAN_MARGIN).sum() >= 3
        # more than the coarse points and the two intervals around one of them
        assert np.isfinite(part.scan_objective(p)[0]).sum() > len(_COARSE) + 2 * 16

    def test_a_lone_kept_point_sums_its_cells_in_order(self, family):
        # a bimodal row of 18 cells that keeps one fine point at B = 0.0025,
        # and three all-zero rows, whose data term is linear in log theta, so
        # that their chord bounds are their objectives and keep no fine
        # point: numpy would add the lone point's cells pairwise, as over a
        # contiguous axis, unlike the full grid
        contam = Contamination(0.3, 40.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        row = _draw_chunk(50, 2.0, contam, _ChunkStreams(1, range(4, 5)))
        samples = np.concatenate([row, np.zeros((3, 50), dtype=row.dtype)])
        part = _SamplePart.from_samples(samples, family)
        p = TiltParams(0.05, 0.05)
        values = part.scan_objective(p)
        assert part.cells[0] == 18
        assert np.isfinite(values).sum() == len(samples) * len(_COARSE) + 1
        for k in range(len(samples)):
            one = _SamplePart.from_samples(samples[k : k + 1], family)
            assert_scan_of(values[k], one.scan_objective(p)[0])

    @pytest.mark.parametrize("reps", [range(0, 32), range(32, 64)])
    def test_bimodal_table_chunks(self, family, reps):
        # every chunk and cell of the CI bimodal table (n = 50, theta = 2, 30%
        # of each sample from Poisson(40), seed 7), against each row alone,
        # whose one-row part evaluates every grid point
        contam = Contamination(0.3, 40.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        samples = _draw_chunk(50, 2.0, contam, _ChunkStreams(7, reps))
        part = _SamplePart.from_samples(samples, family)
        ones = [_SamplePart.from_samples(samples[k : k + 1], family) for k in range(len(samples))]
        for beta, gamma in itertools.product([0.0, 0.5, 1.0], [0.0, 1.0, 3.0, 10.0]):
            p = TiltParams(beta, gamma)
            values = part.scan_objective(p)
            scan = np.array(part.scan(p))
            for k, one in enumerate(ones):
                assert_scan_of(values[k], one.scan_objective(p)[0])
                got, want = scan[:, k], np.array(one.scan(p))[:, 0]
                np.testing.assert_array_equal(got[:4], want[:4])
                # the objective at the cell ends, where the certified scan evaluated them
                assert ((got[4:] == want[4:]) | (got[4:] == np.inf)).all()


def chord_bound(part, k, p, full):
    """LB_j - value_j at every grid point of kept row k at tilt p (B >= 0),
    from its objective ``full`` there: LB is the model term log sum
    f^(1+beta) / A plus the chord, in r = log(theta / theta_r), of the rest
    of the objective between the coarse points around the point."""
    row = _FitWindow.row(part, k, p)
    model = np.array([_lse((1.0 + p.beta) * row._log_f(t)[1]) for t in part.grid[k]]) / p.exp_a
    r = np.log(part.grid[k] / part.ref[k])
    rest = full - model
    lb = model + np.interp(r, r[_COARSE], rest[_COARSE])
    return lb - full


class TestScanMemo:
    """The scan's model terms and the fit's window end are memoised per
    process; an entry may be shared only by fits whose values it equals."""

    @staticmethod
    def fit(sample, beta=0.5, gamma=0.0):
        return minimize_lsd(
            empirical_frequencies(np.array(sample)), PoissonFamily(), TiltParams(beta, gamma)
        )

    def test_same_mean_other_data_end_gets_own_entry(self, family):
        # the key holds the data range: the first two means are 4, but their
        # brackets are (3, 5) and (1, 103), so each gets its own entry; the
        # third sample, of mean 52, has the second's range and shares its entry
        p = TiltParams(0.5, 0.0)
        _scan_model_terms.cache_clear()
        for sample, bracket, length in (
            ([4] * 50, (3.0, 5.0), 28),
            ([2] * 49 + [102], (1.0, 103.0), 183),
            ([2] * 25 + [102] * 25, (1.0, 103.0), 183),
        ):
            r_n = empirical_frequencies(np.array(sample))
            part = _SamplePart.from_densities([r_n], family)
            assert search_bracket(r_n) == bracket
            assert (part.lo[0], part.hi[0], part.length) == (*bracket, [length])
            values = part.scan_objective(p)
            ctx = _FitWindow.row(part, 0, p)
            np.testing.assert_array_equal(values[0], [ctx.objective(t) for t in part.grid[0]])
        assert _scan_model_terms.cache_info().currsize == 2

    def test_inputs_of_the_key_get_own_entries(self):
        sample = [3, 4, 5, 4, 4, 6, 2, 4]
        _scan_model_terms.cache_clear()
        _model_window_end.cache_clear()
        self.fit(sample)
        self.fit(sample, gamma=0.5)  # same beta: shares the entry
        assert _scan_model_terms.cache_info().currsize == 1
        self.fit(sample, beta=0.2)
        assert _scan_model_terms.cache_info().currsize == 2
        # the window end depends on the bracket only
        assert _model_window_end.cache_info().currsize == 1

    def test_cached_arrays_reject_writes(self, family):
        log_sf = _scan_model_terms(family, 0.8, 25.0, 1.5, 69)
        with pytest.raises(ValueError):
            log_sf[0] = 0.0



def table_shaped_samples():
    """Seeded samples shaped like the estimation table's (n=50, theta=4, 10%
    replaced by Poisson(12) draws) and the wide table's (n=200, theta=100)."""
    contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    for rep in range(3):
        yield contaminated_sample(50, 4.0, contam, replication_rng(5, rep))
        yield contaminated_sample(200, 100.0, None, replication_rng(5, rep))


# B = 0, B < 0 (twice, up to gamma = 2), B > 0 (three times)
SOLVER_TILTS = [(0.0, 0.0), (0.0, 0.5), (0.4, 2.0), (0.5, 0.0), (0.2, -0.5), (1.0, 1.0)]


def scan_cell(r_n, p):
    """The fit's row window and the scan cell [g_lo, g_hi] around its best grid point."""
    part = _SamplePart.from_densities([r_n], PoissonFamily())
    _, _, g_lo, g_hi, *_ = part.scan(p)
    return _FitWindow.row(part, 0, p), g_lo[0], g_hi[0]


class TestResidualRoot:
    """The fit solves the residual's root on the scan cell; a cell without a
    sign change keeps the scan's best grid point."""

    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_matches_golden_section_then_refinement(self, family, beta, gamma):
        # Golden section on the objective alone resolves theta only to
        # ~1e-8 * theta (the objective is flat to double precision there),
        # so it is refined on the residual within +-1e-5.
        p = TiltParams(beta, gamma)
        for sample in table_shaped_samples():
            r_n = empirical_frequencies(sample)
            fit = minimize_lsd(r_n, family, p)
            ctx, g_lo, g_hi = scan_cell(r_n, p)
            theta = golden_section_oracle(ctx.objective, g_lo, g_hi)
            ref = brentq(ctx.residual, theta - 1e-5, theta + 1e-5, xtol=1e-12)
            assert fit.converged
            assert abs(fit.theta_hat - ref) <= 1e-10

    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_bracket_holds_a_sign_change(self, family, beta, gamma):
        p = TiltParams(beta, gamma)
        for sample in table_shaped_samples():
            r_n = empirical_frequencies(sample)
            fit = minimize_lsd(r_n, family, p)
            ctx = scan_cell(r_n, p)[0]
            lo, hi = fit.bracket
            assert fit.converged
            assert lo <= fit.theta_hat <= hi
            assert ctx.residual(lo) >= 0.0 >= ctx.residual(hi)

    def test_evaluation_budget(self, family, monkeypatch):
        calls = {"scan": 0, "objective": 0, "residual": 0}
        scan, objective = _SamplePart.scan, _FitWindow.objective
        residual = _FitWindow.residual_slope

        def counted_scan(self, p):
            calls["scan"] += 1
            return scan(self, p)

        def counted_objective(self, theta):
            calls["objective"] += 1
            return objective(self, theta)

        def counted_residual(self, theta):
            calls["residual"] += 1
            return residual(self, theta)

        monkeypatch.setattr(_SamplePart, "scan", counted_scan)
        monkeypatch.setattr(_FitWindow, "objective", counted_objective)
        monkeypatch.setattr(_FitWindow, "residual_slope", counted_residual)
        contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        for rep in range(5):
            r_n = empirical_frequencies(
                contaminated_sample(50, 4.0, contam, replication_rng(11, rep))
            )
            for beta, gamma in SOLVER_TILTS:
                calls.update(scan=0, objective=0, residual=0)
                fit = minimize_lsd(r_n, family, TiltParams(beta, gamma))
                assert fit.converged
                assert calls["scan"] == 1
                assert calls["objective"] <= 2
                assert calls["residual"] <= 6
                assert fit.iterations <= calls["residual"]

    # The fits of samples whose scan cell has no sign change: each keeps the
    # scan's best grid point, the bracket floor 1e-3, toward which the
    # objective falls (both samples hold a 0, so the floor is not certified).
    FALLBACK = {
        ("zeros", 0.0, -0.5): (0.001, False),
        ("zeros", 0.0, 0.0): (0.001, False),
        ("zeros", 0.0, 1.0): (0.001, False),
        ("zeros", 0.5, -0.5): (0.001, False),
        ("zeros", 0.5, 0.0): (0.001, False),
        ("zeros", 0.5, 1.0): (0.001, False),
        ("zeros", 1.0, -0.5): (0.001, False),
        ("zeros", 1.0, 0.0): (0.001, False),
        ("zeros", 1.0, 1.0): (0.001, False),
        ("outlier", 0.0, -0.5): (0.001, False),
        ("outlier", 0.5, -0.5): (0.001, False),
        ("outlier", 0.5, 0.0): (0.001, False),
        ("outlier", 1.0, -0.5): (0.001, False),
        ("outlier", 1.0, 0.0): (0.001, False),
        ("outlier", 1.0, 1.0): (0.001, False),
        ("outlier", 1.0, 2.0): (0.001, False),
    }

    @pytest.mark.parametrize("key", sorted(FALLBACK))
    def test_edge_cells_fall_back_unchanged(self, family, key):
        name, beta, gamma = key
        sample = [0] * 50 if name == "zeros" else [0] * 49 + [30]
        r_n, p = empirical_frequencies(np.array(sample)), TiltParams(beta, gamma)
        fit = minimize_lsd(r_n, family, p)
        assert (fit.theta_hat, fit.converged) == self.FALLBACK[key]
        part = _SamplePart.from_densities([r_n], family)
        best, value, g_lo, g_hi, *_ = part.scan(p)
        assert (fit.theta_hat, fit.objective, fit.bracket, fit.iterations) == (
            best[0], value[0], (g_lo[0], g_hi[0]), 0
        )
        assert fit.residual == _FitWindow.row(part, 0, p).residual(best[0])


def row_root(res_fun, lo, start, hi):
    """_residual_roots on one row of a float residual and slope, shaped as
    _residual_root's result (None where the row has no root)."""
    def passes(theta):  # (1, k) thetas -> (1, k) residuals and (1, k) slopes
        return np.moveaxis(np.array([[res_fun(float(t)) for t in row] for row in theta]), -1, 0)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as _fit_part runs it
        root, res, b_lo, b_hi, iterations, found = _residual_roots(
            passes, np.array([lo]), np.array([start]), np.array([hi])
        )
    return (root[0], res[0], (b_lo[0], b_hi[0]), iterations[0]) if found[0] else None


def bits(fit):
    """A root solver's result with every float as its exact bits (NaN equal
    to NaN, -0.0 apart from 0.0); None where the row has no root."""
    if fit is None:
        return None
    root, res, (lo, hi), iterations = fit
    return tuple(float(v).hex() for v in (root, res, lo, hi)) + (int(iterations),)


def table_cell_residual(seed, rep, tilt):
    """The residual and slope of an est_table-shaped sample's fit at a tilt,
    its scan cell ends and the fit's Newton start."""
    contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    r_n = empirical_frequencies(contaminated_sample(50, 4.0, contam, replication_rng(seed, rep)))
    part = _SamplePart.from_densities([r_n], PoissonFamily())
    scan = part.scan(TiltParams(*tilt))
    with np.errstate(divide="ignore", invalid="ignore"):
        start = _newton_start(*scan)
    window = _FitWindow.row(part, 0, TiltParams(*tilt))
    return window.residual_slope, scan[2][0], start[0], scan[3][0]


def quadratic(c, sign):
    """sign * (c - theta^2), whose root is sqrt(c), and its slope."""
    return lambda theta: (sign * (c - theta * theta), -2.0 * sign * theta)


class TestScalarRootSolver:
    """_residual_root is _residual_roots' safeguarded Newton method on one
    row, taken on floats: the same steps and the same bits, brentq's root
    within the tolerance, and no float exception where numpy's inf or NaN
    would send the array driver to bisection."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 2**20),
           tilt=st.sampled_from(SOLVER_TILTS))
    def test_table_roots_equal_the_array_row_bit_for_bit(self, seed, rep, tilt):
        fun, lo, start, hi = table_cell_residual(seed, rep, tilt)
        fit = _residual_root(fun, lo, start, hi)
        assert bits(fit) == bits(row_root(fun, lo, start, hi))
        assert fit is None or 1 <= fit[3] <= 6

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(1e-6, 1e6), a=st.floats(0.0, 0.999), b=st.floats(1.001, 20.0),
           u=st.floats(0.0, 1.0), sign=st.sampled_from([1.0, -1.0]))
    def test_quadratic_roots_equal_the_array_row_bit_for_bit(self, c, a, b, u, sign):
        # a rising residual (sign -1) has no root: both paths give None
        fun, lo, hi = quadratic(c, sign), a * c**0.5, b * c**0.5
        start = lo + u * (hi - lo)
        fit = _residual_root(fun, lo, start, hi)
        assert bits(fit) == bits(row_root(fun, lo, start, hi))
        assert (fit is None) == (sign < 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 2**20),
           tilt=st.sampled_from(SOLVER_TILTS))
    def test_roots_agree_with_brentq(self, seed, rep, tilt):
        fun, lo, start, hi = table_cell_residual(seed, rep, tilt)
        residual = lambda theta: float(fun(theta)[0])  # noqa: E731
        if residual(lo) > 0 > residual(hi):
            root = _residual_root(fun, lo, start, hi)[0]
            assert abs(root - brentq(residual, lo, hi, xtol=_XTOL)) <= _XTOL + _RTOL * abs(root)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1e-3, 1e4), a=st.floats(0.0, 0.999), b=st.floats(1.001, 20.0),
           u=st.floats(0.0, 1.0))
    def test_bracket_ends_carry_the_end_signs(self, c, a, b, u):
        fun, lo, hi = quadratic(c, 1.0), a * c**0.5, b * c**0.5
        residual = lambda theta: fun(theta)[0]  # noqa: E731
        root, res, (b_lo, b_hi), iterations = _residual_root(fun, lo, lo + u * (hi - lo), hi)
        assert lo <= b_lo <= root <= b_hi <= hi and res == residual(root)
        if res != 0.0:
            assert root in (b_lo, b_hi) and b_hi - b_lo < _XTOL + _RTOL * root
            assert residual(b_lo) > 0.0 > residual(b_hi)
        assert abs(root - brentq(residual, lo, hi, xtol=_XTOL)) <= _XTOL + _RTOL * root

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_zero_gives_point_bracket(self, sign):
        # the first step evaluates the start, the root of 4 - theta^2: a
        # point bracket whichever way the residual crosses
        fun = quadratic(4.0, sign)
        fit = _residual_root(fun, 1.0, 2.0, 3.0)
        assert fit == (2.0, 0.0, (2.0, 2.0), 1)
        assert bits(fit) == bits(row_root(fun, 1.0, 2.0, 3.0))

    @settings(max_examples=200, deadline=None)
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf, "steps"]),
           c=st.floats(0.5, 50.0), u=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0),
           s=st.floats(0.0, 1.0), sign=st.sampled_from([1.0, -1.0]))
    def test_nonfinite_or_flat_residuals_end_as_the_array_row(self, bad, c, u, w, s, sign):
        # The residual and its slope are nonfinite on a window of the
        # bracket [0, 2 sqrt(c)] (or, for "steps", +-1 with slope 0, where
        # every step bisects): the float driver raises nothing and ends
        # where numpy's inf and NaN take the array driver, within the step
        # budget.
        lo, hi = 0.0, 2.0 * c**0.5
        start, stop = sorted((lo + u * (hi - lo), lo + w * (hi - lo)))

        def fun(theta):
            if bad == "steps":
                return sign * (1.0 if theta * theta < c else -1.0), 0.0
            return (bad, bad) if start <= theta <= stop else quadratic(c, sign)(theta)

        fit = _residual_root(fun, lo, lo + s * (hi - lo), hi)
        assert fit is None or fit[3] <= _MAX_ITERATIONS
        assert bits(fit) == bits(row_root(fun, lo, lo + s * (hi - lo), hi))

    def test_every_residual_evaluation_is_a_step(self):
        # The solver evaluates the residual once per step, twice on a
        # closing pair, at points inside the cell; roots of the table cells
        # take 2 to 4 steps.
        for seed, rep in itertools.product(range(2), range(8)):
            for tilt in SOLVER_TILTS:
                fun, lo, start, hi = table_cell_residual(seed, rep, tilt)
                calls = []
                fit = _residual_root(lambda t: calls.append(t) or fun(t), lo, start, hi)
                assert fit[3] <= len(calls) <= 2 * fit[3] and 2 <= fit[3] <= 4
                assert lo < min(calls) and max(calls) < hi


def table_stacks(seed=5):
    """An estimation-table-shaped stack of 30 densities and a wide-table-shaped
    one of 20, as one chunk of each table draws them."""
    contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    return [
        [empirical_frequencies(contaminated_sample(n, theta, c, replication_rng(seed, rep)))
         for rep in range(reps)]
        for n, theta, c, reps in ((50, 4.0, contam, 30), (200, 100.0, None, 20))
    ]


class TestStackedFits:
    """minimize_lsd_many solves a stack's roots in array passes; each row must
    be the fit minimize_lsd gives, up to the root tolerance."""

    @staticmethod
    def assert_rows_match(family, densities, p, fits):
        assert len(fits) == len(densities)
        for r_n, fit in zip(densities, fits):
            try:
                expected = minimize_lsd(r_n, family, p)
            except (ValueError, ArithmeticError) as exc:
                assert type(fit) is type(exc)
                continue
            assert isinstance(fit, type(expected))
            assert abs(fit.theta_hat - expected.theta_hat) <= 1e-10 * max(1.0, expected.theta_hat)
            assert fit.converged == expected.converged
            assert fit.objective == pytest.approx(expected.objective, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_rows_match_scalar_fits(self, family, beta, gamma):
        p = TiltParams(beta, gamma)
        small, wide = table_stacks()
        # rows of means near 2 and near 100 in one stack, whose one window is
        # that of the mean-100 rows' scan cells
        mixed = [r_n for rep in range(4) for r_n in (
            empirical_frequencies(contaminated_sample(50, 2.0, None, replication_rng(5, rep))),
            wide[rep],
        )]
        for densities in (small, wide, mixed):
            fits = minimize_lsd_many(densities, family, p)
            assert all(fit.converged for fit in fits)
            self.assert_rows_match(family, densities, p, fits)

    @pytest.mark.parametrize("key", sorted(TestResidualRoot.FALLBACK))
    def test_degenerate_rows_fall_back_unchanged(self, family, key):
        name, beta, gamma = key
        degenerate = empirical_frequencies(
            np.array([0] * 50 if name == "zeros" else [0] * 49 + [30])
        )
        densities = table_stacks()[0][:6]
        densities.insert(3, degenerate)
        fits = minimize_lsd_many(densities, family, TiltParams(beta, gamma))
        assert (fits[3].theta_hat, fits[3].converged) == TestResidualRoot.FALLBACK[key]
        self.assert_rows_match(family, densities, TiltParams(beta, gamma), fits)

    def test_failing_row_raises_alone(self, family):
        # the window at the bracket top 721 of a sample of 300s and one 720
        # underflows
        densities = table_stacks()[0][:8]
        p = TiltParams(0.5, 0.5)
        large = empirical_frequencies(np.append(np.full(49, 300), 720))
        fits = minimize_lsd_many(densities[:4] + [large] + densities[4:], family, p)
        assert isinstance(fits[4], FloatingPointError)
        assert fits[:4] + fits[5:] == minimize_lsd_many(densities, family, p)

    def test_nonpositive_exp_a_comes_back_per_row(self, family):
        densities = table_stacks()[0][:5]
        fits = minimize_lsd_many(densities, family, TiltParams(0.0, -1.0))
        assert all(isinstance(fit, DivergenceInfiniteError) for fit in fits)
        assert len({id(fit) for fit in fits}) == len(fits)  # an object of its own per row

    def test_small_stacks_are_scalar_fits(self, family):
        p = TiltParams(0.2, 0.5)
        densities = table_stacks()[0][:3]
        assert minimize_lsd_many(densities, family, p) == [
            minimize_lsd(r_n, family, p) for r_n in densities
        ]
        assert minimize_lsd_many([], family, p) == []

    def test_bracket_holds_a_sign_change(self, family):
        # on the stack's own window, whose residual of a row reads that row's
        # theta alone: near a root a row's window can differ from it in sign
        # by rounding (about 3e-16)
        densities = table_stacks()[0]
        p = TiltParams(0.4, 2.0)
        part = _SamplePart.from_densities(densities, family)
        stack = _FitWindow.stack(part, p, part.scan(p)[3].max())
        fits = minimize_lsd_many(densities, family, p)
        for fit in fits:
            lo, hi = fit.bracket
            assert lo <= fit.theta_hat <= hi
            assert hi - lo <= 1e-10 * max(1.0, fit.theta_hat)
            assert hi > lo or fit.residual == 0.0  # a point bracket is an exact zero
        lo, hi = np.array([fit.bracket for fit in fits]).T
        assert (stack.residual(lo[:, None]) >= 0.0).all()
        assert (stack.residual(hi[:, None]) <= 0.0).all()

    def test_exact_zero_gives_point_bracket(self):
        # f = c - theta^2 row by row, from theta = 2 on [1, 3], which is the
        # root of the middle row only
        c = np.array([2.0, 4.0, 5.0])

        def fun(theta):
            return c[:, None] - theta**2, -2.0 * theta

        root, res, lo, hi, iterations, found = _residual_roots(
            fun, np.full(3, 1.0), np.full(3, 2.0), np.full(3, 3.0)
        )
        assert found.all()
        assert (root[1], res[1], lo[1], hi[1], iterations[1]) == (2.0, 0.0, 2.0, 2.0, 1)
        for i in (0, 2):
            assert lo[i] < hi[i] and c[i] - lo[i] ** 2 > 0.0 > c[i] - hi[i] ** 2
            assert abs(root[i] - np.sqrt(c[i])) <= 1e-12
            assert root[i] in (lo[i], hi[i])

    @settings(max_examples=30, deadline=None)
    @given(
        means=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=8),
        n=st.integers(1, 60),
        tilt=st.sampled_from(SOLVER_TILTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_window_holds_every_theta_evaluated(self, means, n, tilt, seed):
        # The window reaches each kept row's data and the support window of
        # the highest theta the row can reach: its scan cell's top, above a
        # root in the cell and the scan's best point.
        family, p = PoissonFamily(), TiltParams(*tilt)
        rng = np.random.default_rng(seed)
        part = _SamplePart.from_samples(rng.poisson(means, size=(n, len(means))).T, family)
        tops = part.scan(p)[3]
        stacks, evaluated = [], []
        build, objective = _FitWindow.stack, _FitWindow.objective
        residual = _FitWindow.residual_slope

        def recorded_stack(cls, *args):
            stacks.append(build(*args))
            return stacks[-1]

        def recorded(method):
            def call(self, theta):
                if any(self is s for s in stacks):  # a row's own window is not the stack's
                    evaluated.append(theta)
                return method(self, theta)
            return call

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_FitWindow, "stack", classmethod(recorded_stack))
            patch.setattr(_FitWindow, "residual_slope", recorded(residual))
            patch.setattr(_FitWindow, "objective", recorded(objective))
            _fit_part(part, p)
        (stack,) = stacks
        ends = [part.x_pos[k, : part.cells[k]].max() + 1 for k in range(len(part.index))]
        assert stack.x.size >= max(ends)
        assert stack.x.size >= max(family.support_window(top)[1] for top in tops)
        assert all((theta <= tops[:, None]).all() for theta in evaluated)

    def test_evaluation_budget(self, family, monkeypatch):
        # The amortisation: one stacked residual pass per step for the whole
        # stack, where minimize_lsd makes 3 to 6 residual calls per fit.
        calls = {"residual": 0, "objective": 0}
        residual, objective = _FitWindow.residual_slope, _FitWindow.objective

        # a stack takes a (rows, k) array of thetas; a row's window a float
        def counted_residual(self, theta):
            calls["residual"] += np.ndim(theta) == 2
            return residual(self, theta)

        def counted_objective(self, theta):
            calls["objective"] += np.ndim(theta) == 2
            return objective(self, theta)

        monkeypatch.setattr(_FitWindow, "residual_slope", counted_residual)
        monkeypatch.setattr(_FitWindow, "objective", counted_objective)
        for seed in (11, 12):
            densities = table_stacks(seed)[0]
            for beta, gamma in SOLVER_TILTS:
                calls.update(residual=0, objective=0)
                fits = minimize_lsd_many(densities, family, TiltParams(beta, gamma))
                assert len(fits) == 30 and all(fit.converged for fit in fits)
                assert calls["residual"] <= 4
                assert calls["objective"] == 1
                assert max(fit.iterations for fit in fits) == calls["residual"]

    @pytest.mark.parametrize("shape", ["est_table", "est_wide"])
    def test_passes_per_chunk_cell(self, shape, monkeypatch):
        # Seeded chunks of the benchmark's estimation tables, fitted at their
        # grids: the stacked residual passes of a chunk at a cell (the only
        # ones: the roots start from the scan's values) average at most 3.5,
        # and no row takes more than the step budget.
        fixed = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        n, theta, contam, reps, betas, gammas = {
            "est_table": (50, 4.0, fixed, 30, (0.0, 0.2, 0.4, 1.0), (0.0, 0.5)),
            "est_wide": (200, 100.0, None, 20, (0.0, 0.5, 1.0), (0.0, 0.5)),
        }[shape]
        passes, residual = [0], _FitWindow.residual_slope

        def counted(self, theta):
            passes[0] += isinstance(theta, np.ndarray)
            return residual(self, theta)

        monkeypatch.setattr(_FitWindow, "residual_slope", counted)
        counts = []
        for seed in range(4):
            part = _chunk_part(seed, range(reps), n, theta, contam)
            for beta, gamma in itertools.product(betas, gammas):
                passes[0] = 0
                fits = _fit_part(part, TiltParams(beta, gamma))
                counts.append(passes[0])
                assert fits.converged.all() and fits.iterations.max() <= _MAX_ITERATIONS
        assert np.mean(counts) <= 3.5


class TestPartFitsRecord:
    """_fit_part's record of arrays: each row's columns are the fields of
    minimize_lsd_many's entry for it, and converged is the one-fit formula
    of helpers.converged_oracle.  A failed row holds NaN, 0 iterations,
    converged False and its error."""

    @staticmethod
    def assert_record_matches(family, densities, p):
        part = _SamplePart.from_densities(densities, family)
        fits = _fit_part(part, p)
        expected = minimize_lsd_many(densities, family, p)
        rows = len(densities)
        assert fits.theta_hat.shape == fits.objective.shape == fits.residual.shape == (rows,)
        assert fits.bracket.shape == (rows, 2) and len(fits.errors) == rows
        assert fits.iterations.dtype.kind == "i" and fits.converged.dtype == bool
        fitted = part.index and p.exp_a > 0
        brackets = dict(zip(part.index, zip(part.lo, part.hi))) if fitted else {}
        for i, want in enumerate(expected):
            floats = [fits.theta_hat[i], fits.objective[i], fits.residual[i], *fits.bracket[i]]
            if isinstance(want, Exception):
                assert type(fits.errors[i]) is type(want) and str(fits.errors[i]) == str(want)
                assert np.isnan(floats).all()
                assert fits.iterations[i] == 0 and not fits.converged[i]
                continue
            assert fits.errors[i] is None
            got = (*map(float.hex, map(float, floats)), int(fits.iterations[i]))
            assert got == (*map(float.hex, (want.theta_hat, want.objective, want.residual,
                                            *want.bracket)), want.iterations)
            oracle = converged_oracle(
                want.theta_hat, want.objective, want.residual, want.bracket, *brackets[i]
            )
            assert bool(fits.converged[i]) is want.converged is oracle

    @pytest.mark.parametrize("rows", [1, 2, 3, 30])
    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_scalar_and_stacked_parts(self, family, rows, beta, gamma):
        small, wide = table_stacks()
        for densities in (small[:rows], wide[:rows]):
            self.assert_record_matches(family, densities, TiltParams(beta, gamma))

    def test_all_zero_sample_hits_the_bracket_floor(self, family):
        zeros = empirical_frequencies(np.zeros(50, dtype=int))
        p = TiltParams(0.4, 0.5)
        (fit,) = minimize_lsd_many([zeros], family, p)
        assert not fit.converged
        for densities in ([zeros], table_stacks()[0][:5] + [zeros]):
            self.assert_record_matches(family, densities, p)

    def test_interior_root_after_an_edge_scan_point_converges(self, family):
        # the scan's best point is the bracket's low end, 3 (the grid's step
        # is 2.7); the fit then finds a root inside the bracket, which
        # converges, while an all-zero sample fits to the bracket floor 0.001
        # and does not
        r_n = empirical_frequencies(np.array([4] * 40 + [690] * 10))
        zeros = empirical_frequencies(np.zeros(50, dtype=int))
        p = TiltParams(0.5, 0.0)
        part = _SamplePart.from_densities([r_n], family)
        assert part.scan_objective(p).argmin() == 0 and part.lo[0] == search_bracket(r_n)[0] == 3.0
        fit, floor = minimize_lsd_many([r_n, zeros], family, p)
        assert abs(fit.residual) <= 1e-12 and fit.iterations > 0
        assert fit.bracket[0] <= fit.theta_hat <= fit.bracket[1]
        assert abs(fit.theta_hat - 4.1736) < 1e-4 and fit.converged
        assert floor.theta_hat == 1e-3 and not floor.converged
        for densities in ([r_n], [zeros], table_stacks()[0][:4] + [r_n, zeros]):
            self.assert_record_matches(family, densities, p)

    def test_large_gamma_residual_is_finite(self, family):
        # A = 1e4 + 1: the residual's weights r_n^A f^B are taken from
        # max-shifted exps, so they neither overflow nor give NaN
        r_n = empirical_frequencies(np.array([1, 2, 3, 3, 4]))
        p = TiltParams(0.0, 1e4)
        with np.errstate(over="raise", invalid="raise"):
            (fit,) = minimize_lsd_many([r_n], family, p)
            assert abs(fit.residual) <= 1e-12 and fit.converged
            for densities in ([r_n], [r_n] * 2 + table_stacks()[0][:3]):
                self.assert_record_matches(family, densities, p)

    def test_unfittable_row(self, family):
        # the window at the bracket top 721 of a mean-300 sample with one
        # entry 720 underflows
        sample = np.random.default_rng(3).poisson(300.0, 50)
        sample[0] = 720
        large = empirical_frequencies(sample)
        p = TiltParams(0.2, 0.5)
        small = table_stacks()[0]
        for densities in ([large], small[:2] + [large], small[:6] + [large]):
            fits = _fit_part(_SamplePart.from_densities(densities, family), p)
            assert isinstance(fits.errors[-1], FloatingPointError)
            self.assert_record_matches(family, densities, p)

    @pytest.mark.parametrize("beta,gamma", [*SOLVER_TILTS, (0.0, 1e4)])
    def test_bracket_narrow_without_a_width_test(self, family, beta, gamma):
        # converged does not test the bracket: the solvers' stop rules keep
        # every root's bracket within max(1e-8, 1e-10 max(1, theta_hat)),
        # alone and in parts of 4 rows or more, and a row that keeps the
        # scan's best grid point, a bracket end here, does not converge
        special = [
            empirical_frequencies(np.array(s)) for s in ([0] * 50, [1, 2, 3, 3, 4], [0] * 49 + [30])
        ]
        small, wide = table_stacks()
        densities = small[:4] + wide[:2] + special
        p = TiltParams(beta, gamma)
        for part in ([[r_n] for r_n in densities], [densities, small[:2] + special[:2]]):
            kept = roots = 0
            for rows in part:
                fits = _fit_part(_SamplePart.from_densities(rows, family), p)
                for theta, (lo, hi), error, iterations, converged in zip(
                    fits.theta_hat, fits.bracket, fits.errors, fits.iterations, fits.converged
                ):
                    assert error is None and lo <= theta <= hi
                    if iterations == 0:  # the scan cell of a kept grid point
                        assert theta in (lo, hi) and not converged
                        kept += 1
                    else:
                        assert hi - lo <= max(1e-8, 1e-10 * max(1.0, theta)) and converged
                        roots += 1
            assert kept > 0 and roots > 0

    @pytest.mark.parametrize("rows", [1, 5])
    def test_nonpositive_exp_a(self, family, rows):
        p = TiltParams(0.0, -1.0)
        assert p.exp_a <= 0
        densities = table_stacks()[0][:rows]
        fits = _fit_part(_SamplePart.from_densities(densities, family), p)
        assert all(type(error) is DivergenceInfiniteError for error in fits.errors)
        self.assert_record_matches(family, densities, p)


class TestFitInvariants:
    """Invariants of every fit over a sweep of small and contaminated
    samples and tilts: a finite result, an objective >= -1e-10 and no worse
    than the best point of the full grid, at B <= 0 (where the objective is
    convex in log theta) the estimate of a fine grid, the scalar and
    stacked paths (a one-row scan of every grid point, a certified one of
    five copies) in agreement, and a fit that has not converged only at the
    bracket floor of a sample with a 0.  The means stop at 600, and the
    entries at 700: the window from 0 of a bracket top past about 708
    underflows; beta stops at 20: the LSD of a huge beta cancels in its last
    bits.  Each bound widens when ROADMAP's item on it lands."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2, 5, 20, 50, 200]),
        mean=st.sampled_from([0.05, 0.5, 3.0, 20.0, 80.0, 250.0, 600.0]),
        contaminated=st.booleans(),
        beta=st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.0, 5.0, 20.0]),
        gamma=st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 2.0, 10.0, 50.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_invariants(self, n, mean, contaminated, beta, gamma, seed):
        family, p = PoissonFamily(), TiltParams(beta, gamma)
        assume(p.exp_a > 0)
        rng = np.random.default_rng(seed)
        sample = rng.poisson(mean, n)
        if contaminated:  # a tenth of the sample from far above the mean
            sample[: n // 10] = rng.poisson(4.0 * mean + 10.0, n // 10)
        r_n = empirical_frequencies(np.minimum(sample, 700))
        fit = minimize_lsd(r_n, family, p)
        assert np.isfinite([fit.theta_hat, fit.objective, fit.residual]).all()
        assert abs(fit.residual - residual_oracle(fit.theta_hat, r_n, p)) <= 1e-10 * max(
            1.0, abs(fit.residual)
        )
        assert fit.objective >= -1e-10
        one = _SamplePart.from_densities([r_n], family)
        assert fit.objective <= full_scan_oracle(one, 0, p).min()
        lo, hi = search_bracket(r_n)
        if p.exp_b <= 0:
            pitch = (hi - lo) / 64
            assert abs(fit.theta_hat - oracle_grid_minimize(r_n, family, p, lo, hi, pitch)) <= pitch
        if not fit.converged:
            assert fit.theta_hat == lo == 1e-3 and r_n.mass[0] > 0.0
        for row in minimize_lsd_many([r_n] * 5, family, p):
            assert abs(row.theta_hat - fit.theta_hat) <= 1e-8
            assert row.converged == fit.converged and np.isfinite(row.residual)
        copies = _SamplePart.from_densities([r_n] * 5, family).scan(p)
        for got, want in zip(copies[:4], one.scan(p)):
            assert (got == want[0]).all()
        # the objective at the cell ends, where the certified scan evaluated them
        for got, want in zip(copies[4:], one.scan(p)[4:]):
            assert ((got == want[0]) | (got == np.inf)).all()


class TestSearchBracket:
    """Each row's bracket (max(1e-3, x_min - 1), x_max + 1) comes from its
    first and last occupied cells.  At A > 0 the residual is (E_e[x] -
    m(theta)) / theta with E_e[x] in [x_min, x_max] and m(theta) = E_{f^(1+
    beta)}[x], so the bracket holds every minimizer where m rises in theta
    and m(theta) - theta lies in (-1, 0]; only a sample with a 0 can end at
    the floor."""

    def test_tilted_mean_lies_within_one_below_theta(self):
        # m(theta) - theta = theta c_1 / c_0, at beta up to 20 and theta from
        # 1e-3 to 700, with points just either side of integers, where a
        # large beta puts f^(1+beta) on the mode (m - theta tends to
        # -frac(theta)); m rises in theta, as the mean of an exponential
        # family in x with natural parameter (1 + beta) log theta
        near = [k + d for k in [*range(1, 31), *range(50, 701, 50)] for d in (-1e-3, 1e-3)]
        thetas = np.unique(np.concatenate([np.geomspace(1e-3, 700.0, 200), near]))
        for beta in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            moments = [moments_c_d(PoissonFamily(), t, beta)[0] for t in thetas.tolist()]
            shift = np.array([t * c[1] / c[0] for t, c in zip(thetas, moments)])
            assert (shift > -1.0).all() and (shift <= 0.0).all(), beta

    @pytest.mark.parametrize("beta,gamma", [*SOLVER_TILTS, (5.0, 0.0), (20.0, -3.0)])
    def test_only_a_sample_with_a_zero_stops_at_the_floor(self, family, beta, gamma):
        # the estimation, wide and bimodal tables' chunks and the degenerate
        # samples: a fit that has not converged sits at the floor 1e-3 of a
        # sample with a 0
        p = TiltParams(beta, gamma)
        contam = Contamination(0.3, 40.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        bimodal = _draw_chunk(50, 2.0, contam, _ChunkStreams(7, range(32)))
        samples = [*chunk_samples(0), bimodal, *(np.array([d]) for d in DEGENERATE)]
        for rows in samples:
            part = _SamplePart.from_samples(rows, family)
            fits = _fit_part(part, p)
            assert not any(fits.errors)
            for k in np.flatnonzero(~fits.converged):
                assert fits.theta_hat[k] == part.lo[k] == 1e-3 and rows[k].min() == 0
            if rows is bimodal and p.exp_b > 0:
                assert fits.converged.all()

    @pytest.mark.parametrize("beta,gamma", [(0.5, 0.0), (1.0, 0.0), (1.0, 3.0)])
    def test_bimodal_rows_agree_with_a_wide_fine_grid(self, family, beta, gamma):
        # CI's bimodal table (n = 50, theta = 2, 30% from Poisson(40), seed
        # 7) at B > 0, where the mean-based bracket's floor (mean / 5, 2.632
        # for row 0) sat above the minimizer (1.765 at (0.5, 0)): a grid of
        # pitch 0.05 over (1e-3, 60), then of pitch 1e-3 around its best
        p = TiltParams(beta, gamma)
        contam = Contamination(0.3, 40.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        for sample in _draw_chunk(50, 2.0, contam, _ChunkStreams(7, range(4))):
            r_n = empirical_frequencies(sample)
            fit = minimize_lsd(r_n, family, p)
            coarse = oracle_grid_minimize(r_n, family, p, 1e-3, 60.0, 0.05)
            fine = oracle_grid_minimize(r_n, family, p, coarse - 0.1, coarse + 0.1, 1e-3)
            assert fit.converged and abs(fit.theta_hat - fine) <= 1e-3

    @pytest.mark.parametrize("mean", [150.0, 300.0, 600.0])
    def test_large_means_converge(self, family, mean):
        # the mean-based bracket's top 5 mean + 5 passed theta ~ 708, whose
        # window underflows; the data's top x_max + 1 stays below it
        r_n = empirical_frequencies(np.random.default_rng(0).poisson(mean, 50))
        for beta, gamma in SOLVER_TILTS:
            fit = minimize_lsd(r_n, family, TiltParams(beta, gamma))
            assert fit.converged and abs(fit.theta_hat - mean) < 0.2 * mean


def chunk_samples(seed):
    """Raw samples of an estimation-table-shaped chunk of 30 replications and
    of a wide-table-shaped one of 20, as the simulation harness draws them."""
    contam = Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    wide = Contamination(0.1, 130.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    return [
        np.array([contaminated_sample(n, theta, c, replication_rng(seed, rep))
                  for rep in range(reps)])
        for n, theta, c, reps in ((50, 4.0, contam, 30), (200, 100.0, wide, 20))
    ]


# Samples whose scan cell lies at a bracket end or has no sign change
DEGENERATE = ([0] * 50, [0], [0] * 49 + [30], [7] * 20)


class TestSamplePart:
    """A chunk's sample part is tabulated in array passes; each of its rows
    must hold what a one-row part of that row's density holds, bit for bit,
    and the stacked fits must keep the scalar fits' scan cells."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tabulated_rows_equal_one_row_parts(self, family, seed):
        # and a chunk of 15 window ends, two rows to an end, whose means are
        # taken one end at a time
        table, wide = chunk_samples(seed)
        spread = table.copy()
        spread[:, 0] = 20 + np.arange(len(table)) // 2
        for samples in (table, wide, spread):
            part = _SamplePart.from_samples(samples, family)
            assert part.index == list(range(len(samples)))
            for k, sample in enumerate(samples):
                one = _SamplePart.from_densities([empirical_frequencies(sample)], family)
                m = part.cells[k]
                assert (part.lo[k], part.hi[k], part.length[k], m) == (
                    one.lo[0], one.hi[0], one.length[0], one.cells[0]
                )
                np.testing.assert_array_equal(part.grid[k], one.grid[0])
                np.testing.assert_array_equal(part.x_pos[k, :m], one.x_pos[0])
                np.testing.assert_array_equal(part.logg[k, :m], one.logg[0])
                assert part.ref[k] == one.ref[0]
                np.testing.assert_array_equal(part.scan_terms[k], one.scan_terms[0])
                for got, want in zip(part.cell_terms, one.cell_terms):
                    np.testing.assert_array_equal(got[k, :m], want[0])
                for beta, gamma in SOLVER_TILTS[:3]:
                    p = TiltParams(beta, gamma)
                    # log sum g^(1+beta), m1 and m0, then the cell arrays
                    for got, want in zip(part.log_sum_g(1.0 + beta), one.log_sum_g(1.0 + beta)):
                        np.testing.assert_array_equal(got[k, :m] if got.ndim == 2 else got[k], want[0])
                    assert_scan_of(part.scan_objective(p)[k], one.scan_objective(p)[0])

    def test_log_sum_g_kept_per_beta(self, family):
        # each row's log sum g^(1+beta), weights w = e / sum e and weighted
        # means m1 = sum e x / sum e and m0 = sum e (log f_theta_r - log g) /
        # sum e, e = (g / max g)^(1+beta), are computed once per beta, adding
        # the row's cells one after another, and read by the fit windows at
        # every gamma
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            x, spread = part.cell_terms
            for beta in (0.0, 0.4, 1.0):
                kept = part.log_sum_g(1.0 + beta)
                for k, m in enumerate(part.cells):
                    scaled = (1.0 + beta) * part.logg[k, :m]
                    e = np.exp(scaled - scaled.max())
                    total = in_order(e)
                    assert (kept[0][k], kept[1][k], kept[2][k]) == (
                        scaled.max() + np.log(total),
                        in_order(e * x[k, :m]) / total,
                        in_order(e * spread[k, :m]) / total,
                    )
                    np.testing.assert_array_equal(kept[3][k, :m], e / total)
                    # padded cells weigh nothing and hold centred terms of 0
                    assert not kept[3][k, m:].any() and not kept[4][k, m:].any() and not kept[5][k, m:].any()
                for gamma in (-0.5, 0.0, 1.0):
                    p = TiltParams(beta, gamma)
                    part.scan(p)
                    stack = _FitWindow.stack(part, p, part.hi[0])
                    np.testing.assert_array_equal(stack.factors[0][:, 0], kept[0])
                    assert _FitWindow.row(part, 3, p).factors[0] == kept[0][3]
                assert part.log_sum_g(1.0 + beta) is kept

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_stacked_fits_keep_the_scalar_scan_cell(self, family, seed, beta, gamma):
        p = TiltParams(beta, gamma)
        for samples in chunk_samples(seed):
            densities = [empirical_frequencies(sample) for sample in samples]
            densities += [empirical_frequencies(np.array(d)) for d in DEGENERATE]
            densities += [DiscreteDensity(offset=3, mass=r_n.mass) for r_n in densities[:2]]
            part = _SamplePart.from_densities(densities, family)
            _, _, g_lo, g_hi, *_ = part.scan(p)
            best = part.scan_objective(p).argmin(axis=1)
            fits = minimize_lsd_many(densities, family, p)
            for k, (r_n, fit) in enumerate(zip(densities, fits)):
                one = _SamplePart.from_densities([r_n], family)
                _, _, o_lo, o_hi, *_ = one.scan(p)
                o_best = one.scan_objective(p).argmin()
                assert (g_lo[k], g_hi[k], best[k]) == (o_lo[0], o_hi[0], o_best)
                expected = minimize_lsd(r_n, family, p)
                assert abs(fit.theta_hat - expected.theta_hat) <= _TOL_THETA
                assert fit.converged == expected.converged

    def test_nonpositive_exp_a_gives_each_row_its_own_error(self, family):
        densities = [empirical_frequencies(sample) for sample in chunk_samples(0)[0][:6]]
        densities += [empirical_frequencies(np.array(d)) for d in DEGENERATE]
        densities += [DiscreteDensity(offset=3, mass=densities[0].mass)]
        densities += [empirical_frequencies(np.full(50, 720))]  # no window at all
        fits = minimize_lsd_many(densities, family, TiltParams(0.0, -1.0))
        assert all(type(fit) is DivergenceInfiniteError for fit in fits)
        assert len({id(fit) for fit in fits}) == len(densities)

    def test_offset_density_placed_at_its_offset(self, family):
        # a density stored from cell 3 fits as the same masses stored from 0
        # behind three empty cells
        r_n = empirical_frequencies(chunk_samples(0)[0][0])
        shifted = DiscreteDensity(offset=3, mass=r_n.mass)
        padded = DiscreteDensity(offset=0, mass=np.concatenate([np.zeros(3), r_n.mass]))
        for beta, gamma in SOLVER_TILTS:
            p = TiltParams(beta, gamma)
            fits = minimize_lsd_many([shifted, padded] * 2, family, p)
            scalar = minimize_lsd(shifted, family, p).theta_hat
            assert abs(scalar - r_n.mean() - 3.0) < abs(scalar - r_n.mean())
            for fit in fits:
                assert abs(fit.theta_hat - scalar) <= 1e-8

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 256, 257])
    def test_grids_are_linspace_rows(self, n_rows):
        rng = np.random.default_rng(4)
        lo = rng.uniform(1e-3, 50.0, n_rows)
        hi = lo + rng.uniform(0.0, 500.0, n_rows)
        hi[:3] = lo[:3]  # one-point brackets
        expected = [np.linspace(a, b, 256) for a, b in zip(lo, hi)]
        np.testing.assert_array_equal(_grids(lo, hi), expected)

    @pytest.mark.parametrize(
        "bad", [DiscreteDensity(offset=-1, mass=np.array([0.2, 0.3, 0.5])),
                DiscreteDensity(offset=0, mass=np.zeros(4))],
        ids=["below_cell_0", "no_mass"],
    )
    def test_malformed_density_raises_alone(self, family, bad):
        densities = table_stacks()[0][:5]
        p = TiltParams(0.2, 0.5)
        fits = minimize_lsd_many(densities[:2] + [bad] + densities[2:], family, p)
        assert type(fits[2]) is ValueError
        assert fits[:2] + fits[3:] == minimize_lsd_many(densities, family, p)
        with pytest.raises(ValueError, match="cells >= 0 and have positive mass"):
            minimize_lsd(bad, family, p)

    def test_unfittable_row_keeps_its_error(self, family):
        samples = chunk_samples(0)[0][:6].copy()
        samples[2, 0] = 720  # the window at the bracket top 721 underflows
        part = _SamplePart.from_samples(samples, family)
        assert isinstance(part.errors[2], FloatingPointError)
        assert part.index == [0, 1, 3, 4, 5]
        assert part.x_pos.shape[0] == 5
        assert len(part.ref) == 5 and part.scan_terms.shape[0] == 5
        assert [a.shape[0] for a in part.cell_terms] == [5, 5]


class TestEstimatingEquationResidual:
    def test_zero_at_population(self, family):
        r_n = density_vector(family, 4.0, 1e-12)
        res = estimating_equation_residual(4.0, r_n, family, TiltParams(0.3, 0.5))
        assert abs(res) <= 1e-12

    def test_sign_at_likelihood_disparity(self, family):
        rng = np.random.default_rng(3)
        sample = rng.poisson(4.0, 80)
        r_n = empirical_frequencies(sample)
        p = TiltParams(0.0, 0.0)
        mean = sample.mean()
        assert estimating_equation_residual(mean - 0.5, r_n, family, p) > 0
        assert estimating_equation_residual(mean + 0.5, r_n, family, p) < 0

    def test_sign_opposes_objective_derivative(self, family):
        rng = np.random.default_rng(12)
        p = TiltParams(0.4, 0.3)
        h = 1e-6
        checked = 0
        while checked < 10:
            sample = rng.poisson(4.0, 50)
            theta = rng.uniform(2.0, 6.0)
            r_n = empirical_frequencies(sample)

            def objective(t):
                return lsd(r_n, density_vector(family, t, 1e-12), p)

            deriv = (objective(theta + h) - objective(theta - h)) / (2.0 * h)
            if abs(deriv) < 1e-6:
                continue
            res = estimating_equation_residual(theta, r_n, family, p)
            assert np.sign(res) == -np.sign(deriv)
            checked += 1

    @pytest.mark.parametrize("beta,gamma", [*SOLVER_TILTS, (0.0, 1e4), (20.0, -3.0)])
    def test_matches_the_oracle_at_any_scale(self, family, beta, gamma):
        # the one-point part reads f at theta_r = theta, at any theta; a
        # fit's row window reads f e^(theta - theta_r) at its bracket's
        # midpoint, at the thetas inside the bracket, whose top's model tail
        # the window holds: both are the oracle's scale-free value, up to
        # the mass their windows leave out (1e-12)
        p = TiltParams(beta, gamma)
        for sample in ([3, 4, 5], [1, 2, 3, 3, 4], [0] * 49 + [30], [22]):
            r_n = empirical_frequencies(np.array(sample))
            part = _SamplePart.from_densities([r_n], family)
            window = _FitWindow.row(part, 0, p)
            lo, hi = search_bracket(r_n)
            for theta in (0.5, r_n.mean(), 3.0 * r_n.mean()):
                want = residual_oracle(theta, r_n, p)
                got = [estimating_equation_residual(theta, r_n, family, p)]
                if lo <= theta <= hi:
                    got.append(window.residual(theta))
                for value in got:
                    assert abs(value - want) <= 1e-10 * max(1.0, abs(want))

    def test_nonpositive_exp_a_rejected(self, family):
        r_n = empirical_frequencies(np.array([1, 2]))
        with pytest.raises(DivergenceInfiniteError):
            estimating_equation_residual(2.0, r_n, family, TiltParams(0.0, -1.0))

    def test_one_point_bracket_builds_no_scan(self, family):
        # the residual reads a one-row part's window at the bracket (theta,
        # theta); its values are pinned, and the part never builds a scan
        r_n = empirical_frequencies(np.array([3, 4, 5]))
        p = TiltParams(0.2, 0.3)
        values = [estimating_equation_residual(t, r_n, family, p) for t in (0.5, 4.0, 30.0)]
        assert values == [7.289150565988441, 0.02270192871666632, -0.8655670532514071]
        part = _SamplePart.from_densities([r_n], family, bracket=(4.0, 4.0))
        assert _FitWindow.row(part, 0, p).residual(4.0) == values[1]
        assert "grid" not in vars(part) and "scan_terms" not in vars(part)

    @pytest.mark.parametrize(
        "r_n", [DiscreteDensity(-1, np.array([0.5, 0.5])), DiscreteDensity(0, np.zeros(3))],
        ids=["offset_below_zero", "no_positive_mass"],
    )
    def test_density_outside_the_support_rejected(self, family, r_n):
        with pytest.raises(ValueError, match="cells >= 0 and have positive mass"):
            estimating_equation_residual(2.0, r_n, family, TiltParams(0.2, 0.3))

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan"), float("inf")])
    def test_theta_outside_domain_named(self, family, theta):
        r_n = empirical_frequencies(np.array([1, 2]))
        with pytest.raises(ValueError, match="theta"):
            estimating_equation_residual(theta, r_n, family, TiltParams(0.2, 0.3))


class TestOracleEquivalence:
    def test_population_case_grid(self, family):
        r_n = density_vector(family, 4.0, 1e-12)
        got = oracle_grid_minimize(r_n, family, TiltParams(0.5, 0.5), 1.0, 10.0, 1e-3)
        assert got == pytest.approx(4.0, abs=1e-3)

    def test_pitch_refinement_halves_disagreement(self, family):
        rng = np.random.default_rng(21)
        sample = rng.poisson(4.0, 50)
        r_n = empirical_frequencies(sample)
        p = TiltParams(0.3, 0.7)
        exact = minimize_lsd(r_n, family, p).theta_hat
        errs = []
        for pitch in (4e-3, 2e-3, 1e-3):
            got = oracle_grid_minimize(r_n, family, p, exact - 0.05, exact + 0.05, pitch)
            errs.append(abs(got - exact))
        assert errs[2] <= errs[0]
        assert all(e <= pitch_bound for e, pitch_bound in zip(errs, (4e-3, 2e-3, 1e-3)))

    @pytest.mark.slow
    def test_agreement_on_randomized_cases(self, family):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            sample = rng.poisson(rng.uniform(2.0, 6.0), rng.integers(30, 80))
            if sample.max() == 0:
                sample[0] = 1
            while True:
                beta = rng.uniform(0.0, 1.0)
                gamma = rng.uniform(-1.0, 2.0)
                if derive_exponents(beta, gamma)[0] > 0.05:
                    break
            r_n = empirical_frequencies(sample)
            p = TiltParams(beta, gamma)
            fast = minimize_lsd(r_n, family, p)
            oracle = refined_grid_argmin(r_n, family, p, *search_bracket(r_n))
            assert fast.theta_hat == pytest.approx(oracle, abs=1e-4), (beta, gamma)

    @pytest.mark.parametrize(
        "lo,hi,pitch", [(1.0, 3.0, 0.0), (1.0, 3.0, -0.1), (3.0, 1.0, 0.1), (2.0, 2.0, 0.1)]
    )
    def test_oracle_rejects_an_empty_grid(self, family, lo, hi, pitch):
        r_n = empirical_frequencies(np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="pitch > 0"):
            oracle_grid_minimize(r_n, family, TiltParams(0.5, 0.1), lo, hi, pitch)


class TestLocationFamilyEquivalence:
    """An integer-shift family reduces minimization to one cross term.

    For f_theta(x) = f0(x - theta) the two outer integrals of the divergence do
    not move with theta, so the minimizer must coincide with the maximizer
    of sum f_theta^B g^A whenever both exponents are positive.
    """

    @staticmethod
    def _base_density():
        # an 11-point core on positions 15..25, floored to stay positive
        core = np.array([1.0, 2.0, 4.0, 7.0, 10.0, 12.0, 10.0, 7.0, 4.0, 2.0, 1.0])
        mass = np.full(61, 1e-9)
        mass[15:26] += core
        return mass / mass.sum()

    def test_minimizer_maximizes_cross_term(self):
        f0 = self._base_density()
        p = TiltParams(0.5, 0.3)  # exp_a = 1.15, exp_b = 0.35, both positive
        rng = np.random.default_rng(17)
        window = np.arange(10, 61)
        shifts = np.arange(0, 11)
        for _ in range(50):
            raw = rng.random(21) + 1e-3
            g_mass = raw / raw.sum()
            g = DiscreteDensity(offset=20, mass=g_mass)
            lsd_values = []
            cross_values = []
            for s in shifts:
                f_mass = f0[window - s]
                f = DiscreteDensity(offset=10, mass=f_mass)
                lsd_values.append(lsd(g, f, p))
                f_on_g = f0[g.support - s]
                cross_values.append(np.dot(f_on_g**p.exp_b, g_mass**p.exp_a))
            assert int(np.argmin(lsd_values)) == int(np.argmax(cross_values))
