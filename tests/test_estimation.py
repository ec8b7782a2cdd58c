"""Minimum-divergence estimation: frequencies, optimizer, oracle, residual."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
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
from lsdiv.estimation import (
    _N_SCAN,
    _REFINE_HALF,
    _SCAN_BLOCK,
    _TOL_THETA,
    _FitContext,
    _FitStack,
    _SamplePart,
    _fit_part,
    _golden_section,
    _grids,
    _model_window_end,
    _residual_root,
    _residual_roots,
    _safeguard,
    _scan_model_terms,
)
from lsdiv.simulate import ESTIMATION_BETA_GRID, GAMMA_GRID, replication_rng

from helpers import scan_oracle


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

    def test_result_fields_are_python_scalars(self, family):
        sample = np.random.default_rng(9).poisson(4.0, 60)
        result = minimize_lsd(empirical_frequencies(sample), family, TiltParams(0.3, 0.5))
        assert type(result.theta_hat) is float
        assert type(result.objective) is float
        assert type(result.residual) is float


# B > 0, B < 0, and B = 0 at beta = 0 and at beta > 0
SCAN_TILTS = [(0.2, -0.5), (0.2, 1.0), (0.0, 0.0), (0.5, 1.0)]


class TestBatchedScan:
    """The coarse scan evaluates its grid in blocks of rows, adding each
    row's cells one after another: every value must equal the in-order
    oracle bit for bit, whatever part or block holds the row, and the
    one-theta objective (which sums the cells pairwise) within rounding,
    with the same best point."""

    @pytest.mark.parametrize(
        "theta,n,n_contam",
        [(4.0, 50, 5), (100.0, 200, 0)],  # the estimation table's and a wide window
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
        lo, hi = max(1e-3, r_n.mean() / 5.0), 5.0 * r_n.mean() + 5.0
        part = _SamplePart.from_densities([r_n], family)
        p = TiltParams(beta, gamma)
        _scan_model_terms.cache_clear()
        for _ in ("cold", "warm"):
            log_sg, values = part.scan_objective(p)
            grid = part.grid[0]
            np.testing.assert_array_equal(grid, np.linspace(lo, hi, _N_SCAN))
            assert values.shape == (1, _N_SCAN)
            ctx = _FitContext(part, 0, p, log_sg[0])
            pointwise = np.array([ctx.objective(t) for t in grid])
            np.testing.assert_allclose(values[0], pointwise, rtol=1e-14, atol=0.0)
            assert values[0].argmin() == pointwise.argmin()
        assert _scan_model_terms.cache_info().hits == 1

    @pytest.mark.parametrize("beta,gamma", SCAN_TILTS)
    def test_scan_equals_in_order_oracle(self, family, beta, gamma):
        # the first rows of an estimation-table chunk (about 15 cells) and
        # of a wide one (about 47), each padded to its chunk's widest row
        p = TiltParams(beta, gamma)
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            values = part.scan_objective(p)[1]
            for k in range(8):
                np.testing.assert_array_equal(values[k], scan_oracle(part, k, p))

    @pytest.mark.parametrize("beta,gamma", SCAN_TILTS)
    def test_row_scan_same_in_any_part_and_block(self, family, beta, gamma):
        # each row alone, in a 32-row chunk of either table, and in a part
        # of both shapes and single-cell rows that spans many blocks (a
        # block holds at most two of its rows)
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
        assert parts[2][0].logf_scan[0].size * 3 > _SCAN_BLOCK
        assert sorted(parts[2][0].cells)[:3] == [1, 1, 1]
        for part, samples in parts:
            values = part.scan_objective(p)[1]
            for k, sample in enumerate(samples):
                one = _SamplePart.from_densities([empirical_frequencies(sample)], family)
                np.testing.assert_array_equal(values[k], one.scan_objective(p)[1][0])


class TestScanMemo:
    """The scan's model terms and the fit's window end are memoised per
    process; an entry may be shared only by fits whose values it equals."""

    @staticmethod
    def fit(sample, beta=0.5, gamma=0.0):
        return minimize_lsd(
            empirical_frequencies(np.array(sample)), PoissonFamily(), TiltParams(beta, gamma)
        )

    def test_same_mean_other_data_end_gets_own_entry(self, family):
        # both means are 4 (bracket [0.8, 25]), but the outlier 102 lies
        # beyond the model window at the bracket top (69 cells)
        p = TiltParams(0.5, 0.0)
        _scan_model_terms.cache_clear()
        for sample, length in (([4] * 50, 69), ([2] * 49 + [102], 103)):
            part = _SamplePart.from_densities([empirical_frequencies(np.array(sample))], family)
            assert (part.lo, part.hi, part.length) == ([0.8], [25.0], [length])
            log_sg, values = part.scan_objective(p)
            ctx = _FitContext(part, 0, p, log_sg[0])
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
    """The fit's context and the scan cell [g_lo, g_hi] around its best grid point."""
    part = _SamplePart.from_densities([r_n], PoissonFamily())
    log_sg, g_lo, g_hi, _ = part.scan(p)
    return _FitContext(part, 0, p, log_sg[0]), g_lo[0], g_hi[0]


class TestResidualRoot:
    """The fit solves the residual's root on the scan cell; golden section is
    only the safeguard for a cell without a sign change."""

    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_matches_golden_section_then_refinement(self, family, beta, gamma):
        # Golden section alone resolves theta only to ~1e-8 * theta (the
        # objective is flat to double precision there), so it is refined on
        # the residual within +-1e-5, as the two-stage search did.
        p = TiltParams(beta, gamma)
        for sample in table_shaped_samples():
            r_n = empirical_frequencies(sample)
            fit = minimize_lsd(r_n, family, p)
            ctx, g_lo, g_hi = scan_cell(r_n, p)
            theta, _, _ = _golden_section(ctx.objective, g_lo, g_hi)
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
        scan, objective, residual = _SamplePart.scan, _FitContext.objective, _FitContext.residual

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
        monkeypatch.setattr(_FitContext, "objective", counted_objective)
        monkeypatch.setattr(_FitContext, "residual", counted_residual)
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
                assert calls["residual"] <= 20
                assert fit.iterations <= calls["residual"]

    # The two-stage search's results on the samples whose scan cell has no
    # sign change; the safeguard must reproduce them exactly.
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
        ("outlier", 0.0, -0.5): (0.12, False),
        ("outlier", 0.0, 1.0): (7.9999999975767055, False),
        ("outlier", 0.5, -0.5): (0.12, False),
        ("outlier", 0.5, 0.0): (0.12, False),
        ("outlier", 1.0, -0.5): (0.12, False),
        ("outlier", 1.0, 0.0): (0.12, False),
        ("outlier", 1.0, 1.0): (0.12, False),
    }

    @pytest.mark.parametrize("key", sorted(FALLBACK))
    def test_edge_cells_fall_back_unchanged(self, family, key):
        name, beta, gamma = key
        sample = [0] * 50 if name == "zeros" else [0] * 49 + [30]
        fit = minimize_lsd(empirical_frequencies(np.array(sample)), family, TiltParams(beta, gamma))
        assert (fit.theta_hat, fit.converged) == self.FALLBACK[key]

    class StandInContext:
        """A fit context whose objective is least at 2 and whose residual
        falls through zero at ``root``: no table sample searched gives the
        safeguard a residual sign change next to its golden-section result."""

        def __init__(self, root):
            self.root = root

        def objective(self, theta):
            return (theta - 2.0) ** 2

        def residual(self, theta):
            return self.root - theta

    @pytest.mark.parametrize("offset", [3e-6, -3e-6])
    def test_safeguard_refines_on_a_nearby_residual_root(self, offset):
        ctx = self.StandInContext(2.0 + offset)
        golden, bracket, iterations = _golden_section(ctx.objective, 1.5, 2.5)
        assert abs(golden - 2.0) <= _TOL_THETA
        theta_hat, res, fit_bracket, fit_iterations = _safeguard(ctx, 1.0, 3.0, 1.5, 2.5)
        assert abs(theta_hat - ctx.root) <= 1e-12 and abs(res) <= 1e-12
        # the bracket is the refinement's, which holds theta_hat, and the
        # iterations are golden section's
        r_lo, r_hi = golden - _REFINE_HALF, golden + _REFINE_HALF
        root = _residual_root(ctx.residual, r_lo, ctx.residual(r_lo), r_hi, ctx.residual(r_hi))
        assert fit_bracket[0] <= theta_hat <= fit_bracket[1]
        assert (fit_bracket, fit_iterations) == (root[2], iterations)

    def test_safeguard_keeps_golden_result_without_a_nearby_root(self):
        ctx = self.StandInContext(2.0 + 3e-5)
        golden, bracket, iterations = _golden_section(ctx.objective, 1.5, 2.5)
        assert _safeguard(ctx, 1.0, 3.0, 1.5, 2.5) == (
            golden, ctx.residual(golden), bracket, iterations
        )


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
        # the window at the bracket top of a mean-300 sample underflows
        densities = table_stacks()[0][:8]
        p = TiltParams(0.5, 0.5)
        fits = minimize_lsd_many(densities[:4] + [empirical_frequencies(np.full(50, 300))]
                                 + densities[4:], family, p)
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
        densities = table_stacks()[0]
        p = TiltParams(0.4, 2.0)
        for r_n, fit in zip(densities, minimize_lsd_many(densities, family, p)):
            lo, hi = fit.bracket
            assert lo <= fit.theta_hat <= hi
            assert 0.0 < hi - lo <= 1e-10 * max(1.0, fit.theta_hat)
            ctx = scan_cell(r_n, p)[0]
            assert ctx.residual(lo) >= 0.0 >= ctx.residual(hi)

    def test_exact_zero_gives_point_bracket(self):
        # f = c - theta^2 row by row; the first step bisects [1, 3], which
        # lands on the root of the middle row only
        c = np.array([2.0, 4.0, 5.0])
        x1, x2 = np.full(3, 1.0), np.full(3, 3.0)

        def fun(theta):
            return c - theta**2

        root, res, lo, hi, iterations = _residual_roots(
            fun, x1, fun(x1), x2, fun(x2), np.ones(3, dtype=bool)
        )
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
        # the highest theta the row can reach: a root in its scan cell or a
        # safeguard result refined at most _REFINE_HALF above the cell.
        family, p = PoissonFamily(), TiltParams(*tilt)
        rng = np.random.default_rng(seed)
        part = _SamplePart.from_samples(rng.poisson(means, size=(n, len(means))).T, family)
        _, _, g_hi, _ = part.scan(p)
        tops = np.minimum(part.hi, g_hi + _REFINE_HALF)
        stacks, evaluated = [], []
        init, residual, objective = _FitStack.__init__, _FitStack.residual, _FitStack.objective

        def recorded_init(self, *args):
            init(self, *args)
            stacks.append(self)

        def recorded(method):
            def call(self, theta):
                evaluated.append(theta)
                return method(self, theta)
            return call

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_FitStack, "__init__", recorded_init)
            patch.setattr(_FitStack, "residual", recorded(residual))
            patch.setattr(_FitStack, "objective", recorded(objective))
            _fit_part(part, p)
        (stack,) = stacks
        ends = [part.x_pos[k, : part.cells[k]].max() + 1 for k in range(len(part.index))]
        assert stack.x.size >= max(ends)
        assert stack.x.size >= max(family.support_window(top)[1] for top in tops)
        assert all((theta <= tops).all() for theta in evaluated)

    def test_evaluation_budget(self, family, monkeypatch):
        # The amortisation: one stacked residual pass per step for the whole
        # stack, where minimize_lsd makes 7 to 10 residual calls per fit.
        calls = {"residual": 0, "objective": 0}
        residual, objective = _FitStack.residual, _FitStack.objective

        def counted_residual(self, theta):
            calls["residual"] += 1
            return residual(self, theta)

        def counted_objective(self, theta):
            calls["objective"] += 1
            return objective(self, theta)

        monkeypatch.setattr(_FitStack, "residual", counted_residual)
        monkeypatch.setattr(_FitStack, "objective", counted_objective)
        for seed in (11, 12):
            densities = table_stacks(seed)[0]
            for beta, gamma in SOLVER_TILTS:
                calls.update(residual=0, objective=0)
                fits = minimize_lsd_many(densities, family, TiltParams(beta, gamma))
                assert len(fits) == 30 and all(fit.converged for fit in fits)
                assert calls["residual"] <= 20
                assert calls["objective"] == 1
                assert max(fit.iterations for fit in fits) <= calls["residual"] - 2


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
                np.testing.assert_array_equal(part.logf_scan[k, :m], one.logf_scan[0])
                for beta, gamma in SOLVER_TILTS[:3]:
                    p = TiltParams(beta, gamma)
                    got, want = part.scan_objective(p), one.scan_objective(p)
                    assert got[0][k] == want[0][0]
                    np.testing.assert_array_equal(got[1][k], want[1][0])

    def test_log_sum_g_kept_per_beta(self, family):
        # each row's log sum g^(1+beta) is computed once per beta, as each
        # scan computed it for itself, and read by the scans at every gamma
        for samples in chunk_samples(0):
            part = _SamplePart.from_samples(samples, family)
            for beta in (0.0, 0.4, 1.0):
                kept = part.log_sum_g(1.0 + beta)
                rows = zip(part.logg, part.cells)
                np.testing.assert_array_equal(
                    kept, [_lse((1.0 + beta) * logg[:m]) for logg, m in rows]
                )
                for gamma in (-0.5, 0.0, 1.0):
                    np.testing.assert_array_equal(part.scan(TiltParams(beta, gamma))[0], kept)
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
            _, g_lo, g_hi, edge = part.scan(p)
            fits = minimize_lsd_many(densities, family, p)
            for k, (r_n, fit) in enumerate(zip(densities, fits)):
                one = _SamplePart.from_densities([r_n], family)
                _, o_lo, o_hi, o_edge = one.scan(p)
                assert (g_lo[k], g_hi[k], edge[k]) == (o_lo[0], o_hi[0], o_edge[0])
                expected = minimize_lsd(r_n, family, p)
                assert abs(fit.theta_hat - expected.theta_hat) <= _TOL_THETA
                assert fit.converged == expected.converged

    def test_nonpositive_exp_a_gives_each_row_its_own_error(self, family):
        densities = [empirical_frequencies(sample) for sample in chunk_samples(0)[0][:6]]
        densities += [empirical_frequencies(np.array(d)) for d in DEGENERATE]
        densities += [DiscreteDensity(offset=3, mass=densities[0].mass)]
        densities += [empirical_frequencies(np.full(50, 300))]  # no window at all
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
        samples[2] = 300  # the window at the bracket top underflows
        part = _SamplePart.from_samples(samples, family)
        assert isinstance(part.errors[2], FloatingPointError)
        assert part.index == [0, 1, 3, 4, 5]
        assert part.x_pos.shape[0] == part.logf_scan.shape[0] == 5


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
        assert values == [6.112725268507475, 0.012403044457515165, -0.7907709216775031]
        part = _SamplePart.from_densities([r_n], family, bracket=(4.0, 4.0))
        assert _FitContext(part, 0, p).residual(4.0) == values[1]
        assert "grid" not in vars(part) and "logf_scan" not in vars(part)

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
            mean = r_n.mean()
            oracle = refined_grid_argmin(
                r_n, family, p, max(1e-3, mean / 5.0), 5.0 * mean + 5.0
            )
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
