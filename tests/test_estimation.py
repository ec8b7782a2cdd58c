"""Minimum-divergence estimation: frequencies, optimizer, oracle, residual."""

import numpy as np
import pytest
from scipy.optimize import brentq

from lsdiv import (
    Contamination,
    ContaminationScheme,
    DiscreteDensity,
    DivergenceInfiniteError,
    PoissonFamily,
    SearchConfig,
    TiltParams,
    contaminated_sample,
    density_vector,
    derive_exponents,
    empirical_frequencies,
    estimating_equation_residual,
    lsd,
    minimize_lsd,
    oracle_grid_minimize,
)
from lsdiv.estimation import _FitContext, _golden_section
from lsdiv.simulate import ESTIMATION_BETA_GRID, GAMMA_GRID, replication_rng


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


class TestBatchedScan:
    """The coarse scan evaluates its whole grid as one array pass; every
    value must equal the one-theta evaluation bit for bit."""

    @pytest.mark.parametrize(
        "theta,n,n_contam",
        [(4.0, 50, 5), (100.0, 200, 0)],  # the estimation table's and a wide window
    )
    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.0, 0.0), (0.0, 0.5), (0.2, 1.0), (0.5, 0.0), (0.2, -0.5), (1.0, 0.0)],
    )
    def test_grid_pass_matches_pointwise(self, family, theta, n, n_contam, beta, gamma):
        rng = np.random.default_rng(17)
        sample = rng.poisson(theta, n)
        sample[:n_contam] = 12
        r_n = empirical_frequencies(sample)
        lo, hi = max(1e-3, r_n.mean() / 5.0), 5.0 * r_n.mean() + 5.0
        p = TiltParams(beta, gamma)
        ctx = _FitContext(r_n, family, p, 1e-12, (lo, 0.5 * (lo + hi), hi))
        grid = np.linspace(lo, hi, SearchConfig().n_scan)
        values = ctx.objective(grid[:, None])
        assert values.shape == grid.shape
        np.testing.assert_array_equal(values, [ctx.objective(t) for t in grid])


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
    lo, hi = max(1e-3, r_n.mean() / 5.0), 5.0 * r_n.mean() + 5.0
    ctx = _FitContext(r_n, PoissonFamily(), p, 1e-12, (lo, 0.5 * (lo + hi), hi))
    grid = np.linspace(lo, hi, SearchConfig().n_scan)
    i_best = int(np.argmin(ctx.objective(grid[:, None])))
    return ctx, grid[i_best - 1], grid[i_best + 1]


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
            theta, _, _ = _golden_section(ctx.objective, g_lo, g_hi, 1e-8, 200)
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
        objective, residual = _FitContext.objective, _FitContext.residual

        def counted_objective(self, theta):
            calls["scan" if np.ndim(theta) else "objective"] += 1
            return objective(self, theta)

        def counted_residual(self, theta):
            calls["residual"] += 1
            return residual(self, theta)

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
            g = DiscreteDensity(offset=20, mass=g_mass, tail_bound=0.0)
            lsd_values = []
            cross_values = []
            for s in shifts:
                f_mass = f0[window - s]
                f = DiscreteDensity(offset=10, mass=f_mass, tail_bound=0.5)
                lsd_values.append(lsd(g, f, p))
                f_on_g = f0[g.support - s]
                cross_values.append(np.dot(f_on_g**p.exp_b, g_mass**p.exp_a))
            assert int(np.argmin(lsd_values)) == int(np.argmax(cross_values))
