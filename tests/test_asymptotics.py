"""J/K/xi summaries, influence functions, and bias-approximation curves."""

import numpy as np
import pytest

from lsdiv import (
    DivergenceInfiniteError,
    PoissonFamily,
    TiltParams,
    bias_curves,
    density_vector,
    empirical_frequencies,
    general_jk,
    if_first_order,
    if_second_order,
    minimize_lsd,
    model_jkxi,
    moments_c_d,
    point_contaminated,
)
from lsdiv.estimation import estimating_equation_residual
from lsdiv.hypotest import second_order_test_influence
from helpers import (
    first_order_if_oracle,
    general_if1_oracle,
    general_jk_oracle,
    jones_alpha1_sandwich,
    mixture_density,
    second_order_if_oracle,
    solve_contaminated_theta,
)
from test_estimation import SOLVER_TILTS


class TestModelJkxi:
    @pytest.mark.parametrize("theta", [2.0, 4.0])
    def test_beta_zero_fisher_efficiency(self, family, theta):
        s = model_jkxi(family, theta, 0.0)
        assert s.j == pytest.approx(1.0 / theta, abs=1e-10)
        assert s.k == pytest.approx(1.0 / theta, abs=1e-10)
        assert s.sandwich == pytest.approx(theta, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_xi_vanishes(self, family, beta):
        assert abs(model_jkxi(family, 4.0, beta).xi) <= 1e-12

    def test_brute_force_wide_window(self, family):
        theta, beta = 4.0, 0.5
        s = model_jkxi(family, theta, beta)
        x = np.arange(0, 301)
        f = family.density(theta, x)
        u = family.score(theta, x)
        fb = f ** (1.0 + beta)
        af, bf = float(np.dot(fb, u)), float(fb.sum())
        w = bf * u - af
        j = float(np.dot(w * u, fb))
        xi = float(np.dot(w, fb))
        k = float(np.dot(w**2, f ** (1.0 + 2.0 * beta))) - xi**2
        assert s.j == pytest.approx(j, abs=1e-10)
        assert s.k == pytest.approx(k, abs=1e-10)

    def test_k_nonnegative(self, family):
        for beta in (0.0, 0.3, 0.7, 1.0):
            assert model_jkxi(family, 4.0, beta).k >= 0.0

    @pytest.mark.parametrize("theta", [2.0, 4.0])
    def test_beta_one_is_jones_alpha1_sandwich(self, family, theta):
        # beta = 1 is the alpha = 1 logarithmic density power divergence
        s = model_jkxi(family, theta, 1.0)
        assert s.sandwich == pytest.approx(jones_alpha1_sandwich(theta), abs=1e-9)


class TestGeneralJk:
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
    def test_reduces_to_model_at_the_model(self, family, gamma):
        beta = 0.3
        g = density_vector(family, 4.0, 1e-12)
        general = general_jk(g, family, 4.0, TiltParams(beta, gamma))
        model = model_jkxi(family, 4.0, beta)
        assert general.j == pytest.approx(model.j, abs=1e-10)
        assert general.k == pytest.approx(model.k, abs=1e-10)

    def test_positive_j_at_minimizer(self, family):
        rng = np.random.default_rng(8)
        p = TiltParams(0.4, 0.2)
        for _ in range(10):
            eps = rng.uniform(0.02, 0.15)
            theta_c = rng.uniform(8.0, 14.0)
            g = mixture_density(family, 4.0, theta_c, eps)
            theta_g = minimize_lsd(g, family, p).theta_hat
            assert general_jk(g, family, theta_g, p).j > 0.0

    def test_nonpositive_exp_a_rejected(self, family):
        g = density_vector(family, 4.0, 1e-12)
        with pytest.raises(DivergenceInfiniteError):
            general_jk(g, family, 4.0, TiltParams(0.0, -1.0))

    def test_empty_cell_with_half_exp_a_rejected(self, family):
        p = TiltParams(0.0, -0.6)  # A = 0.4: 2A - 1 < 0
        assert general_jk(density_vector(family, 4.0, 1e-12), family, 4.0, p).j > 0.0
        short = density_vector(family, 4.0, 1e-6)  # the model window reaches past it
        sample = empirical_frequencies(np.array([1, 2, 2, 4, 6]))  # empty cells 0, 3, 5
        for g in (short, sample):
            with pytest.raises(DivergenceInfiniteError):
                general_jk(g, family, 4.0, p)
            with pytest.raises(DivergenceInfiniteError):
                if_first_order(2, g, family, 4.0, p)

    def test_influence_outside_support_rejected(self, family):
        g = empirical_frequencies(np.array([1, 2, 2, 4, 6]))
        for y in (0, 3, 7, 50):
            with pytest.raises(DivergenceInfiniteError):
                if_first_order(y, g, family, 3.0, TiltParams(0.4, 0.3))

    @pytest.mark.parametrize("tilt", [(0.0, 0.0), (0.4, 0.5)])
    def test_model_case_below_support_rejected(self, family, tilt):
        # y < 0 has zero model density, as a point outside g has in the
        # general case
        p = TiltParams(*tilt)
        for call in (
            lambda: if_first_order(-1, None, family, 4.0, p),
            lambda: if_second_order(-1, family, 4.0, p),
            lambda: second_order_test_influence(-1, family, 4.0, p),
            lambda: bias_curves(-1, family, 4.0, p, [0.0, 0.05]),
        ):
            with pytest.raises(DivergenceInfiniteError, match="outside the support"):
                call()


def oracle_cases(family):
    """(name, g, theta) for the mixture, model and empirical densities, each
    at its best-fitting theta under every tilt of ``SOLVER_TILTS``."""
    rng = np.random.default_rng(21)
    sample = np.concatenate([rng.poisson(4.0, 45), [12, 12, 13, 15, 20]])
    densities = {
        "mixture": mixture_density(family, 4.0, 12.0, 0.1),
        "model": density_vector(family, 4.0, 1e-12),
        "empirical": empirical_frequencies(sample),
    }
    for beta, gamma in SOLVER_TILTS:
        p = TiltParams(beta, gamma)
        for name, g in densities.items():
            yield pytest.param(g, minimize_lsd(g, family, p).theta_hat, p,
                               id=f"{name}-{beta:g}-{gamma:g}")


@pytest.mark.parametrize("g,theta,p", list(oracle_cases(PoissonFamily())))
class TestGeneralFormsAgainstFullWindowOracle:
    """The occupied-cell J, K, sandwich and IF1 against the same quantities
    summed out on the union window."""

    def test_j_k_sandwich(self, family, g, theta, p):
        s = general_jk(g, family, theta, p)
        j, k, _, sandwich = general_jk_oracle(g, theta, p)
        assert s.j == pytest.approx(j, rel=1e-10, abs=0)
        assert s.k == pytest.approx(k, rel=1e-10, abs=0)
        assert s.sandwich == pytest.approx(sandwich, rel=1e-10, abs=0)

    def test_if1(self, family, g, theta, p):
        for y in (0, 2, 7, 12):
            if g.mass[y - g.offset] > 0:
                assert if_first_order(y, g, family, theta, p) == pytest.approx(
                    general_if1_oracle(y, g, theta, p), rel=1e-10, abs=0
                )


class TestFirstOrderInfluence:
    def test_beta_zero_is_centred_identity(self, family):
        assert if_first_order(12, None, family, 4.0, TiltParams(0.0, 0.7)) == pytest.approx(
            8.0, abs=1e-8
        )
        for y in (0, 3, 9):
            assert if_first_order(y, None, family, 4.0, TiltParams(0.0, 0.0)) == pytest.approx(
                y - 4.0, abs=1e-8
            )

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_model_case_gamma_free(self, family, beta):
        values = [
            if_first_order(12, None, family, 4.0, TiltParams(beta, gm))
            for gm in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert max(values) - min(values) <= 1e-10

    def test_redescending_for_positive_beta(self, family):
        p = TiltParams(0.5, 0.0)
        assert abs(if_first_order(50, None, family, 4.0, p)) < 1e-4
        assert abs(if_first_order(60, None, family, 4.0, p)) < abs(
            if_first_order(12, None, family, 4.0, p)
        )

    def test_unbounded_at_beta_zero(self, family):
        p = TiltParams(0.0, 0.0)
        ratio = if_first_order(80, None, family, 4.0, p) / if_first_order(
            40, None, family, 4.0, p
        )
        assert ratio == pytest.approx(2.0, abs=0.15)

    def test_general_case_matches_model_at_the_model(self, family):
        g = density_vector(family, 4.0, 1e-12)
        for beta, gamma in [(0.0, 0.0), (0.3, 0.5), (0.5, -0.5)]:
            p = TiltParams(beta, gamma)
            general = if_first_order(12, g, family, 4.0, p)
            model = if_first_order(12, None, family, 4.0, p)
            assert general == pytest.approx(model, rel=1e-8, abs=1e-10)

    def test_model_case_against_contamination_oracle(self, family):
        for beta, gamma in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.3, -0.3)]:
            p = TiltParams(beta, gamma)
            closed = if_first_order(12, None, family, 4.0, p)
            oracle = first_order_if_oracle(12, p)
            assert closed == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    def test_general_case_against_contamination_oracle(self, family):
        # true density: contaminated mixture; functional perturbed at y
        p = TiltParams(0.4, 0.3)
        g = mixture_density(family, 4.0, 12.0, 0.08)
        theta_g = minimize_lsd(g, family, p, search_with_tight_tol()).theta_hat
        closed = if_first_order(9, g, family, theta_g, p)
        step = 1e-6

        def solved(eps):
            ge = point_contaminated(g, 9, eps)
            lo, hi = theta_g - 1.0, theta_g + 1.0
            from scipy.optimize import brentq

            return brentq(
                lambda t: estimating_equation_residual(t, ge, family, p), lo, hi, xtol=1e-14
            )

        oracle = (solved(step) - solved(-step)) / (2.0 * step)
        assert closed == pytest.approx(oracle, rel=1e-4)


def search_with_tight_tol():
    from lsdiv import SearchConfig

    return SearchConfig(tol_theta=1e-10)


class TestSecondOrderInfluence:
    def test_vanishes_at_likelihood_disparity(self, family):
        assert abs(if_second_order(12, family, 4.0, TiltParams(0.0, 0.0))) <= 1e-6

    def test_matches_contamination_oracle_grid(self, family):
        for beta in (0.0, 0.5, 1.0):
            for gamma in (0.0, 0.5, 1.0):
                p = TiltParams(beta, gamma)
                closed = if_second_order(12, family, 4.0, p)
                oracle = second_order_if_oracle(12, p)
                assert closed == pytest.approx(oracle, rel=1e-3, abs=1e-4), (beta, gamma)

    def test_gamma_sensitivity(self, family):
        # the second order sees the gamma-dependence the first order misses
        base = if_second_order(12, family, 4.0, TiltParams(0.0, 0.0))
        moved = if_second_order(12, family, 4.0, TiltParams(0.0, 0.5))
        assert abs(moved - base) > 10.0 * 1e-3

    def test_one_moment_evaluation(self, family, monkeypatch):
        # T' comes from the moments the second order already holds
        import lsdiv.asymptotics

        betas = []

        def counted(family, theta, beta, *args):
            betas.append(beta)
            return moments_c_d(family, theta, beta, *args)

        monkeypatch.setattr(lsdiv.asymptotics, "moments_c_d", counted)
        if_second_order(12, family, 4.0, TiltParams(0.5, 0.3))
        assert betas == [0.5]


class TestBiasCurves:
    def test_zero_at_zero(self, family):
        curve = bias_curves(12, family, 4.0, TiltParams(0.3, 0.0), [0.0, 0.05, 0.1])
        assert curve.first_order[0] == 0.0
        assert curve.second_order[0] == 0.0

    def test_structure(self, family):
        eps = np.linspace(0.0, 0.1, 11)
        p = TiltParams(0.3, 0.5)
        curve = bias_curves(12, family, 4.0, p, eps)
        tp = if_first_order(12, None, family, 4.0, p)
        tpp = if_second_order(12, family, 4.0, p)
        np.testing.assert_allclose(curve.first_order, eps * tp, rtol=1e-12)
        np.testing.assert_allclose(
            curve.second_order - curve.first_order, 0.5 * eps**2 * tpp, rtol=1e-12
        )
        with np.errstate(invalid="ignore"):
            np.testing.assert_allclose(
                curve.adequacy_ratio, 1.0 + 0.5 * (tpp / tp) * eps, rtol=1e-12
            )

    def test_second_order_beats_first_order(self, family):
        # quadratic prediction closer to the solved contaminated bias
        p = TiltParams(0.3, 0.0)
        eps = 0.05
        true_bias = solve_contaminated_theta(eps, 12, p) - 4.0
        curve = bias_curves(12, family, 4.0, p, [eps])
        err_first = abs(curve.first_order[0] - true_bias)
        err_second = abs(curve.second_order[0] - true_bias)
        assert err_second < err_first

    def test_one_moment_evaluation(self, family, monkeypatch):
        # T' and T'' come from one set of moments at beta
        import lsdiv.asymptotics

        betas = []

        def counted(family, theta, beta, *args):
            betas.append(beta)
            return moments_c_d(family, theta, beta, *args)

        monkeypatch.setattr(lsdiv.asymptotics, "moments_c_d", counted)
        bias_curves(12, family, 4.0, TiltParams(0.5, 0.3), [0.0, 0.05, 0.1])
        assert betas == [0.5]

    def test_linear_at_likelihood_disparity(self, family):
        curve = bias_curves(12, family, 4.0, TiltParams(0.0, 0.0), np.linspace(0, 0.1, 6))
        assert np.max(np.abs(curve.second_order - curve.first_order)) <= 1e-6


class TestPointContaminated:
    def test_mixture_mass(self, family):
        f = density_vector(family, 4.0, 1e-12)
        g = point_contaminated(f, 12, 0.1)
        assert g.total == pytest.approx(0.9 * f.total + 0.1, abs=1e-12)
        idx = 12 - g.offset
        assert g.mass[idx] == pytest.approx(0.9 * f.mass[12 - f.offset] + 0.1, abs=1e-15)

    def test_window_extends_to_cover_y(self, family):
        f = density_vector(family, 2.0, 1e-6)
        g = point_contaminated(f, 40, 0.05)
        assert g.offset + g.mass.size > 40
