"""Hypothesis tests: statistics, curvature, null law, p-values, test IF."""

import json
import warnings

import numpy as np
import pytest

from lsdiv import (
    Psi,
    SupportAlignmentError,
    TiltParams,
    gsd,
    curvature_a_beta,
    density_vector,
    if_first_order,
    model_jkxi,
    moments_c_d,
    null_law,
    one_sample_statistic,
    one_sample_test,
    second_order_test_influence,
    two_sample_statistic,
    weighted_chisq_pvalue,
)
from lsdiv.asymptotics import SingularityError
from lsdiv.hypotest import divergence_between_fits, model_pair_densities
from helpers import curvature_fd_oracle, divergence_between_fits_oracle
from test_estimation import SOLVER_TILTS


class TestOneSampleStatistic:
    def test_zero_at_null_population(self, family):
        p = TiltParams(0.0, 0.0)
        assert 2.0 * 3 * divergence_between_fits(family, 2.0, 2.0, p) == 0.0
        w = one_sample_statistic(np.array([2, 2, 2]), family, 2.0, p)
        assert w == pytest.approx(0.0, abs=1e-10)

    def test_kl_oracle_at_likelihood_disparity(self, family):
        # W = 2n * LSD(f_thetahat, f_theta0), here at thetahat = 2.2
        w = 2.0 * 50 * divergence_between_fits(family, 2.2, 2.0, TiltParams(0.0, 0.0))
        x = np.arange(0, 60)
        f_hat = family.density(2.2, x)
        f0 = family.density(2.0, x)
        kl = float(np.sum(f_hat * np.log(f_hat / f0)))
        assert w == pytest.approx(100.0 * kl, abs=1e-8)

    def test_gamma_invariant_at_beta_one(self, family):
        values = [
            2.0 * 8 * divergence_between_fits(family, 2.4, 2.0, TiltParams(1.0, gm))
            for gm in (-1.0, 0.0, 2.0)
        ]
        assert max(values) - min(values) <= 1e-10

    def test_nonnegative_across_grid(self, family):
        sample = np.array([0, 1, 1, 2, 3, 5, 2, 2])
        for beta, gamma in [(0.0, 0.0), (0.3, 0.5), (0.7, -0.5), (1.0, 1.0)]:
            w = one_sample_statistic(sample, family, 2.0, TiltParams(beta, gamma))
            assert w >= 0.0


class TestCurvature:
    def test_fisher_information_at_likelihood_disparity(self, family):
        a = curvature_a_beta(family, 2.0, TiltParams(0.0, 0.0))
        assert a == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.5, 0.5), (0.8, -0.3)])
    def test_nonnegative(self, family, beta, gamma):
        assert curvature_a_beta(family, 2.0, TiltParams(beta, gamma)) >= 0.0

    def test_gamma_invariant_at_beta_one(self, family):
        values = [
            curvature_a_beta(family, 2.0, TiltParams(1.0, gm)) for gm in (-1.0, 0.0, 2.0)
        ]
        assert max(values) - min(values) <= 1e-8

    @pytest.mark.parametrize("theta0", [0.5, 2.0, 4.0, 10.0])
    @pytest.mark.parametrize(
        "beta,gamma",
        [
            (0.0, 0.0),  # B = 0
            (0.5, 1.0),  # B = 0 at beta > 0
            (0.5, -2.0),  # A = 0
            (0.2, 1.0),  # B < 0
            (0.2, -2.0),  # A < 0
            (0.4, 0.5),
            (0.8, -0.5),
            (1.0, 0.0),
        ],
    )
    def test_matches_finite_difference_oracle(self, family, theta0, beta, gamma):
        p = TiltParams(beta, gamma)
        assert curvature_a_beta(family, theta0, p) == pytest.approx(
            curvature_fd_oracle(theta0, p), rel=1e-8
        )

    def test_closed_form_makes_no_divergence_call(self, family, monkeypatch):
        def refuse(*args):
            raise AssertionError("curvature_a_beta evaluated lsd")

        monkeypatch.setattr("lsdiv.divergence.lsd", refuse)
        monkeypatch.setattr("lsdiv.hypotest.divergence_between_fits", refuse)
        monkeypatch.setattr("lsdiv.hypotest._lsd_from_logs", refuse)
        assert curvature_a_beta(family, 4.0, TiltParams(0.5, 0.3)) > 0.0


class TestNullLaw:
    @pytest.mark.parametrize("theta0", [2.0, 4.0])
    def test_unit_eigenvalue_at_likelihood_disparity(self, family, theta0):
        zeta = null_law(family, theta0, TiltParams(0.0, 0.0))
        assert type(zeta) is float
        assert zeta == pytest.approx(1.0, abs=1e-5)

    def test_gamma_invariant_at_beta_one(self, family):
        values = [
            null_law(family, 2.0, TiltParams(1.0, gm)) for gm in (-1.0, 0.0, 2.0)
        ]
        assert max(values) - min(values) <= 1e-8

    @pytest.mark.parametrize("theta0", [0.5, 4.0])
    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.5, 0.3), (1.0, -1.0)])
    def test_weight_is_curvature_times_sandwich(self, family, theta0, beta, gamma):
        p = TiltParams(beta, gamma)
        summary = model_jkxi(family, theta0, beta)
        zeta = curvature_a_beta(family, theta0, p) * summary.k / summary.j**2
        assert null_law(family, theta0, p) == zeta

    def test_degenerate_law_is_zero(self, family, monkeypatch):
        monkeypatch.setattr("lsdiv.hypotest._curvature", lambda c, beta: 1e-13)
        assert null_law(family, 4.0, TiltParams(0.4, 0.5)) == 0.0

    def test_moments_at_beta_and_two_beta_only(self, family, monkeypatch):
        import lsdiv.hypotest

        betas = []

        def counted(family, theta, beta, *args):
            betas.append(beta)
            return moments_c_d(family, theta, beta, *args)

        monkeypatch.setattr(lsdiv.hypotest, "moments_c_d", counted)
        null_law(family, 4.0, TiltParams(0.4, 0.5))
        assert betas == [0.4, 0.8]


class TestWeightedChisqPvalue:
    def test_zero_statistic(self):
        assert weighted_chisq_pvalue(0.0, 1.0) == 1.0
        assert weighted_chisq_pvalue(0.0, 0.0) == 1.0

    def test_single_eigenvalue_closed_form(self):
        p = weighted_chisq_pvalue(3.841459, 1.0)
        assert type(p) is float
        assert p == pytest.approx(0.05, abs=1e-6)

    def test_scale_equivariance(self):
        p1 = weighted_chisq_pvalue(3.841459, 1.0)
        p2 = weighted_chisq_pvalue(7.682918, 2.0)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_degenerate_law_rejected(self):
        with pytest.raises(SingularityError):
            weighted_chisq_pvalue(1.0, 0.0)

    def test_matches_scipy_chi2_tail(self):
        # erfc(sqrt(x / 2)) against scipy's chi-square(1) tail: both are off
        # the exact tail by a few 1e-14 relative at most on this range
        from scipy.stats import chi2

        for ratio in np.geomspace(1e-8, 200.0, 2001):
            p = weighted_chisq_pvalue(float(ratio), 1.0)
            assert type(p) is float
            assert p == pytest.approx(chi2.sf(ratio, df=1), rel=1e-13, abs=0)
        w, zeta = 3.7, 0.83
        assert weighted_chisq_pvalue(w, zeta) == pytest.approx(
            chi2.sf(w / zeta, df=1), rel=1e-13, abs=0
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weighted_chisq_pvalue(-1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_chisq_pvalue(1.0, -0.5)

    @pytest.mark.parametrize("w,zeta", [(np.nan, 1.0), (1.0, np.nan), (0.0, np.nan)])
    def test_nan_input_rejected(self, w, zeta):
        # nan < 0 is false: a sign check alone returned a NaN p-value
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_chisq_pvalue(w, zeta)


class TestOneSampleTest:
    def test_result_shape_and_serialization(self, family):
        rng = np.random.default_rng(4)
        sample = rng.poisson(2.0, 100)
        result = one_sample_test(sample, family, 2.0, TiltParams(0.5, 0.5), levels=(0.05, 0.1))
        assert result.statistic >= 0.0
        assert 0.0 <= result.p_value <= 1.0
        assert result.weight == null_law(family, 2.0, TiltParams(0.5, 0.5)) > 0.0
        assert set(result.reject_at) == {0.05, 0.1}
        payload = json.loads(json.dumps(result.to_dict()))
        assert set(payload) == {"statistic", "weight", "p_value", "reject_at"}
        assert payload["weight"] == result.weight

    @pytest.mark.parametrize("levels", [(1.5,), (0.05, -2.0), (0.0,), (1.0,), (float("nan"),)])
    def test_level_outside_unit_interval_rejected(self, family, levels):
        sample = np.array([1, 2, 2, 3])
        with pytest.raises(ValueError, match="level"):
            one_sample_test(sample, family, 2.0, TiltParams(0.2, 0.0), levels=levels)
        with pytest.raises(ValueError, match="level"):
            two_sample_statistic(sample, sample, family, TiltParams(0.2, 0.0), levels=levels)

    def test_zero_statistic_gives_p_one(self, family):
        sample = np.full(30, 2)  # MLE = 2 exactly at the null
        result = one_sample_test(sample, family, 2.0, TiltParams(0.0, 0.0))
        assert result.statistic == pytest.approx(0.0, abs=1e-10)
        assert result.p_value == pytest.approx(1.0, abs=1e-6)


class TestTwoSample:
    def test_identical_samples(self, family):
        sample = np.array([1, 2, 2, 3, 0, 2, 4, 1, 2, 3])
        result = two_sample_statistic(sample, sample, family, TiltParams(0.3, 0.3))
        assert result.statistic == pytest.approx(0.0, abs=1e-10)
        assert result.p_value == pytest.approx(1.0, abs=1e-6)

    def test_swap_symmetry_where_divergence_is_symmetric(self, family):
        # The statistic inherits the divergence's ordering, so exact swap
        # symmetry only holds where the divergence itself is symmetric:
        # at beta = 1 the exponents are A = B = 1 for every gamma and
        # LSD(g, f) = log sum f^2 - 2 log sum f g + log sum g^2.
        rng = np.random.default_rng(6)
        s1 = rng.poisson(2.0, 60)
        s2 = rng.poisson(2.5, 40)
        p = TiltParams(1.0, 0.0)
        r12 = two_sample_statistic(s1, s2, family, p)
        r21 = two_sample_statistic(s2, s1, family, p)
        assert abs(r12.statistic - r21.statistic) <= 1e-10

    def test_swap_consistency_general(self, family):
        # swapping the samples reverses the argument order of the divergence
        rng = np.random.default_rng(6)
        s1 = rng.poisson(2.0, 60)
        s2 = rng.poisson(2.5, 40)
        p = TiltParams(0.4, 0.2)
        from lsdiv import empirical_frequencies, minimize_lsd

        th1 = minimize_lsd(empirical_frequencies(s1), family, p).theta_hat
        th2 = minimize_lsd(empirical_frequencies(s2), family, p).theta_hat
        scale = 2.0 * 60 * 40 / 100.0
        r21 = two_sample_statistic(s2, s1, family, p)
        assert r21.statistic == pytest.approx(
            scale * divergence_between_fits(family, th2, th1, p), abs=1e-10
        )

    def test_null_law_at_pooled_estimate(self, family):
        from lsdiv import empirical_frequencies, minimize_lsd

        rng = np.random.default_rng(13)
        s1 = rng.poisson(2.0, 50)
        s2 = rng.poisson(2.0, 50)
        p = TiltParams(0.2, 0.1)
        result = two_sample_statistic(s1, s2, family, p)
        pooled = minimize_lsd(empirical_frequencies(np.concatenate([s1, s2])), family, p)
        assert result.weight == null_law(family, pooled.theta_hat, p)
        assert result.weight != null_law(family, 2.0, p)

    def test_empty_sample_rejected(self, family):
        with pytest.raises(ValueError):
            two_sample_statistic(np.array([], dtype=int), np.array([1]), family, TiltParams(0, 0))

    @pytest.mark.parametrize("beta,gamma", SOLVER_TILTS)
    def test_one_call_fits_as_minimize_lsd(self, family, beta, gamma, monkeypatch):
        # the three fits run as one minimize_lsd_many call, each row as
        # minimize_lsd fits it alone, bit for bit
        from lsdiv import empirical_frequencies, hypotest, minimize_lsd

        rng = np.random.default_rng(21)
        s1, s2 = rng.poisson(2.0, 60), rng.poisson(3.5, 40)
        s2[:3] = 17
        p = TiltParams(beta, gamma)
        th1, th2, pooled = (
            minimize_lsd(empirical_frequencies(s), family, p).theta_hat
            for s in (s1, s2, np.concatenate([s1, s2]))
        )
        calls, many = [], hypotest.minimize_lsd_many

        def counted(*args):
            calls.append(args)
            return many(*args)

        monkeypatch.setattr(hypotest, "minimize_lsd_many", counted)
        monkeypatch.setattr(hypotest, "minimize_lsd", None)  # the one-sample fit is not called
        result = two_sample_statistic(s1, s2, family, p)
        assert len(calls) == 1
        scale = 2.0 * 60 * 40 / 100.0
        assert result.statistic == scale * divergence_between_fits(family, th1, th2, p)
        assert result.weight == null_law(family, pooled, p)

    def test_first_failed_fit_raises(self, family):
        # a sample of 720s cannot be fitted (its window at the bracket
        # floor 719 underflows), nor can the pooled sample (at its bracket
        # top 721); the sample's error is raised, in either place
        small, large, p = np.array([1, 2, 3]), np.full(20, 720), TiltParams(0.2, 0.5)
        for s1, s2 in ((small, large), (large, small)):
            with pytest.raises(FloatingPointError, match=r"exp\(-719\.0\)"):
                two_sample_statistic(s1, s2, family, p)


class TestSecondOrderTestInfluence:
    def test_known_value_at_likelihood_disparity(self, family):
        value = second_order_test_influence(5, family, 2.0, TiltParams(0.0, 0.0))
        assert value == pytest.approx(4.5, abs=1e-4)

    @pytest.mark.parametrize("y", [0, 4, 12])
    def test_is_curvature_times_squared_first_order(self, family, y):
        p = TiltParams(0.5, 0.3)
        expected = curvature_a_beta(family, 4.0, p) * if_first_order(y, None, family, 4.0, p) ** 2
        assert second_order_test_influence(y, family, 4.0, p) == expected

    def test_nonnegative_everywhere(self, family):
        p = TiltParams(0.5, 0.3)
        for y in range(0, 30, 3):
            assert second_order_test_influence(y, family, 4.0, p) >= 0.0

    def test_bounded_for_positive_beta(self, family):
        p = TiltParams(0.5, 0.0)
        values = [second_order_test_influence(y, family, 4.0, p) for y in range(101)]
        peak = max(values)
        assert 0 < int(np.argmax(values)) < 100  # interior maximum
        assert values[100] < 1e-4 * peak


class TestDivergenceBetweenFits:
    def test_symmetric_arguments_zero(self, family):
        assert divergence_between_fits(family, 3.0, 3.0, TiltParams(0.4, 0.6)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_positive_for_distinct_fits(self, family):
        assert divergence_between_fits(family, 2.0, 3.0, TiltParams(0.4, 0.6)) > 0.0

    # The three log terms are O(1) and cancel to the divergence, so either
    # arithmetic carries an O(eps) absolute error besides the relative one.
    ORACLE_ABS = 8 * np.finfo(float).eps

    @pytest.mark.parametrize("theta_f", [2.0, 4.0])
    @pytest.mark.parametrize("tilt", SOLVER_TILTS + [(0.0, -1.0)], ids=str)  # + the A -> 0 limit
    def test_stack_matches_pair_density_oracle(self, family, theta_f, tilt):
        # (0, 0) is the B -> 0 limit; theta_g = theta_f and theta_f + 1e-6
        # are the near-zero rows
        p = TiltParams(*tilt)
        theta_g = np.concatenate([np.linspace(0.5, 30.0, 60), [theta_f, theta_f + 1e-6]])
        stacked = divergence_between_fits(family, theta_g, theta_f, p)
        assert stacked.shape == theta_g.shape
        for t, value in zip(theta_g, stacked):
            expected = divergence_between_fits_oracle(family, t, theta_f, p)
            single = divergence_between_fits(family, t, theta_f, p)
            assert isinstance(single, float)
            for got in (value, single):
                assert abs(got - expected) <= 1e-12 * abs(expected) + self.ORACLE_ABS

    def test_row_does_not_depend_on_its_stack(self, family):
        # each row sums over its own pair's windows, however long the others'
        p = TiltParams(0.0, 0.5)  # B < 0: the sums weigh the far tail
        alone = divergence_between_fits(family, np.array([6.0]), 2.0, p)
        with_wide = divergence_between_fits(family, np.array([6.0, 30.0]), 2.0, p)
        assert with_wide[0] == pytest.approx(alone[0], rel=1e-14)

    def test_identity_link_matches_mass_vector_path(self, family):
        # the identity link takes the exps of the three log sums; wherever
        # gsd on the pair's mass vectors works (no model mass underflows on
        # the union window) the two agree
        checked = 0
        for theta_g in (0.5, 1.0, 3.0, 12.0, 40.0, 120.0, 300.0):
            for theta_f in (0.5, 2.0, 10.0, 60.0, 250.0):
                if theta_g == theta_f:
                    continue
                for tilt in ((0.1, -0.5), (0.2, 1.0), (0.5, 0.5), (0.5, 1.5), (1.0, 1.5)):
                    p = TiltParams(*tilt)
                    try:
                        expected = gsd(*model_pair_densities(family, theta_g, theta_f), p, Psi.IDENTITY)
                    except (SupportAlignmentError, OverflowError):
                        continue
                    got = divergence_between_fits(family, theta_g, theta_f, p, Psi.IDENTITY)
                    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
                    checked += 1
        assert checked >= 100

    def test_identity_link_overflow_is_an_error(self, family):
        # at B < 0 the sum of f^B g^A exceeds a double here: an OverflowError,
        # with no RuntimeWarning on the way, for a float and for an array
        p = TiltParams(0.1, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows a double"):
                divergence_between_fits(family, 80.0, 1.0, p, Psi.IDENTITY)
            with pytest.raises(OverflowError, match="overflows a double"):
                divergence_between_fits(family, np.array([2.0, 80.0]), 1.0, p, Psi.IDENTITY)
            assert np.isfinite(divergence_between_fits(family, 2.0, 1.0, p, Psi.IDENTITY))

    @pytest.mark.parametrize("tilt", [(1e9, 0.0), (1e12, 0.0), (0.4, 0.6), (2.0, -0.5)], ids=str)
    def test_identity_link_stack_is_its_rows_at_any_beta(self, family, tilt):
        # a padded cell weighs nothing: at 1 + beta above about 1.8e8,
        # (1 + beta) log g there falls to -inf without a numpy warning, and
        # each row of the stack equals the row taken alone
        p, thetas = TiltParams(*tilt), np.array([2.0, 30.0, 3.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = divergence_between_fits(family, thetas, 3.0, p, Psi.IDENTITY)
            rows = [divergence_between_fits(family, t, 3.0, p, Psi.IDENTITY) for t in thetas]
        np.testing.assert_allclose(stack, rows, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("tilt", [(0.0, 0.0), (0.5, 1.0), (0.0, -1.0)], ids=str)
    def test_identity_link_undefined_at_zero_exponents(self, family, tilt):
        # B = 0 twice, then A = 0
        with pytest.raises(ValueError, match="exponent boundary"):
            divergence_between_fits(family, 3.0, 2.0, TiltParams(*tilt), Psi.IDENTITY)

    def test_two_dimensional_theta_rejected(self, family):
        with pytest.raises(ValueError, match="1-d"):
            divergence_between_fits(family, np.ones((2, 2)), 2.0, TiltParams(0.4, 0.6))
