"""Poisson family contract conformance and tilted score moments."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

from lsdiv import (
    PoissonFamily,
    TiltParams,
    bias_curves,
    density_vector,
    empirical_frequencies,
    if_first_order,
    if_second_order,
    minimize_lsd,
    moments_c_d,
    null_law,
    one_sample_test,
    second_order_test_influence,
)
from lsdiv import families
from lsdiv.families import _MAX_WINDOW, _moment_record, _points, _table
from helpers import moments_c_d_oracle


THETAS = (0.5, 2.0, 4.0, 10.0)


class TestContractConformance:
    @pytest.mark.parametrize("theta", THETAS)
    def test_window_mass(self, family, theta):
        offset, length = family.support_window(theta, 1e-12)
        x = offset + np.arange(length)
        assert family.density(theta, x).sum() >= 1.0 - 1e-12

    @pytest.mark.parametrize("theta", THETAS)
    def test_score_mean_zero(self, family, theta):
        offset, length = family.support_window(theta, 1e-12)
        x = offset + np.arange(length)
        f = family.density(theta, x)
        assert abs(np.dot(f, family.score(theta, x))) <= 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    def test_score_finite_difference(self, family, theta):
        h = 1e-5
        x = np.arange(0, 30)
        numeric = (family.log_density(theta + h, x) - family.log_density(theta - h, x)) / (
            2.0 * h
        )
        assert np.max(np.abs(family.score(theta, x) - numeric)) <= 1e-6

    @pytest.mark.parametrize("theta", THETAS)
    def test_score_derivative_finite_difference(self, family, theta):
        h = 1e-5
        x = np.arange(0, 30)
        numeric = (family.score(theta + h, x) - family.score(theta - h, x)) / (2.0 * h)
        assert np.max(np.abs(family.score_derivative(theta, x) - numeric)) <= 1e-6

    def test_invalid_theta_rejected(self, family):
        with pytest.raises(ValueError):
            family.density(0.0, np.arange(3))
        with pytest.raises(ValueError):
            family.support_window(-1.0)

    def test_theta_column_gives_matrix(self, family):
        x = np.arange(0, 30)
        thetas = np.array([[0.5], [4.0], [10.0]])
        # one grouping of the terms for a float, a column and a sample part's
        # (rows, m, 1) x (rows, 1, k) thetas, so a fit's values keep their bits
        rows = [x * np.log(t) - t - gammaln(x + 1.0) for t in thetas[:, 0]]
        np.testing.assert_array_equal([family.log_density(t, x) for t in thetas[:, 0]], rows)
        np.testing.assert_array_equal(family.log_density(thetas, x), rows)
        part = family.log_density(thetas.T[None], x[None, :, None])
        np.testing.assert_array_equal(part[0].T, rows)

    def test_invalid_theta_in_column_rejected(self, family):
        with pytest.raises(ValueError):
            family.log_density(np.array([[1.0], [-1.0]]), np.arange(3))

    def test_nan_theta_in_column_rejected(self, family):
        # NaN propagates through the column's minimum; it used to give a NaN row
        with pytest.raises(ValueError, match="positive and finite"):
            family.log_density(np.array([[1.0], [np.nan]]), np.arange(3))

    def test_inf_theta_in_column_rejected(self, family):
        # inf passes a check at the column's minimum and gives a NaN row
        for call in (family.log_density, family.score, family.density):
            with pytest.raises(ValueError, match="positive and finite"):
                call(np.array([[1.0], [np.inf]]), np.arange(3))

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, family, theta):
        # nan <= 0 is false: a sign check alone gave NaN densities and scores,
        # and a support window scan of 100 000 steps before failing
        for call in (
            lambda: family.density(theta, np.arange(3)),
            lambda: family.density(theta, 2),
            lambda: family.log_density(theta, np.arange(3)),
            lambda: family.score(theta, np.arange(3)),
            lambda: family.score_derivative(theta, 2),
            lambda: family.support_window(theta),
            lambda: density_vector(family, theta),
        ):
            with pytest.raises(ValueError, match="positive and finite"):
                call()


class TestLogDensityContract:
    def test_every_caller_passes_an_array(self, family, monkeypatch):
        # a wrapper that reads len(x), as a profiler's point counter does:
        # log_density takes arrays only, even where a caller has a lone point
        original = PoissonFamily.log_density
        points = []

        def counted(self, theta, x):
            points.append(len(x))
            return original(self, theta, x)

        monkeypatch.setattr(PoissonFamily, "log_density", counted)
        _moment_record.cache_clear()
        p = TiltParams(0.4, 0.5)
        if_first_order(7, None, family, 4.0, p)
        if_second_order(7, family, 4.0, p)
        second_order_test_influence(7, family, 4.0, p)
        bias_curves(7, family, 4.0, p, [0.0, 0.05, 0.1])
        sample = np.random.default_rng(3).poisson(4.0, 50)
        minimize_lsd(empirical_frequencies(sample), family, p)
        one_sample_test(sample, family, 4.0, p)
        assert points and min(points) >= 1


class TestSupportWindow:
    @given(theta=st.floats(min_value=1e-3, max_value=700.0))
    def test_window_starts_at_zero(self, family, theta):
        # every sum over the model runs over [0, length), with no offset;
        # the length is not monotone in theta (342 -> 341 at theta ~ 226.79)
        offset, length = family.support_window(theta)
        assert offset == 0
        assert length > theta

    def test_minimality_at_theta_four(self, family):
        _, length = family.support_window(4.0, 1e-12)
        x = np.arange(length)
        assert family.density(4.0, x).sum() >= 1.0 - 1e-12
        assert family.density(4.0, x[:-1]).sum() < 1.0 - 1e-12

    def test_loose_tail_bound(self, family):
        _, length = family.support_window(4.0, 0.5)
        mass = family.density(4.0, np.arange(length)).sum()
        assert 0.5 <= mass < 1.0

    def test_eps_tail_validation(self, family):
        with pytest.raises(ValueError):
            family.support_window(4.0, 0.0)
        with pytest.raises(ValueError):
            family.support_window(4.0, 1.5)

    def test_last_normal_first_mass_keeps_tail_bound(self, family):
        # exp(-708) is still a normal double: the window must be full length
        _, length = family.support_window(708.0, 1e-12)
        assert poisson.sf(length - 1, 708.0) < 1e-12

    def test_tail_bound_below_double_resolution(self, family):
        # below double resolution the scan stops only once the summed masses
        # round to 1: at theta = 4 they underflow to 0 first, at theta = 0.5
        # the sum reaches 1 at length 15
        with pytest.raises(FloatingPointError, match="cannot reach"):
            family.support_window(4.0, 1e-17)
        assert family.support_window(0.5, 1e-17) == (0, 15)

    @pytest.mark.parametrize("theta", [730.0, 740.0])
    def test_subnormal_first_mass_raises(self, family, theta):
        # exp(-theta) is subnormal here; the recurrence used to return a
        # window missing 1.8e-7 (theta=730) and 2.5e-3 (theta=740) of the mass
        with pytest.raises(FloatingPointError):
            family.support_window(theta, 1e-12)


class TestDensityVector:
    def test_known_mass_at_mode(self, family):
        d = density_vector(family, 4.0, 1e-12)
        expect = np.exp(-4.0) * 4.0**4 / 24.0
        assert d.mass[4] == pytest.approx(expect, rel=1e-10)
        assert d.mass[4] == pytest.approx(0.195367, abs=1e-6)

    def test_mode_tie_exact_at_integer_theta(self, family):
        d = density_vector(family, 4.0, 1e-12)
        assert d.mass[3] == d.mass[4]  # ratio recurrence makes the tie exact

    @pytest.mark.parametrize("theta", THETAS)
    def test_total_mass_window(self, family, theta):
        d = density_vector(family, theta, 1e-12)
        assert 1.0 - 1e-12 <= d.total <= 1.0 + 1e-12

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_log_gamma_evaluation(self, family, theta):
        d = density_vector(family, theta, 1e-12)
        x = d.support.astype(float)
        direct = np.exp(x * np.log(theta) - theta - gammaln(x + 1.0))
        np.testing.assert_allclose(d.mass, direct, rtol=1e-12)

    @pytest.mark.parametrize("theta", [730.0, 740.0])
    def test_subnormal_first_mass_raises(self, family, theta):
        with pytest.raises(FloatingPointError):
            density_vector(family, theta, 1e-12)


class TestMomentsCD:
    @pytest.mark.parametrize("theta", [2.0, 4.0])
    def test_beta_zero_reductions(self, family, theta):
        c, d = moments_c_d(family, theta, 0.0)
        assert c[0] == pytest.approx(1.0, abs=1e-10)
        assert c[1] == pytest.approx(0.0, abs=1e-10)
        assert c[2] == pytest.approx(1.0 / theta, abs=1e-8)  # Fisher information
        assert d[0] == pytest.approx(-1.0 / theta, abs=1e-10)

    def test_brute_force_wide_window(self, family):
        theta, beta = 4.0, 0.5
        c, d = moments_c_d(family, theta, beta)
        x = np.arange(0, 201)
        f = family.density(theta, x)
        u = family.score(theta, x)
        du = family.score_derivative(theta, x)
        w = f ** (1.0 + beta)
        for i in range(4):
            assert c[i] == pytest.approx(float(np.dot(u**i, w)), abs=1e-10)
            assert d[i] == pytest.approx(float(np.dot(du * u**i, w)), abs=1e-10)

    def test_eps_tail_insensitivity(self, family):
        # the moments on the default window against sums on a window whose
        # excluded tail is 100 times smaller
        c1, d1 = moments_c_d(family, 4.0, 0.3)
        c2, d2 = moments_c_d_oracle(family, 4.0, 0.3, eps_tail=1e-14)
        np.testing.assert_allclose(c1, c2, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-13)


class TestMomentRecord:
    """The memoised record behind moments_c_d: one window pass per
    (family, theta, beta)."""

    @pytest.mark.parametrize("theta", [0.5, 2.0, 4.0, 10.0, 100.0])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.2, 0.4, 0.5, 0.8, 1.0, 2.0])
    def test_agrees_with_oracle(self, family, theta, beta):
        # relative to the largest |entry|: c1 is 0 in exact arithmetic at beta = 0
        for got, want in zip(moments_c_d(family, theta, beta), moments_c_d_oracle(family, theta, beta)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_arrays_reject_writes(self, family):
        c, d = moments_c_d(family, 4.0, 0.3)
        record = _moment_record(family, 4.0, 0.3)
        for array in (c, d, record.c, record.d):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_theta_and_beta_each_key_an_entry(self, family):
        _moment_record.cache_clear()
        for theta, beta in [(4.0, 0.3), (4.0, 0.3), (5.0, 0.3), (4.0, 0.4)]:
            moments_c_d(family, theta, beta)
        info = _moment_record.cache_info()
        assert (info.currsize, info.hits) == (3, 1)

    def test_one_pass_for_the_influence_triple(self, family):
        p = TiltParams(0.4, 0.5)
        _moment_record.cache_clear()
        if_first_order(7, None, family, 4.0, p)
        if_second_order(7, family, 4.0, p)
        second_order_test_influence(7, family, 4.0, p)
        assert _moment_record.cache_info().misses == 1

    def test_one_pass_for_the_influence_command(self):
        from click.testing import CliRunner
        from lsdiv.cli import main

        _moment_record.cache_clear()
        result = CliRunner().invoke(
            main, ["influence", "--beta", "0.4", "--gamma", "0.5", "--theta", "4", "--y-max", "30"]
        )
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 32
        assert _moment_record.cache_info().misses == 1

    def test_null_law_passes_at_beta_and_two_beta(self, family):
        _moment_record.cache_clear()
        null_law(family, 4.0, TiltParams(0.4, 0.5))
        null_law(family, 4.0, TiltParams(0.4, -0.3))  # gamma does not enter
        info = _moment_record.cache_info()
        assert (info.misses, info.hits) == (2, 2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


class TestLogFactorialTable:
    def test_equals_gammaln_at_every_window_point(self):
        x = _points(_MAX_WINDOW + 1)
        log_x_factorial = PoissonFamily._log_factorial(x)
        np.testing.assert_array_equal(x, np.arange(_MAX_WINDOW + 1))
        assert same_bits(log_x_factorial, gammaln(x + 1.0))
        assert not x.flags.writeable and not log_x_factorial.flags.writeable
        # a window of the table's points reads a view of its log x!, not a gather
        assert log_x_factorial.base is _table(0)[1]

    def test_windows_inside_the_table_read_their_own_points(self):
        x = _points(300)
        for window in (x[7:40], x[299:], x[::2], x[None, 3:9]):
            assert same_bits(PoissonFamily._log_factorial(window), gammaln(window + 1.0))

    @pytest.mark.parametrize("point", [0, 1, 2, 12, 13, 999, 1000, 99_999, 10**6, 10**9])
    def test_lone_points_and_the_formula_past_the_table(self, family, point):
        expected = gammaln(point + 1.0)
        assert same_bits(PoissonFamily._log_factorial(np.asarray(float(point))), expected)
        # an array with a point past the longest window takes the formula too
        points = np.array([3.0, float(point)])
        assert same_bits(PoissonFamily._log_factorial(points), gammaln(points + 1.0))
        theta = 7.5
        direct = point * np.log(theta) - theta - expected
        assert same_bits(family.density(theta, point), np.exp(direct))

    def test_gathers_keep_the_shape(self, family):
        x = np.array([[0.0, 5.0, 2.0], [40.0, 40.0, 1.0]])
        assert same_bits(PoissonFamily._log_factorial(x), gammaln(x + 1.0))
        assert PoissonFamily._log_factorial(np.zeros((2, 0))).shape == (2, 0)
        assert same_bits(family.log_density(3.0, np.arange(5)),
                         np.arange(5) * np.log(3.0) - 3.0 - gammaln(np.arange(5) + 1.0))

    @pytest.mark.parametrize("point", [-1, -1e9, 0.5, 2.5, np.nan, np.inf, -np.inf])
    def test_a_point_off_the_support_raises(self, family, point):
        # -1 would read the table's last entry; it must never index it
        with pytest.raises(ValueError, match="nonnegative integer"):
            PoissonFamily._log_factorial(np.asarray(point))
        with pytest.raises(ValueError, match="nonnegative integer"):
            PoissonFamily._log_factorial(np.array([1.0, point]))
        with pytest.raises(ValueError, match="nonnegative integer"):
            family.density(2.0, point)

    def test_threads_growing_the_table_read_only_whole_tables(self, monkeypatch):
        # one thread grows the table from empty by doubling while another
        # reads windows of whatever length the table has, and grows it too;
        # every table a read returns must be complete and read-only, and
        # every log x! read from it must have the table's bits
        reference = gammaln(np.arange(1 << 16) + 1.0)
        interval, problems = sys.getswitchinterval(), []
        monkeypatch.setattr(families, "_POINTS", (np.zeros(0), np.zeros(0)))

        def reported(work):
            # an exception in a thread would only be printed: record it
            def run(*args):
                try:
                    work(*args)
                except Exception as exc:
                    problems.append(exc)
            return run

        @reported
        def grow():
            for k in range(4, 17):
                _points(1 << k)

        @reported
        def read(rng, grower):
            while grower.is_alive():
                end = min(int(rng.integers(1, len(families._POINTS[0]) + 64)), 1 << 16)
                x = _points(end)
                log_x_factorial = PoissonFamily._log_factorial(x)
                lone = PoissonFamily._log_factorial(np.asarray(float(end - 1)))
                if not (
                    len(x) == len(log_x_factorial) == end
                    and x[-1] == end - 1
                    and same_bits(log_x_factorial, reference[:end])
                    and same_bits(lone, reference[end - 1])
                    and not x.flags.writeable
                    # a view of the table's log x! (a gather, where another
                    # thread replaced the table that x views, is a copy)
                    and not (log_x_factorial.base is not None and log_x_factorial.flags.writeable)
                ):
                    problems.append(end)

        sys.setswitchinterval(1e-6)  # switch threads often
        try:
            for seed in range(3):
                families._POINTS = np.zeros(0), np.zeros(0)
                grower = threading.Thread(target=grow)
                reader = threading.Thread(target=read, args=(np.random.default_rng(seed), grower))
                grower.start()
                reader.start()
                for t in (grower, reader):
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not problems
