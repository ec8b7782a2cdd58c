"""Divergence evaluators: exponents, LSD, GSD branches, named special cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdiv import (
    DiscreteDensity,
    DivergenceInfiniteError,
    Psi,
    SupportAlignmentError,
    TiltParams,
    derive_exponents,
    gsd,
    ld,
    ldpd,
    lpd,
    lsd,
)
from lsdiv.divergence import _lse
from helpers import poisson_pair, random_density, random_density_with_zeros


class TestDeriveExponents:
    def test_likelihood_disparity_corner(self):
        assert derive_exponents(0.0, 0.0) == (1.0, 0.0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 2.0])
    def test_beta_one_kills_gamma(self, gamma):
        assert derive_exponents(1.0, gamma) == (1.0, 1.0)

    def test_arithmetic_example(self):
        a, b = derive_exponents(0.2, 0.5)
        assert a == pytest.approx(1.4, abs=1e-15)
        assert b == pytest.approx(-0.2, abs=1e-15)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            derive_exponents(-0.1, 0.0)

    @pytest.mark.parametrize(
        "beta,gamma",
        [(np.nan, 0.5), (np.inf, 0.5), (0.2, np.nan), (0.2, np.inf), (0.2, -np.inf), (-np.inf, 0.0)],
    )
    def test_non_finite_tilt_rejected(self, beta, gamma):
        # nan < 0 is false, so a sign check alone lets these through
        with pytest.raises(ValueError, match="finite"):
            derive_exponents(beta, gamma)
        with pytest.raises(ValueError, match="finite"):
            TiltParams(beta, gamma)

    @given(
        beta=st.floats(min_value=0.0, max_value=1.0),
        gamma=st.floats(min_value=-1.0, max_value=2.0),
    )
    def test_sum_identity(self, beta, gamma):
        a, b = derive_exponents(beta, gamma)
        assert a + b == pytest.approx(1.0 + beta, rel=1e-14, abs=1e-14)


class TestTiltParams:
    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            TiltParams(-0.5, 0.0)

    def test_derived_exponents_stored(self):
        p = TiltParams(0.2, 0.5)
        assert (p.exp_a, p.exp_b) == derive_exponents(0.2, 0.5)

    def test_psi_default_is_log(self):
        g, f = poisson_pair(3.0, 4.0)
        p = TiltParams(0.5, 0.3)
        assert gsd(g, f, p) == lsd(g, f, p)
        assert gsd(g, f, p, Psi.IDENTITY) != gsd(g, f, p)


class TestDiscreteDensity:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDensity(offset=0, mass=np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_rejected(self, bad):
        # a NaN cell used to read as an empty one: lsd gave 0.5545 here
        with pytest.raises(ValueError, match="finite"):
            DiscreteDensity(offset=0, mass=np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            lsd(DiscreteDensity(0, [bad, 1.0]), DiscreteDensity(0, [0.5, 0.5]), TiltParams(0.5, 0.5))

    def test_support_and_mean(self):
        d = DiscreteDensity(offset=2, mass=np.array([0.25, 0.75]))
        assert list(d.support) == [2, 3]
        assert d.mean() == pytest.approx(2.75)


class TestLsd:
    @pytest.mark.parametrize("beta,gamma", [(0, 0), (0.5, 0.3), (1, -1), (0.2, 0.5)])
    def test_self_divergence_zero(self, beta, gamma):
        g, _ = poisson_pair(3.0, 3.0)
        assert abs(lsd(g, g, TiltParams(beta, gamma))) <= 1e-10

    def test_gamma_invariance_at_beta_one(self):
        g, f = poisson_pair(2.0, 4.0)
        values = [lsd(g, f, TiltParams(1.0, gm)) for gm in (-1.0, -0.5, 0.0, 1.0, 2.0)]
        assert max(values) - min(values) <= 1e-10
        # closed form at beta=1: log of (sum f^2)(sum g^2) / (sum f g)^2
        fm, gm_ = f.mass, g.mass
        direct = np.log(np.sum(fm**2) * np.sum(gm_**2) / np.dot(fm, gm_) ** 2)
        assert values[0] == pytest.approx(direct, abs=1e-12)

    def test_likelihood_disparity_matches_kl_sum(self):
        g, f = poisson_pair(2.0, 3.0)
        kl = float(np.sum(g.mass * np.log(g.mass / f.mass)))
        assert lsd(g, f, TiltParams(0.0, 0.0)) == pytest.approx(kl, abs=1e-9)

    def test_nonnegativity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_density_with_zeros(rng)
            f = random_density(rng)
            while True:
                beta = rng.uniform(0.0, 1.0)
                gamma = rng.uniform(-1.0, 2.0)
                if derive_exponents(beta, gamma)[0] > 1e-6:
                    break
            assert lsd(g, f, TiltParams(beta, gamma)) >= -1e-10

    def test_identity_of_indiscernibles(self):
        # On the tested grid: zero divergence only for identical pairs;
        # any pair separated by at least 1e-3 in sup norm is clearly visible.
        # (The divergence is quadratic in small perturbations: a bump of 1e-3
        # gives about 1e-5, but a bump of 1e-6 gives about 1e-11, below the
        # 1e-10 tolerance that lsd(f, f) is held to, so no sharper universal
        # threshold is attainable.)
        rng = np.random.default_rng(7)
        p = TiltParams(0.4, 0.3)
        for _ in range(20):
            f = random_density(rng)
            assert abs(lsd(f, f, p)) <= 1e-10
            bump = np.zeros(f.mass.size)
            bump[3] = 1e-3
            g = DiscreteDensity(0, (f.mass + bump) / (1.0 + 1e-3))
            assert np.max(np.abs(g.mass - f.mass)) > 1e-6
            assert lsd(g, f, p) > 1e-10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_boundary_continuity_exp_b(self, sign):
        g, f = poisson_pair(2.0, 2.5)
        beta = 0.5
        # B = beta - gamma (1 - beta) crosses 0 at gamma = beta / (1 - beta)
        gamma0 = beta / (1.0 - beta)
        limit = lsd(g, f, TiltParams(beta, gamma0))
        gamma = gamma0 - sign * 1e-4 / (1.0 - beta)
        near = lsd(g, f, TiltParams(beta, gamma))
        assert abs(TiltParams(beta, gamma).exp_b - sign * 1e-4) < 1e-12
        assert abs(near - limit) <= 1e-6
        # the gap is O(B): one decade closer shrinks it about tenfold
        gamma_small = gamma0 - sign * 1e-5 / (1.0 - beta)
        nearer = lsd(g, f, TiltParams(beta, gamma_small))
        assert abs(nearer - limit) <= 0.2 * abs(near - limit)

    def test_boundary_continuity_exp_a(self):
        g, f = poisson_pair(2.0, 2.5)
        beta = 0.5
        # A = 1 + gamma (1 - beta) crosses 0 at gamma = -1 / (1 - beta)
        gamma0 = -1.0 / (1.0 - beta)
        limit = lsd(g, f, TiltParams(beta, gamma0))
        for sign in (1.0, -1.0):
            gamma = gamma0 + sign * 1e-4 / (1.0 - beta)
            near = lsd(g, f, TiltParams(beta, gamma))
            assert abs(TiltParams(beta, gamma).exp_a - sign * 1e-4) < 1e-12
            assert abs(near - limit) <= 1e-6

    def test_negative_exp_a_with_empty_cell_raises(self):
        rng = np.random.default_rng(0)
        g = random_density_with_zeros(rng)
        f = random_density(rng, size=g.mass.size)
        with pytest.raises(DivergenceInfiniteError):
            lsd(g, f, TiltParams(0.0, -1.5))  # exp_a = -0.5

    def test_model_side_zero_rejected(self):
        g = DiscreteDensity(0, np.array([0.5, 0.5]))
        f = DiscreteDensity(0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            lsd(g, f, TiltParams(0.5, 0.0))


class TestLogSumExp:
    @pytest.mark.parametrize("length", [1, 7, 9, 75, 680])
    def test_stack_rows_match_vectors_bit_for_bit(self, length):
        rng = np.random.default_rng(length)
        stack = rng.normal(scale=30.0, size=(256, length))
        rows = np.array([_lse(row) for row in stack])
        np.testing.assert_array_equal(_lse(stack), rows)

    def test_column_major_stack(self):
        # a boolean column index lays a stack out column-major; the rows must
        # still reduce as lone vectors do
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(256, 40))[:, rng.random(40) > 0.5]
        rows = np.array([_lse(row) for row in stack])
        np.testing.assert_array_equal(_lse(stack), rows)


class TestReturnTypes:
    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.5, 0.3), (0.0, 0.0), (0.5, -2.0)],  # general, B = 0, A = 0
    )
    def test_lsd_returns_python_float(self, beta, gamma):
        g, f = poisson_pair(2.0, 3.0)
        assert type(lsd(g, f, TiltParams(beta, gamma))) is float

    @pytest.mark.parametrize("psi", [Psi.LOG, Psi.IDENTITY])
    def test_gsd_returns_python_float(self, psi):
        g, f = poisson_pair(2.0, 3.0)
        assert type(gsd(g, f, TiltParams(0.5, 0.3), psi)) is float


class TestGsd:
    def test_identity_branch_self_zero(self):
        g, _ = poisson_pair(3.0, 3.0)
        assert abs(gsd(g, g, TiltParams(0.5, 0.3), Psi.IDENTITY)) <= 1e-12

    def test_log_branch_delegates_to_lsd(self):
        g, f = poisson_pair(2.0, 4.0)
        p = TiltParams(0.5, 0.3)
        assert gsd(g, f, p, Psi.LOG) == pytest.approx(lsd(g, f, p), abs=1e-12)

    def test_identity_branch_nonnegative_random_pairs(self):
        rng = np.random.default_rng(11)
        p = TiltParams(0.5, 0.0)
        for _ in range(100):
            g = random_density(rng)
            f = random_density(rng)
            assert gsd(g, f, p, Psi.IDENTITY) >= -1e-10


class TestNamedSpecials:
    def test_ld_self_zero(self):
        g, _ = poisson_pair(2.0, 2.0)
        assert abs(ld(g, g)) <= 1e-12

    def test_lpd_matches_lsd_slice(self):
        g, f = poisson_pair(2.0, 3.0)
        assert lpd(g, f, 0.5) == pytest.approx(lsd(g, f, TiltParams(0.0, 0.5)), abs=1e-10)

    def test_ldpd_matches_lsd_slice(self):
        g, f = poisson_pair(2.0, 3.0)
        assert ldpd(g, f, 0.5) == pytest.approx(lsd(g, f, TiltParams(0.5, 0.0)), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_lpd_degenerate_gamma_rejected(self, gamma):
        g, f = poisson_pair(2.0, 3.0)
        with pytest.raises(ValueError):
            lpd(g, f, gamma)

    def test_coherence_on_poisson_grid(self):
        thetas = (1.0, 2.0, 3.0, 5.0, 8.0)
        for tg in thetas:
            for tf in thetas:
                g, f = poisson_pair(tg, tf)
                assert lpd(g, f, 0.7) == pytest.approx(
                    lsd(g, f, TiltParams(0.0, 0.7)), abs=1e-10
                )
                assert ldpd(g, f, 0.3) == pytest.approx(
                    lsd(g, f, TiltParams(0.3, 0.0)), abs=1e-10
                )
                assert ld(g, f) == pytest.approx(
                    lsd(g, f, TiltParams(0.0, 0.0)), abs=1e-10
                )


_G = DiscreteDensity(0, [0.2, 0.3, 0.5])
_F = DiscreteDensity(0, [0.3, 0.4, 0.3])
_GAP = DiscreteDensity(0, [0.5, 0.0, 0.5])  # an empty cell, as data or as model
_ZERO = DiscreteDensity(0, np.zeros(3))  # data with no positive mass


class TestTypedErrors:
    """Each evaluator's typed error on the input that reaches it."""

    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda: TiltParams(1e154, 1e155), ValueError, "A and B must be finite"),
            (lambda: TiltParams(1e300, 1e300), ValueError, "A and B must be finite"),
            (lambda: DiscreteDensity(0, np.ones((2, 2))), ValueError, "1-d"),
            (lambda: DiscreteDensity(0, np.array([])), ValueError, "non-empty"),
            (lambda: lsd(DiscreteDensity(0, np.zeros(3)), _F, TiltParams(0.5, 0.1)),
             ValueError, "no positive mass"),
            (lambda: lpd(_G, _GAP, 0.5), ValueError, "positive on the window"),
            (lambda: ldpd(_G, _GAP, 0.5), ValueError, "positive on the window"),
            (lambda: ld(_G, _GAP), ValueError, "positive on the window"),
            (lambda: lpd(_GAP, _F, -1.5), DivergenceInfiniteError, "gamma < -1"),
            (lambda: ldpd(_G, _F, 0.0), ValueError, "beta > 0"),
            (lambda: lpd(_ZERO, _F, 0.5), ValueError, "no positive mass"),
            (lambda: ldpd(_ZERO, _F, 0.5), ValueError, "no positive mass"),
            (lambda: ld(_ZERO, _F), ValueError, "no positive mass"),
            (lambda: lsd(_G, _GAP, TiltParams(0.5, 0.1)),
             SupportAlignmentError, "positive on the window"),
            (lambda: gsd(_G, _GAP, TiltParams(0.5, 0.1), Psi.IDENTITY),
             SupportAlignmentError, "positive on the window"),
            (lambda: gsd(_ZERO, _F, TiltParams(0.5, 0.1), Psi.IDENTITY),
             ValueError, "no positive mass"),
            (lambda: gsd(_G, _F, TiltParams(0.0, 0.0), Psi.IDENTITY),
             ValueError, "undefined at the exponent boundary"),
        ],
        ids=[
            "tilt-exponents-overflow", "tilt-exponents-nan", "density-2d", "density-empty",
            "lsd-empty-data", "lpd-zero-model-mass", "ldpd-zero-model-mass",
            "ld-zero-model-mass", "lpd-empty-cell-gamma-below-minus-one", "ldpd-beta-zero",
            "lpd-empty-data", "ldpd-empty-data", "ld-empty-data", "lsd-zero-model-mass",
            "gsd-identity-zero-model-mass", "gsd-identity-empty-data", "gsd-identity-at-b-zero",
        ],
    )
    def test_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
