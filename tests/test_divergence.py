"""Divergence evaluators: exponents, LSD, GSD branches, named special cases."""

import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from lsdiv.divergence import EXPONENT_BOUNDARY, _lse
from lsdiv.hypotest import divergence_between_fits
from helpers import FAMILY, poisson_pair, random_density, random_density_with_zeros


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


# beta up to 1e300 and |gamma| up to 1e300: the unit range and every decade
# beyond it alike
_BETA = st.one_of(st.floats(0.0, 2.0), st.floats(-3.0, 300.0).map(lambda k: 10.0**k))
_GAMMA = st.one_of(
    st.floats(-3.0, 3.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 300.0)).map(
        lambda sk: sk[0] * 10.0 ** sk[1]
    ),
)


def _tilt(beta, gamma):
    """The tilt, where TiltParams accepts the pair."""
    try:
        return TiltParams(beta, gamma)
    except ValueError:
        assume(False)


def _masses(draw, size, empty):
    """A random mass vector with entries in [1e-3, 1]; with ``empty``, some
    cells 0 but the first."""
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)))
    if empty:
        raw[1:][np.array(draw(st.lists(st.booleans(), min_size=size - 1, max_size=size - 1)))] = 0.0
    return raw / raw.sum()


@st.composite
def _pairs(draw, empty=True):
    """(g, f) on one window of 2 to 12 cells, f positive; g may have empty
    cells where ``empty``, with f's largest mass on an occupied cell (the
    empty-cell term (1/A) log(sum_all f^c / sum_occupied f^c) then stays
    below log(12) / A, inside a double's range)."""
    size = draw(st.integers(2, 12))
    g, f = _masses(draw, size, empty), _masses(draw, size, False)
    top = int(np.argmax(f))
    f[[0, top]] = f[[top, 0]]
    return DiscreteDensity(0, g), DiscreteDensity(0, f)


class TestOneFormula:
    """The log link is one centred divided difference at every tilt: no
    branch at the exponent boundaries, and no cancellation at huge beta."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=_pairs(), beta=_BETA, gamma=_GAMMA)
    def test_vectors_finite_and_nonnegative(self, pair, beta, gamma):
        p = _tilt(beta, gamma)
        g, f = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if p.exp_a < EXPONENT_BOUNDARY and np.any(g.mass == 0):
                with pytest.raises(DivergenceInfiniteError):
                    lsd(g, f, p)
                return
            value = lsd(g, f, p)
        assert np.isfinite(value) and value >= 0.0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        thetas=st.lists(st.floats(0.05, 60.0), min_size=1, max_size=6),
        theta_f=st.floats(0.05, 60.0),
        beta=_BETA,
        gamma=_GAMMA,
    )
    def test_padded_stacks_finite_and_nonnegative(self, thetas, theta_f, beta, gamma):
        p = _tilt(beta, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = divergence_between_fits(FAMILY, np.array(thetas), theta_f, p)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=_pairs(empty=False), beta=_BETA, gamma=_GAMMA)
    def test_swapping_the_pair_and_the_exponents(self, pair, beta, gamma):
        # LSD(g, f) at (A, B) is LSD(f, g) at (B, A); (beta, gamma) cannot
        # always name the swapped exponents in floats, so they are set directly
        p = _tilt(beta, gamma)
        g, f = pair
        swapped = types.SimpleNamespace(beta=p.beta, exp_a=p.exp_b, exp_b=p.exp_a)
        assert lsd(f, g, swapped) == pytest.approx(lsd(g, f, p), rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=_pairs(empty=False))
    def test_likelihood_disparities_at_the_corners(self, pair):
        # (0, 0) is B = 0 and (0, -1) is A = 0, with 1 + beta = 1; the closed
        # form's terms g log(g/f) cancel, which leaves it an absolute error of
        # a few eps besides the relative one
        g, f = pair
        eps8 = 8 * np.finfo(float).eps
        assert lsd(g, f, TiltParams(0.0, 0.0)) == pytest.approx(ld(g, f), rel=1e-13, abs=eps8)
        assert lsd(g, f, TiltParams(0.0, -1.0)) == pytest.approx(ld(f, g), rel=1e-13, abs=eps8)

    @pytest.mark.parametrize("gamma", [-3.0, -1e-10, 0.0, 0.7, 1e10])
    def test_padded_stack_rows_at_huge_beta(self, gamma):
        # at c = 1e10 + 1, c times a padded cell's log overflows to -inf
        p = TiltParams(1e10, gamma)
        thetas = np.linspace(0.5, 30.0, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = divergence_between_fits(FAMILY, thetas, 2.0, p)
            alone = [divergence_between_fits(FAMILY, t, 2.0, p) for t in thetas]
        np.testing.assert_allclose(stacked, alone, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "args,expected,rel",
        [
            # 700-digit mpmath on the same log masses
            ((1e300, 0.0, 2.0, 3.0), 0.18232155679395472, 1e-14),
            ((1e300, 0.0, 2.0, 3.3), 0.40546510810816461, 1e-14),
            ((1e10, 0.0, 4.0, 4.5), 6.9314718055994531e-11, 1e-9),
        ],
        ids=["beta-1e300", "beta-1e300-mode-3", "beta-1e10"],
    )
    def test_huge_beta_against_mpmath(self, args, expected, rel):
        beta, gamma, theta_g, theta_f = args
        value = divergence_between_fits(FAMILY, theta_g, theta_f, TiltParams(beta, gamma))
        assert value == pytest.approx(expected, rel=rel, abs=0.0)

    def test_huge_gamma(self):
        # A = -B = 5e307; mpmath reads 2.78e-308
        value = divergence_between_fits(FAMILY, 2.0, 3.0, TiltParams(0.5, 1e308))
        assert 0.0 <= value <= 1e-300

    @pytest.mark.parametrize("boundary", ["A", "B"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_cliff_at_the_boundaries(self, boundary, sign):
        # |LSD(eps) - LSD(0)| / eps holds still from eps = 1e-4 down to 1e-12
        g, f = poisson_pair(2.0, 2.5)
        beta = 0.5
        gamma0 = -1.0 / (1.0 - beta) if boundary == "A" else beta / (1.0 - beta)
        at_zero = lsd(g, f, TiltParams(beta, gamma0))
        slopes = [
            abs(lsd(g, f, TiltParams(beta, gamma0 + sign * eps / (1.0 - beta))) - at_zero) / eps
            for eps in 10.0 ** -np.arange(4.0, 13.0)
        ]
        assert max(slopes) <= 1.02 * slopes[0] and min(slopes) >= 0.98 * slopes[0]
