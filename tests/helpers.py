"""Shared test utilities: random densities and independent numeric oracles.

Everything here is deliberately implemented through the public API or plain
numpy so it can serve as an independent check of the library internals.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.optimize import brentq

from lsdiv import DiscreteDensity, PoissonFamily, TiltParams, density_vector, lsd
from lsdiv.asymptotics import point_contaminated
from lsdiv.estimation import estimating_equation_residual
from lsdiv.hypotest import model_pair_densities

FAMILY = PoissonFamily()


def moments_c_d_oracle(family, theta: float, beta: float, i_max: int = 3, eps_tail: float = 1e-12):
    """Tilted score moments c_i = sum u^i f^(1+beta) and d_i = sum u' u^i f^(1+beta),
    i = 0..i_max, on the family's eps_tail window: f^(1+beta) as a power of
    the density and each score power on its own row."""
    offset, length = family.support_window(theta, eps_tail)
    x = offset + np.arange(length)
    f = family.density(theta, x)
    u = family.score(theta, x)
    du = family.score_derivative(theta, x)
    w = f ** (1.0 + beta)
    powers = np.vstack([u**i for i in range(i_max + 1)])
    return powers @ w, powers @ (du * w)


def random_density(rng: np.random.Generator, size: int = 25, offset: int = 0) -> DiscreteDensity:
    """Strictly positive random discrete density on a fixed window."""
    raw = rng.random(size) + 1e-3
    return DiscreteDensity(offset=offset, mass=raw / raw.sum())


def random_density_with_zeros(rng: np.random.Generator, size: int = 25) -> DiscreteDensity:
    """Random density with a few empty cells (an empirical-frequency shape)."""
    raw = rng.random(size)
    raw[rng.random(size) < 0.2] = 0.0
    if raw.sum() == 0:
        raw[0] = 1.0
    return DiscreteDensity(offset=0, mass=raw / raw.sum())


def mixture_density(family, theta1, theta2, eps, eps_tail=1e-13) -> DiscreteDensity:
    """(1 - eps) * f_theta1 + eps * f_theta2 on one window covering both."""
    l1 = family.support_window(theta1, eps_tail)[1]
    l2 = family.support_window(theta2, eps_tail)[1]
    x = np.arange(max(l1, l2))
    mass = (1.0 - eps) * family.density(theta1, x) + eps * family.density(theta2, x)
    return DiscreteDensity(offset=0, mass=mass)


def poisson_pair(theta_g: float, theta_f: float, eps_tail: float = 1e-12):
    """Two Poisson densities on one shared window (both strictly positive)."""
    fam = FAMILY
    l1 = fam.support_window(theta_g, eps_tail)[1]
    l2 = fam.support_window(theta_f, eps_tail)[1]
    x = np.arange(max(l1, l2))
    g = DiscreteDensity(offset=0, mass=fam.density(theta_g, x))
    f = DiscreteDensity(offset=0, mass=fam.density(theta_f, x))
    return g, f


def curvature_fd_oracle(theta0: float, p: TiltParams, rel_step: float = 0.02) -> float:
    """Second derivative of theta -> LSD(f_theta, f_theta0) at theta0 by
    finite differences of :func:`lsd`.

    Central second differences at steps h, h/2, h/4 with h = rel_step *
    theta0, combined by two levels of Richardson extrapolation (error
    O(h^6)); independent of every moment formula in the library.
    """

    def divergence_at(theta: float) -> float:
        g, f = poisson_pair(theta, theta0)
        return lsd(g, f, p)

    h = rel_step * theta0
    at_null = divergence_at(theta0)
    d = [
        (divergence_at(theta0 + s) - 2.0 * at_null + divergence_at(theta0 - s)) / s**2
        for s in (h, h / 2.0, h / 4.0)
    ]
    r = [(4.0 * d[1] - d[0]) / 3.0, (4.0 * d[2] - d[1]) / 3.0]
    return (16.0 * r[1] - r[0]) / 15.0


def solve_contaminated_theta(
    eps: float,
    y: int,
    p: TiltParams,
    theta_true: float = 4.0,
    lo: float = 2.0,
    hi: float = 9.0,
) -> float:
    """Root of the estimating equation under (1-eps) * f_theta_true + eps * delta_y."""
    base = density_vector(FAMILY, theta_true, 1e-14)
    g_eps = point_contaminated(base, y, eps)
    return brentq(
        lambda t: estimating_equation_residual(t, g_eps, FAMILY, p), lo, hi, xtol=1e-14
    )


def second_order_if_oracle(
    y: int, p: TiltParams, theta_true: float = 4.0, step: float = 5e-5
) -> float:
    """Richardson-extrapolated second difference of the contaminated functional.

    theta(eps) is solved exactly by root finding along the contamination
    path, so this is independent of every closed-form expression in the
    library.
    """
    t0 = solve_contaminated_theta(0.0, y, p, theta_true)

    def second_diff(e: float) -> float:
        tp = solve_contaminated_theta(e, y, p, theta_true)
        tm = solve_contaminated_theta(-e, y, p, theta_true)
        return (tp - 2.0 * t0 + tm) / e**2

    return (4.0 * second_diff(step / 2.0) - second_diff(step)) / 3.0


def divergence_between_fits_oracle(family, theta_g: float, theta_f: float, p: TiltParams) -> float:
    """LSD(f_theta_g, f_theta_f) the way the statistic was computed one pair
    at a time: :func:`lsd` on the exp'd masses of ``model_pair_densities``
    (the union of the two support windows), an O(eps) negative value
    clamped to 0."""
    value = lsd(*model_pair_densities(family, theta_g, theta_f), p)
    return value if value >= 0.0 else (0.0 if value > -1e-10 else value)


def pid_worker(_) -> int:
    """The id of the process that runs it; module-level so process pools can
    pickle it."""
    return os.getpid()


def exit_worker(arg) -> int:
    """Kills the process that runs it, without cleanup, when ``arg`` is
    "exit"; otherwise the id of that process."""
    if arg == "exit":
        os._exit(3)
    return os.getpid()


def two_sample_reject_worker(args) -> bool:
    """One two-sample replication under the null; module-level so process
    pools can pickle it."""
    from lsdiv.hypotest import two_sample_statistic
    from lsdiv.simulate import replication_rng, sample_poisson

    seed, rep, n, m, theta, beta, gamma, level = args
    rng = replication_rng(seed, rep)
    s1 = sample_poisson(theta, n, rng)
    s2 = sample_poisson(theta, m, rng)
    result = two_sample_statistic(s1, s2, FAMILY, TiltParams(beta, gamma), levels=(level,))
    return result.reject_at[level]


def first_order_if_oracle(
    y: int, p: TiltParams, theta_true: float = 4.0, step: float = 1e-6
) -> float:
    """Central-difference slope of the contaminated functional at eps = 0."""
    tp = solve_contaminated_theta(step, y, p, theta_true)
    tm = solve_contaminated_theta(-step, y, p, theta_true)
    return (tp - tm) / (2.0 * step)


def jones_alpha1_sandwich(theta: float) -> float:
    """Sandwich K/J^2 of Jones et al.'s (2001) alpha = 1 estimator at Poisson(theta).

    At beta = 1 the LSD is the same for every gamma and is the logarithmic
    density power divergence with alpha = 1, whose minimiser solves
    sum_i psi(X_i, t) = 0 with the ratio estimating function

        psi(x, t) = f_t(x) * (u_t(x) - xi(t)),   xi(t) = sum f_t^2 u_t / sum f_t^2.

    K = E[psi^2] and J = -E[d psi / d t] under f_theta, with the derivative
    of xi taken in closed form.  Plain numpy on 0..x_max, the Poisson pmf
    built from its logarithm; nothing here calls the library.
    """
    x_max = int(theta + 40.0 * np.sqrt(theta) + 40.0)
    x = np.arange(x_max + 1, dtype=float)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(x[1:]))))
    f = np.exp(x * np.log(theta) - theta - log_factorial)
    u = x / theta - 1.0
    du = -x / theta**2
    f2 = f * f
    s0, s1 = f2.sum(), f2 @ u
    xi = s1 / s0
    # d(f^2)/dt = 2 f^2 u, so d(s1)/dt = sum f^2 (2u^2 + u') and d(s0)/dt = 2 sum f^2 u
    dxi = (f2 @ (2.0 * u * u + du) * s0 - s1 * 2.0 * s1) / s0**2
    psi = f * (u - xi)
    dpsi = f * u * (u - xi) + f * (du - dxi)
    k = f @ psi**2
    j = -(f @ dpsi)
    return float(k / j**2)


def _union_window_arrays(g: DiscreteDensity, theta: float, eps_tail: float):
    """(x, f, g, u, u') of the Poisson model at theta on the union of its
    eps_tail window and g's window."""
    length = FAMILY.support_window(theta, eps_tail)[1]
    lo = min(0, g.offset)
    x = np.arange(lo, max(length, g.offset + g.mass.size))
    gv = np.zeros(x.size)
    gv[g.offset - lo : g.offset - lo + g.mass.size] = g.mass
    return x, FAMILY.density(theta, x), gv, x / theta - 1.0, -x / theta**2


def general_jk_oracle(g: DiscreteDensity, theta: float, p: TiltParams, eps_tail: float = 1e-12):
    """(J, K, xi, sandwich) under g, every sum written out on the union window.

    Af = sum f^(1+beta) u, Bf = sum f^(1+beta), w = Bf u - Af, dw its theta
    derivative and M = (g/f)^A - 1; J is the curvature identity divided by
    A, with the model-window terms kept rather than cancelled, and K the
    variance of g^(A-1) f^B w under g.
    """
    a = p.exp_a
    _, f, gv, u, du = _union_window_arrays(g, theta, eps_tail)
    beta = p.beta
    fb = f ** (1.0 + beta)
    af = fb @ u
    bf = fb.sum()
    w = bf * u - af
    dw = (1.0 + beta) * af * u + bf * du - fb @ ((1.0 + beta) * u**2 + du)
    pos = gv > 0
    ga_fb = gv[pos] ** a * f[pos] ** p.exp_b
    m = (gv / f) ** a - 1.0
    j = ga_fb @ (w * u)[pos] - (m * fb) @ dw / a - (1.0 + beta) * ((m * fb) @ (w * u)) / a
    xi = ga_fb @ w[pos]
    k = (gv[pos] ** (2.0 * a - 1.0) * f[pos] ** (2.0 * beta + 2.0 - 2.0 * a)) @ w[pos] ** 2 - xi**2
    return j, k, xi, k / j**2


def general_if1_oracle(
    y: int, g: DiscreteDensity, theta: float, p: TiltParams, eps_tail: float = 1e-12
):
    """First-order influence at y under g, on the union window:
    ((Af S - t Af) - (Bf S_u - t u_y Bf)) / J with S = sum g^A f^B,
    S_u = sum g^A f^B u and t = f_y^B g_y^(A-1)."""
    a, b = p.exp_a, p.exp_b
    x, f, gv, u, _ = _union_window_arrays(g, theta, eps_tail)
    fb = f ** (1.0 + p.beta)
    af, bf = fb @ u, fb.sum()
    ga_fb = gv ** a * f**b  # exact zeros on empty cells
    i = y - int(x[0])
    t = f[i] ** b * gv[i] ** (a - 1.0)
    numerator = (af * ga_fb.sum() - t * af) - (bf * (ga_fb @ u) - t * u[i] * bf)
    return numerator / general_jk_oracle(g, theta, p, eps_tail)[0]
