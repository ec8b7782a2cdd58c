"""Output checks: reference tables, independent fit checks, API identities.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from lsdiv import divergence, estimation, families
from lsdiv.divergence import TiltParams

TOL_THETA = 1e-8  # the optimizer's bracket tolerance (SearchConfig.tol_theta)
TOL_EE = 1e-6  # estimating-equation residual at convergence (SearchConfig.tol_ee)
LSD_STEP = 1e-4
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def rejections(cell: dict) -> float:
    """Rejection count behind a cell's empirical level (a whole number when
    the level is a true count out of the successful replications)."""
    return cell["metrics"]["level"] * (cell["replications"] - cell["failures"])


def compare_table(cells: list[dict], reference: dict) -> list[str]:
    """Each cell against the reference table.

    Estimates may differ from the reference by at most TOL_THETA each, so
    bias may move by TOL_THETA and mse by 2*TOL_THETA*sqrt(mse) + TOL_THETA^2
    (Cauchy-Schwarz).  Failure and rejection counts must match exactly.
    """
    problems = []
    ref_cells = reference["cells"]
    if [(c["beta"], c["gamma"]) for c in cells] != [(c["beta"], c["gamma"]) for c in ref_cells]:
        return [f"cell grid differs from the reference: {[(c['beta'], c['gamma']) for c in cells]}"]
    for cell, ref in zip(cells, ref_cells):
        where = f"cell beta={ref['beta']:g} gamma={ref['gamma']:g}"
        cell = {"replications": ref["replications"], **cell}
        if cell["failures"] != ref["failures"]:
            problems.append(f"{where}: {cell['failures']} failures, reference {ref['failures']}")
            continue
        got, want = cell["metrics"], ref["metrics"]
        if set(got) != set(want) or any((got[k] is None) != (want[k] is None) for k in want):
            problems.append(f"{where}: metrics {got} do not match reference {want}")
            continue
        if "level" in want:
            if want["level"] is None:
                continue
            count, ref_count = rejections(cell), round(rejections(ref))
            if not (abs(count - round(count)) <= 1e-9 and round(count) == ref_count):
                problems.append(f"{where}: {count!r} rejections, reference {ref_count}")
            continue
        if want["bias"] is None:
            continue
        if not abs(got["bias"] - want["bias"]) <= TOL_THETA:
            problems.append(f"{where}: bias {got['bias']!r}, reference {want['bias']!r}")
        mse_tol = 2.0 * TOL_THETA * math.sqrt(want["mse"]) + TOL_THETA**2
        if not abs(got["mse"] - want["mse"]) <= mse_tol:
            problems.append(f"{where}: mse {got['mse']!r}, reference {want['mse']!r}")
    return problems


def _model_on(r_n, theta: float, family):
    """Model density on a window covering the data and the model's own tail."""
    _, length = family.support_window(theta)
    length = max(length, r_n.offset + r_n.mass.size)
    return divergence.DiscreteDensity(0, family.density(theta, np.arange(length)))


def check_fit(sample, p: TiltParams, fit) -> list[str]:
    """A converged fit solves the estimating equation and is a local minimum
    of the divergence, checked with the public evaluators only."""
    family = families.PoissonFamily()
    r_n = estimation.empirical_frequencies(sample)
    theta = fit.theta_hat
    where = f"fit beta={p.beta:g} gamma={p.gamma:g} theta_hat={theta!r}"
    problems = []
    residual = estimation.estimating_equation_residual(theta, r_n, family, p)
    if not abs(residual) <= TOL_EE:
        problems.append(f"{where}: estimating-equation residual {residual!r}")
    at = divergence.lsd(r_n, _model_on(r_n, theta, family), p)
    for step in (-LSD_STEP, LSD_STEP):
        near = divergence.lsd(r_n, _model_on(r_n, theta + step, family), p)
        if not at <= near:
            problems.append(f"{where}: lsd {at!r} exceeds {near!r} at theta_hat{step:+g}")
    return problems


def check_table_fits(workload, seed: int, count: int) -> list[str]:
    """Refit ``count`` seeded replications of every cell of a table pass."""
    rng = np.random.default_rng([seed, 29])
    problems = []
    for beta, gamma in workload.cells:
        p = TiltParams(beta, gamma)
        for rep in rng.choice(workload.replications, count, replace=False):
            sample = workload.fit_inputs(seed, int(rep))
            fit = estimation.minimize_lsd(
                estimation.empirical_frequencies(sample), families.PoissonFamily(), p
            )
            if not fit.converged:
                problems.append(f"cell beta={beta:g} gamma={gamma:g} rep {rep}: fit did not converge")
            problems += check_fit(sample, p, fit)
    return problems


def _poisson_kl(theta_g: float, theta_f: float) -> float:
    return theta_g * math.log(theta_g / theta_f) - theta_g + theta_f


def check_api_calls(calls) -> list[str]:
    """Independent checks on the outputs of an api_mix pass.

    Every converged fit is checked as in :func:`check_fit`.  At beta = 0 the
    model influence function is y - theta for every gamma, and at
    beta = gamma = 0 the model-pair divergence is the Poisson Kullback-Leibler
    divergence.  Test results must carry a p-value in [0, 1] and a
    nonnegative statistic.
    """
    problems = []
    for kind, args, out in calls:
        if isinstance(out, Exception):
            continue
        if kind == "estimate":
            if out.converged:
                problems += check_fit(args[0], args[1], out)
        elif kind in ("influence", "bias"):
            y, theta, p = args
            values = out if kind == "influence" else out.second_order
            if not np.all(np.isfinite(values)):
                problems.append(f"{kind} y={y} theta={theta}: non-finite output {values}")
            if p.beta == 0.0:
                if1 = out[0] if kind == "influence" else out.first_order[-1] / out.eps_grid[-1]
                if not abs(if1 - (y - theta)) <= 1e-6 * max(1.0, abs(y - theta)):
                    problems.append(f"{kind} y={y} theta={theta}: IF {if1!r}, expected {y - theta!r}")
        elif kind == "lsd":
            theta_g, theta_f, p = args
            if not (math.isfinite(out) and out >= -1e-10):
                problems.append(f"lsd({theta_g}, {theta_f}): {out!r}")
            if p.beta == 0.0 and p.gamma == 0.0:
                kl = _poisson_kl(theta_g, theta_f)
                if not abs(out - kl) <= 1e-9 * max(1.0, kl):
                    problems.append(f"lsd({theta_g}, {theta_f}) at beta=gamma=0: {out!r}, KL {kl!r}")
        elif not (0.0 <= out.p_value <= 1.0 and out.statistic >= 0.0):
            problems.append(f"{kind}: p-value {out.p_value!r}, statistic {out.statistic!r}")
    return problems
