"""Command-line front end.

Subcommands: divergence, estimate, influence, bias-approx, test, simulate.
Numeric results go to stdout as JSON unless --out is given; curve and table
emitters write CSV (or JSON for simulation reports).  All randomness is
controlled by explicit --seed values, so outputs are byte-reproducible.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .asymptotics import bias_curves, if_first_order, if_second_order
from .divergence import Psi, TiltParams
from .estimation import empirical_frequencies, minimize_lsd
from .families import PoissonFamily
from .hypotest import (
    divergence_between_fits,
    one_sample_test,
    second_order_test_influence,
    two_sample_statistic,
)
from .simulate import SimulationConfig, emit_report, run_simulation


def _fail(message: str) -> None:
    click.echo(json.dumps({"error": message}), err=True)
    sys.exit(1)


def _emit(payload: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            _fail(str(exc))
    else:
        click.echo(payload, nl=not payload.endswith("\n"))


def _parse_sample(text: str | None, path: str | None) -> np.ndarray:
    if (text is None) == (path is None):
        _fail("provide exactly one of --data or --data-file")
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            _fail(f"cannot read {path}: {exc}")
    tokens = text.replace(",", " ").split()
    try:
        return np.array([int(t) for t in tokens])
    except ValueError:
        _fail("sample entries must be integers")


@click.group()
def main() -> None:
    """Logarithmic super divergence toolkit."""


tilt_options = [
    click.option("--beta", type=float, required=True, help="tilt parameter beta >= 0"),
    click.option("--gamma", type=float, required=True, help="tilt parameter gamma"),
]


def with_tilt(cmd):
    for opt in reversed(tilt_options):
        cmd = opt(cmd)
    return cmd


@main.command()
@with_tilt
@click.option("--theta-g", type=float, required=True, help="Poisson parameter of the data-side density")
@click.option("--theta-f", type=float, required=True, help="Poisson parameter of the model-side density")
@click.option("--psi", type=click.Choice(["log", "identity"]), default="log")
@click.option("--out", type=click.Path(), default=None)
def divergence(beta, gamma, theta_g, theta_f, psi, out):
    """Divergence between two Poisson model densities.

    Both links sum log masses over the union of the two support windows, so
    a mass that underflows far in a tail does not matter: the log link
    combines the three log sums, the identity link their exps, which is an
    error where a sum exceeds a double.
    """
    try:
        value = divergence_between_fits(
            PoissonFamily(), theta_g, theta_f, TiltParams(beta, gamma), Psi(psi)
        )
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
    _emit(json.dumps({"beta": beta, "gamma": gamma, "psi": psi, "value": value}) + "\n", out)


@main.command()
@with_tilt
@click.option("--data", type=str, default=None, help="comma/space separated integers")
@click.option("--data-file", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
def estimate(beta, gamma, data, data_file, out):
    """Minimum-divergence Poisson fit of an integer sample."""
    sample = _parse_sample(data, data_file)
    try:
        result = minimize_lsd(
            empirical_frequencies(sample), PoissonFamily(), TiltParams(beta, gamma)
        )
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
    payload = {
        "theta_hat": result.theta_hat,
        "objective": result.objective,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "bracket": list(result.bracket),
    }
    _emit(json.dumps(payload) + "\n", out)


@main.command()
@with_tilt
@click.option("--theta", type=float, required=True, help="model parameter")
@click.option("--y-max", type=int, default=30, help="largest contamination point")
@click.option("--out", type=click.Path(), default=None)
def influence(beta, gamma, theta, y_max, out):
    """First/second-order influence curves at the model (CSV: y,beta,gamma,if1,if2,if2_test)."""
    if y_max < 0:
        _fail(f"--y-max must be >= 0, got {y_max}")
    family = PoissonFamily()
    lines = ["y,beta,gamma,if1,if2,if2_test"]
    try:
        p = TiltParams(beta, gamma)
        for y in range(y_max + 1):
            if1 = if_first_order(y, None, family, theta, p)
            if2 = if_second_order(y, family, theta, p)
            if2_test = second_order_test_influence(y, family, theta, p)
            lines.append(f"{y},{beta:g},{gamma:g},{if1:.12g},{if2:.12g},{if2_test:.12g}")
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
    _emit("\n".join(lines) + "\n", out)


@main.command("bias-approx")
@with_tilt
@click.option("--theta", type=float, required=True)
@click.option("--y", type=int, required=True, help="contamination point")
@click.option("--eps-max", type=float, default=0.1)
@click.option("--steps", type=int, default=21)
@click.option("--out", type=click.Path(), default=None)
def bias_approx(beta, gamma, theta, y, eps_max, steps, out):
    """Bias approximation curves (CSV: eps,first_order,second_order,adequacy)."""
    if steps < 1:
        _fail(f"--steps must be >= 1, got {steps}")
    try:
        curve = bias_curves(
            y, PoissonFamily(), theta, TiltParams(beta, gamma), np.linspace(0.0, eps_max, steps)
        )
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
    lines = ["eps,first_order,second_order,adequacy"]
    for e, fo, so, ad in zip(
        curve.eps_grid, curve.first_order, curve.second_order, curve.adequacy_ratio
    ):
        lines.append(f"{e:.6g},{fo:.12g},{so:.12g},{ad:.12g}")
    _emit("\n".join(lines) + "\n", out)


@main.command("test")
@with_tilt
@click.option("--data", type=str, default=None)
@click.option("--data-file", type=click.Path(), default=None)
@click.option("--data2", type=str, default=None, help="second sample enables the two-sample test")
@click.option("--theta0", type=float, default=None, help="null parameter (one-sample test only)")
@click.option("--level", type=float, multiple=True, default=(0.05,),
              help="significance level in (0, 1); repeatable")
@click.option("--out", type=click.Path(), default=None)
def test_cmd(beta, gamma, data, data_file, data2, theta0, level, out):
    """One- or two-sample divergence test; prints a TestResult JSON object."""
    sample = _parse_sample(data, data_file)
    try:
        p = TiltParams(beta, gamma)
        if data2 is not None:
            if theta0 is not None:
                _fail("--theta0 applies to the one-sample test only, not with --data2")
            sample2 = _parse_sample(data2, None)
            result = two_sample_statistic(sample, sample2, PoissonFamily(), p, levels=level)
        else:
            if theta0 is None:
                _fail("--theta0 is required for the one-sample test")
            result = one_sample_test(sample, PoissonFamily(), theta0, p, levels=level)
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc))
    _emit(json.dumps(result.to_dict()) + "\n", out)


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True,
              help="JSON file matching the SimulationConfig schema")
@click.option("--seed", type=int, default=None, help="overrides the config seed")
@click.option("--replications", type=int, default=None, help="overrides the config value")
@click.option("--n-jobs", type=int, default=1,
              help="processes that run the replications, this one included")
@click.option("--out", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def simulate(config_path, seed, replications, n_jobs, out, fmt):
    """Run a Monte-Carlo table and write it as CSV or JSON."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):  # from_dict rejects any other JSON value
            if seed is not None:
                raw["seed"] = seed
            if replications is not None:
                raw["replications"] = replications
        config = SimulationConfig.from_dict(raw)
        report = run_simulation(config, n_jobs=n_jobs)
        emit_report(report, fmt, out)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    main()
