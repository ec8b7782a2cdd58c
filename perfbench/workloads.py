"""The benchmark's workloads: three Monte-Carlo tables and a mix of API calls.

A workload is a list of units of work, each one call into lsdiv: a table
cell for the tables, a single call for ``api_mix``.  ``units(seed)`` returns
them as no-argument callables whose result is what the output check reads.

Every call into lsdiv goes through a module attribute looked up at call
time (``simulate.run_estimation_sim``, not a name imported once), so the
tracer's wrappers see the calls the benchmark makes itself.

Tables are run one grid cell per call.  Cells are independent (each
replication draws from the stream keyed by (seed, replication)), so the
cells of one pass, in gamma-major order, are the cells of the full-grid
table; ``make_reference.py`` builds the reference with full-grid calls.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import replace
from functools import partial

import numpy as np

from lsdiv import asymptotics, cli, divergence, estimation, families, hypotest, simulate
from lsdiv.divergence import TiltParams
from lsdiv.simulate import Contamination, ContaminationScheme, SimKind, SimulationConfig

REFERENCE_SEED = 0


def cell_dicts(report) -> list[dict]:
    return [
        {
            "beta": c.beta,
            "gamma": c.gamma,
            "metrics": dict(c.metrics),
            "replications": c.replications,
            "failures": c.failures,
        }
        for c in report.cells
    ]


def parse_csv_report(data: bytes) -> list[dict]:
    """Cells of a CSV simulation report (header gamma,beta,metric,value,n_fail)."""
    cells: dict[tuple[float, float], dict] = {}
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        key = (float(row["beta"]), float(row["gamma"]))
        cell = cells.setdefault(
            key, {"beta": key[0], "gamma": key[1], "metrics": {}, "failures": int(row["n_fail"])}
        )
        cell["metrics"][row["metric"]] = None if row["value"] == "--" else float(row["value"])
    return list(cells.values())


class TableWorkload:
    """A Monte-Carlo table over a (beta, gamma) grid, one cell per call."""

    unit = "replication"
    kind: SimKind
    name: str
    n: int
    theta: float  # the parameter samples are drawn at
    theta_null: float | None = None
    contamination: Contamination | None = None
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    replications: int

    def config(self, seed: int, cell: tuple[float, float] | None = None) -> SimulationConfig:
        """The workload's table at one seed; ``cell`` restricts it to one (beta, gamma)."""
        betas, gammas = (self.betas, self.gammas) if cell is None else ((cell[0],), (cell[1],))
        return SimulationConfig(
            kind=self.kind,
            n=self.n,
            theta_true=self.theta,
            theta_null=self.theta_null,
            replications=self.replications,
            contamination=self.contamination,
            grid_beta=betas,
            grid_gamma=gammas,
            seed=seed,
        )

    @property
    def cells(self) -> list[tuple[float, float]]:
        return [(b, g) for g in self.gammas for b in self.betas]

    @property
    def units_per_pass(self) -> int:
        return self.replications * len(self.cells)

    def fit_inputs(self, seed: int, rep: int):
        """The sample that replication ``rep`` of a table at ``seed`` fits."""
        rng = simulate.replication_rng(seed, rep)
        return simulate.contaminated_sample(self.n, self.theta, self.contamination, rng)

    def table(self, outputs: list) -> list[dict]:
        """The cells of a pass, from the outputs of its units."""
        return [cell for out in outputs for cell in self.cell_results(out)]

    def failures(self, outputs: list) -> int:
        """Failed replications, summed over the table's cells."""
        return sum(cell["failures"] for cell in self.table(outputs))

    def close(self) -> None:
        pass


class EstimationTable(TableWorkload):
    """``run_estimation_sim`` called serially, one cell per call."""

    kind = SimKind.ESTIMATION_BIAS

    def __init__(self, name, n, theta, contamination, betas, gammas, replications):
        self.name, self.n, self.theta = name, n, theta
        self.contamination, self.betas, self.gammas = contamination, betas, gammas
        self.replications = replications

    def warm_up(self) -> None:
        config = self.config(REFERENCE_SEED, self.cells[-1])
        simulate.run_estimation_sim(replace(config, replications=1))

    def _cell(self, seed, cell, n_jobs):
        return simulate.run_estimation_sim(self.config(seed, cell), n_jobs=n_jobs)

    def units(self, seed: int, n_jobs: int = 1) -> list:
        return [partial(self._cell, seed, cell, n_jobs) for cell in self.cells]

    def cell_results(self, out) -> list[dict]:
        return cell_dicts(out)


class TestingPool(TableWorkload):
    """``lsdiv simulate`` through click's in-process entry point, one cell per call."""

    kind = SimKind.TESTING_LEVEL
    name = "test_pool"
    n = 100
    theta = 2.0
    theta_null = 2.0
    contamination = Contamination(0.1, 15.0, ContaminationScheme.MIXTURE_DRAW)
    betas = (0.0, 0.8)
    gammas = (0.0, 0.3)
    replications = 50
    n_jobs = 2

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.config_paths = []
        for i, cell in enumerate(self.cells):
            path = os.path.join(work_dir, f"cell{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.config(REFERENCE_SEED, cell).to_dict(), fh)
            self.config_paths.append(path)
        self.out_path = os.path.join(work_dir, "report.csv")

    def _simulate(self, config_path: str, seed: int, n_jobs: int, replications: int) -> bytes:
        args = [
            "simulate", "--config", config_path, "--seed", str(seed),
            "--replications", str(replications), "--n-jobs", str(n_jobs),
            "--out", self.out_path, "--format", "csv",
        ]
        cli.main(args, standalone_mode=False)
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def warm_up(self) -> None:
        self._simulate(self.config_paths[-1], REFERENCE_SEED, 1, 1)

    def units(self, seed: int, n_jobs: int | None = None) -> list:
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        return [
            partial(self._simulate, path, seed, n_jobs, self.replications)
            for path in self.config_paths
        ]

    def cell_results(self, out: bytes) -> list[dict]:
        return parse_csv_report(out)

    def close(self) -> None:
        for path in self.config_paths + [self.out_path]:
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.work_dir)


# ---------------------------------------------------------------------------
# api_mix
# ---------------------------------------------------------------------------

# One block of the stream; the shares follow the CLI subcommands.
API_BLOCK = (
    ("influence",) * 10 + ("bias",) * 2 + ("lsd",) * 2 + ("one_sample",) * 2
    + ("estimate",) * 3 + ("two_sample",)
)
API_BETAS = (0.0, 0.1, 0.2, 0.4, 0.5, 0.8, 1.0)
API_GAMMAS = (-0.5, -0.3, 0.0, 0.3, 0.5, 1.0)
EPS_GRID = np.linspace(0.0, 0.1, 21)


class ApiMix:
    """Closed loop, one caller: each call starts when the previous one returns.

    A pass is 50 blocks, 1000 calls, 150 of them ``minimize_lsd``.  One in
    twenty of those fits a sample whose mean lies in [150, 600]: inside the
    domain the API accepts, but the bracket top 5*mean+5 passes theta ~ 745,
    where exp(-theta) underflows, and today every such fit raises.  They are
    counted as failures, never filtered out.  Samples come from numpy's own
    Poisson sampler, never from ``sample_poisson``, whose CDF loop has no
    stop at such theta.
    """

    name = "api_mix"
    unit = "call"
    blocks_per_pass = 50

    def __init__(self):
        self.family = families.PoissonFamily()

    @property
    def units_per_pass(self) -> int:
        return self.blocks_per_pass * len(API_BLOCK)

    def make_calls(self, seed: int) -> list[tuple[str, tuple]]:
        """The seeded call stream of one pass.  Parameters are stratified per
        call kind, so that streams of different seeds carry the same mix of
        cheap and costly calls."""
        rng = np.random.default_rng([seed, 1407])
        kinds = [str(k) for _ in range(self.blocks_per_pass) for k in rng.permutation(API_BLOCK)]

        def spread(values, count):
            return [values[i] for i in rng.permutation(np.arange(count) % len(values))]

        def uniform(lo, hi, count):
            return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count

        draws = {}
        for kind in dict.fromkeys(API_BLOCK):  # a fixed order: a set's depends on the hash seed
            count = kinds.count(kind)
            draws[kind] = iter(zip(
                spread(API_BETAS, count), spread(API_GAMMAS, count),
                uniform(1.0, 12.0, count), uniform(1.0, 12.0, count),
                spread(range(31), count), spread((50, 100), count),
                spread([True] * (count // 20) + [False] * (count - count // 20), count),
            ))
        calls = []
        for kind in kinds:
            beta, gamma, theta, theta2, y, n, large = next(draws[kind])
            p = TiltParams(float(beta), float(gamma))
            theta, theta2 = float(theta), float(theta2)
            if kind in ("influence", "bias"):
                args = (int(y), theta, p)
            elif kind == "lsd":
                args = (theta, theta2, p)
            elif kind == "one_sample":
                args = (rng.poisson(theta, n), theta2, p)
            elif kind == "estimate":
                mean = 160.0 + 430.0 * (theta - 1.0) / 11.0 if large else theta
                args = (rng.poisson(mean, n), p)
            else:
                args = (rng.poisson(theta, 50), rng.poisson(theta, 50), p)
            calls.append((kind, args))
        return calls

    def _call(self, kind: str, args: tuple):
        fam = self.family
        if kind == "influence":
            y, theta, p = args
            return (
                asymptotics.if_first_order(y, None, fam, theta, p),
                asymptotics.if_second_order(y, fam, theta, p),
                hypotest.second_order_test_influence(y, fam, theta, p),
            )
        if kind == "bias":
            y, theta, p = args
            return asymptotics.bias_curves(y, fam, theta, p, EPS_GRID)
        if kind == "lsd":
            theta_g, theta_f, p = args
            g, f = hypotest.model_pair_densities(fam, theta_g, theta_f)
            return divergence.lsd(g, f, p)
        if kind == "one_sample":
            sample, theta0, p = args
            return hypotest.one_sample_test(sample, fam, theta0, p)
        if kind == "estimate":
            sample, p = args
            return estimation.minimize_lsd(estimation.empirical_frequencies(sample), fam, p)
        sample1, sample2, p = args
        return hypotest.two_sample_statistic(sample1, sample2, fam, p)

    def _guarded(self, kind: str, args: tuple):
        """(kind, args, result); a raised exception takes the result's place."""
        try:
            return kind, args, self._call(kind, args)
        except Exception as exc:  # every failure is counted, none is fatal
            return kind, args, exc

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        hypotest.one_sample_test(rng.poisson(4.0, 50), self.family, 4.0, TiltParams(0.4, 0.5))

    def units(self, seed: int, n_jobs: int = 1) -> list:
        return [partial(self._guarded, kind, args) for kind, args in self.make_calls(seed)]

    @staticmethod
    def failures(outputs: list) -> int:
        """Calls that raised, and fits that did not converge."""
        return sum(
            isinstance(out, Exception) or (kind == "estimate" and not out.converged)
            for kind, _, out in outputs
        )

    def close(self) -> None:
        pass


def make_workload(name: str, work_dir: str):
    if name == "est_table":
        return EstimationTable(
            "est_table", 50, 4.0,
            Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT),
            (0.0, 0.2, 0.4, 1.0), (0.0, 0.5), replications=30,
        )
    if name == "est_wide":
        return EstimationTable(
            "est_wide", 200, 100.0, None, (0.0, 0.5, 1.0), (0.0, 0.5), replications=20,
        )
    if name == "test_pool":
        return TestingPool(work_dir)
    if name == "api_mix":
        return ApiMix()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("est_table", "est_wide", "test_pool", "api_mix")
