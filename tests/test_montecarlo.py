"""Replication-scale calibration and variance properties (slow).

These tests tie the asymptotic formulas and the test calibration to actual
Monte-Carlo behavior of the full pipeline.  They run thousands of fits, so
everything goes through the parallel harness with per-replication RNG
streams (results are identical at any parallelism degree).
"""

import numpy as np
import pytest

from lsdiv import (
    Contamination,
    ContaminationScheme,
    SimKind,
    SimulationConfig,
    TiltParams,
    general_jk,
    minimize_lsd,
    model_jkxi,
)
from lsdiv.simulate import _map_ordered, run_estimation_sim, run_testing_sim
from helpers import mixture_density, two_sample_reject_worker

pytestmark = pytest.mark.slow

N_JOBS = 4


def cell_variance(cell) -> float:
    return cell.metrics["mse"] - cell.metrics["bias"] ** 2


class TestSandwichConsistency:
    def test_model_sandwich_matches_mc_variance(self, family):
        config = SimulationConfig(
            kind=SimKind.ESTIMATION_BIAS, n=1000, theta_true=4.0, replications=2000,
            grid_beta=(0.0, 0.5), grid_gamma=(0.0,), seed=260823,
        )
        report = run_estimation_sim(config, n_jobs=N_JOBS)
        for cell in report.cells:
            predicted = model_jkxi(family, 4.0, cell.beta).sandwich
            observed = config.n * cell_variance(cell)
            assert observed == pytest.approx(predicted, rel=0.10), cell.beta

    def test_contaminated_sandwich_matches_mc_variance(self, family):
        p = TiltParams(0.0, 0.0)
        g = mixture_density(family, 4.0, 12.0, 0.1)
        theta_g = minimize_lsd(g, family, p).theta_hat
        predicted = general_jk(g, family, theta_g, p).sandwich
        config = SimulationConfig(
            kind=SimKind.ESTIMATION_BIAS, n=500, theta_true=4.0, replications=2000,
            contamination=Contamination(0.1, 12.0, ContaminationScheme.MIXTURE_DRAW),
            grid_beta=(0.0,), grid_gamma=(0.0,), seed=31415,
        )
        report = run_estimation_sim(config, n_jobs=N_JOBS)
        observed = config.n * cell_variance(report.cells[0])
        assert observed == pytest.approx(predicted, rel=0.15)


class TestNullCalibration:
    def test_level_at_half_half(self, family):
        # The harness rejects on the unweighted chi-square critical value, so
        # the asymptotic level is the zeta1-implied inflation, not 0.05.  A
        # large-n run therefore cross-checks null_law against the pipeline.
        from scipy.stats import chi2

        from lsdiv import null_law

        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=200, theta_true=2.0, theta_null=2.0,
            replications=5000, grid_beta=(0.5,), grid_gamma=(0.5,), seed=777,
        )
        zeta = null_law(family, 2.0, TiltParams(0.5, 0.5))
        predicted = float(chi2.sf(chi2.ppf(0.95, 1) / zeta, 1))
        report = run_testing_sim(config, n_jobs=N_JOBS)
        level = report.cells[0].metrics["level"]
        assert level == pytest.approx(predicted, abs=0.015)

    def test_reference_levels_at_n100(self, family):
        # published reference levels: 0.048 at (0, 0) and 0.127 at (1, 0)
        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=100, theta_true=2.0, theta_null=2.0,
            replications=2000, grid_beta=(0.0, 1.0), grid_gamma=(0.0,), seed=551,
        )
        report = run_testing_sim(config, n_jobs=N_JOBS)
        by_beta = {c.beta: c.metrics["level"] for c in report.cells}
        assert by_beta[0.0] == pytest.approx(0.048, abs=0.025)
        assert by_beta[1.0] == pytest.approx(0.127, abs=0.025)

    def test_power_grows_with_sample_size(self, family):
        powers = {}
        for n in (20, 100):
            config = SimulationConfig(
                kind=SimKind.TESTING_POWER, n=n, theta_true=2.0, theta_null=3.0,
                replications=300, grid_beta=(0.0, 0.4), grid_gamma=(0.0, 0.5), seed=88,
            )
            report = run_testing_sim(config, n_jobs=N_JOBS)
            powers[n] = {(c.beta, c.gamma): c.metrics["power"] for c in report.cells}
        for key, small_n_power in powers[20].items():
            assert powers[100][key] >= small_n_power
            assert powers[100][key] >= 0.9


class TestTwoSampleCalibration:
    def test_level_at_likelihood_disparity(self):
        reps = 2000
        args = [(909, rep, 200, 200, 2.0, 0.0, 0.0, 0.05) for rep in range(reps)]
        rejects = _map_ordered(two_sample_reject_worker, args, N_JOBS)
        level = float(np.mean(rejects))
        assert 0.03 <= level <= 0.07
