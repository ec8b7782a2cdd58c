"""Monte-Carlo harness: sampling, configs, table runners, report emission."""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from lsdiv import (
    Contamination,
    ContaminationScheme,
    SimKind,
    SimulationConfig,
    SimulationReport,
    contaminated_sample,
    emit_report,
    sample_poisson,
)
from lsdiv.cli import main
from lsdiv.simulate import (
    ESTIMATION_BETA_GRID,
    GAMMA_GRID,
    SENTINEL,
    TESTING_BETA_GRID,
    replication_rng,
    report_to_csv,
    report_to_json,
    run_estimation_sim,
    run_simulation,
    run_testing_sim,
)


def small_estimation_config(**overrides):
    base = dict(
        kind=SimKind.ESTIMATION_BIAS,
        n=25,
        theta_true=4.0,
        replications=12,
        grid_beta=(0.0, 0.5),
        grid_gamma=(0.0, -1.0),
        seed=99,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestReplicationRng:
    def test_streams_reproducible(self):
        a = replication_rng(7, 3).random(5)
        b = replication_rng(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct_across_replications(self):
        a = replication_rng(7, 0).random(5)
        b = replication_rng(7, 1).random(5)
        assert not np.array_equal(a, b)


class TestSamplePoisson:
    def test_large_sample_moments(self):
        rng = replication_rng(0, 0)
        draws = sample_poisson(4.0, 1_000_000, rng)
        assert 3.99 <= draws.mean() <= 4.01
        assert 3.95 <= draws.var() <= 4.05

    def test_deterministic_for_fixed_stream(self):
        d1 = sample_poisson(4.0, 100, replication_rng(5, 2))
        d2 = sample_poisson(4.0, 100, replication_rng(5, 2))
        np.testing.assert_array_equal(d1, d2)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            sample_poisson(0.0, 10, replication_rng(0, 0))

    def test_underflowing_theta_raises_promptly(self):
        # the first Poisson mass underflows to 0 at theta = 800, so the CDF
        # can never reach 1; the window scan must end with a typed error
        start = time.perf_counter()
        with pytest.raises(FloatingPointError):
            sample_poisson(800.0, 10, replication_rng(0, 0))
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("theta", [730.0, 740.0])
    def test_subnormal_first_mass_raises(self, theta):
        # a CDF built from a subnormal first mass would be short of 1
        with pytest.raises(FloatingPointError):
            sample_poisson(theta, 10, replication_rng(0, 0))


class TestContaminatedSample:
    def test_no_contamination_passthrough(self):
        pure = sample_poisson(4.0, 50, replication_rng(1, 0))
        same = contaminated_sample(50, 4.0, None, replication_rng(1, 0))
        np.testing.assert_array_equal(pure, same)

    def test_replace_fixed_count_exact(self):
        contam = Contamination(0.1, 500.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        sample = contaminated_sample(50, 4.0, contam, replication_rng(2, 0))
        assert int(np.sum(sample > 100)) == 5  # exactly floor(0.1 * 50) replaced

    def test_mixture_draw_mean(self):
        contam = Contamination(0.1, 15.0, ContaminationScheme.MIXTURE_DRAW)
        sample = contaminated_sample(1_000_000, 2.0, contam, replication_rng(3, 0))
        assert 3.27 <= sample.mean() <= 3.33  # mixture mean 0.9*2 + 0.1*15

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            Contamination(1.0, 12.0, ContaminationScheme.MIXTURE_DRAW)


class TestSimulationConfig:
    def test_default_grids_by_kind(self):
        est = SimulationConfig(kind=SimKind.ESTIMATION_BIAS, n=50, theta_true=4.0)
        assert est.grid_beta == ESTIMATION_BETA_GRID
        tst = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=50, theta_true=2.0, theta_null=2.0
        )
        assert tst.grid_beta == TESTING_BETA_GRID
        assert est.grid_gamma == GAMMA_GRID

    def test_round_trip(self):
        config = small_estimation_config(
            contamination=Contamination(0.1, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
        )
        again = SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_target_defaults_to_theta_true(self):
        config = small_estimation_config()
        assert config.target() == 4.0
        assert small_estimation_config(theta_target=3.0).target() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            small_estimation_config(replications=0)
        with pytest.raises(ValueError):
            small_estimation_config(grid_gamma=())


class TestRunners:
    def test_estimation_cells_and_sentinel(self):
        report = run_estimation_sim(small_estimation_config())
        assert len(report.cells) == 4
        by_key = {(c.beta, c.gamma): c for c in report.cells}
        degenerate = by_key[(0.0, -1.0)]  # exp_a = 0: not estimable
        assert degenerate.metrics == {"bias": None, "mse": None}
        assert degenerate.failures == degenerate.replications
        healthy = by_key[(0.0, 0.0)]
        assert healthy.failures == 0
        assert abs(healthy.metrics["bias"]) < 1.0
        assert healthy.metrics["mse"] > 0.0

    def test_testing_requires_theta_null(self):
        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=30, theta_true=2.0, replications=5,
            grid_beta=(0.0,), grid_gamma=(0.0,),
        )
        with pytest.raises(ValueError):
            run_testing_sim(config)

    def test_testing_level_cell(self):
        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=40, theta_true=2.0, theta_null=2.0,
            replications=25, grid_beta=(0.0,), grid_gamma=(0.0,), seed=17,
        )
        report = run_simulation(config)
        (cell,) = report.cells
        assert 0.0 <= cell.metrics["level"] <= 0.3
        assert report.wall_time > 0.0

    @pytest.mark.parametrize("kind", ["if_curve", "bias_approx"])
    def test_curve_kinds_rejected(self, kind, tmp_path):
        raw = dict(kind=kind, n=20, theta_true=4.0, replications=2)
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.output.strip().splitlines()[-1])

    def test_wrong_kind_rejected_by_runners(self):
        config = small_estimation_config()
        with pytest.raises(ValueError):
            run_testing_sim(config)


class TestDeterminismAndReports:
    def test_serial_parallel_byte_identical(self):
        config = small_estimation_config(replications=8, grid_gamma=(0.0,))
        serial = report_to_csv(run_estimation_sim(config, n_jobs=1))
        parallel = report_to_csv(run_estimation_sim(config, n_jobs=3))
        assert serial == parallel

    def test_repeat_run_byte_identical(self, tmp_path):
        config = small_estimation_config(replications=6, grid_gamma=(0.0,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_estimation_sim(config), "csv", p1)
        emit_report(run_estimation_sim(config), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wall_time_stays_out_of_report_bytes(self):
        config = small_estimation_config(replications=4, grid_gamma=(0.0,))
        first, second = run_estimation_sim(config), run_estimation_sim(config)
        assert first.wall_time > 0.0 and second.wall_time > 0.0
        assert report_to_csv(first) == report_to_csv(second)
        assert report_to_json(first) == report_to_json(second)

    def test_csv_shape(self):
        report = run_estimation_sim(small_estimation_config(replications=4))
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,beta,metric,value,n_fail"
        assert len(lines) == 1 + 2 * 4  # two metrics per cell
        assert any(SENTINEL in line for line in lines[1:])

    def test_json_round_trip(self):
        report = run_estimation_sim(small_estimation_config(replications=4))
        again = SimulationReport.from_dict(json.loads(report_to_json(report)))
        assert report_to_json(again) == report_to_json(report)

    def test_emit_unknown_format(self, tmp_path):
        report = run_estimation_sim(small_estimation_config(replications=2))
        with pytest.raises(ValueError):
            emit_report(report, "xml", tmp_path / "r.xml")

    def test_emit_io_error_has_path_context(self):
        report = run_estimation_sim(small_estimation_config(replications=2))
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report(report, "csv", "/no/such/dir/report.csv")
