"""Command-line interface: subcommands, file emission, error contract."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdiv.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


class TestDivergenceCommand:
    def test_json_payload(self, runner):
        result = run_ok(
            runner,
            ["divergence", "--beta", "0.5", "--gamma", "0.3",
             "--theta-g", "3", "--theta-f", "4"],
        )
        payload = json.loads(result.output)
        assert payload["value"] > 0.0
        assert payload["psi"] == "log"

    def test_identity_psi(self, runner):
        result = run_ok(
            runner,
            ["divergence", "--beta", "0.5", "--gamma", "0.3",
             "--theta-g", "3", "--theta-f", "3", "--psi", "identity"],
        )
        assert abs(json.loads(result.output)["value"]) < 1e-10

    def test_psi_selects_the_link(self, runner):
        from lsdiv import PoissonFamily, Psi, TiltParams, gsd, lsd
        from lsdiv.hypotest import model_pair_densities

        g, f = model_pair_densities(PoissonFamily(), 3.0, 4.0)
        p = TiltParams(0.5, 0.3)
        values = {}
        for psi in ("log", "identity"):
            result = run_ok(
                runner,
                ["divergence", "--beta", "0.5", "--gamma", "0.3",
                 "--theta-g", "3", "--theta-f", "4", "--psi", psi],
            )
            values[psi] = json.loads(result.output)["value"]
        assert values["log"] == lsd(g, f, p)
        assert values["identity"] == gsd(g, f, p, Psi.IDENTITY)
        assert values["identity"] == pytest.approx(0.05456, abs=1e-5)
        assert values["log"] == pytest.approx(0.14054, abs=1e-5)

    def test_log_link_far_apart_thetas(self, runner):
        # the log link sums log masses: a model mass that underflows in the
        # other model's window must not fail the command, and equal models
        # give 0, not a negative residue.  The oracle sums scipy's log masses
        # over the union of the two support windows.
        from scipy.special import logsumexp
        from scipy.stats import poisson

        from lsdiv import PoissonFamily

        family = PoissonFamily()
        for theta_g in (0.5, 1.0, 5.0, 30.0, 200.0, 400.0):
            for theta_f in (0.5, 1.0, 10.0, 100.0, theta_g):
                for beta, gamma in ((0.1, -0.5), (0.1, 0.0), (0.5, 0.5), (1.0, 1.5), (0.5, 1.5)):
                    result = run_ok(
                        runner,
                        ["divergence", "--beta", str(beta), "--gamma", str(gamma),
                         "--theta-g", str(theta_g), "--theta-f", str(theta_f)],
                    )
                    value = json.loads(result.output)["value"]
                    if theta_g == theta_f:
                        assert 0.0 <= value < 1e-12
                        continue
                    a, b = 1.0 + gamma * (1.0 - beta), beta - gamma * (1.0 - beta)
                    x = np.arange(max(family.support_window(t)[1] for t in (theta_g, theta_f)))
                    logg, logf = poisson.logpmf(x, theta_g), poisson.logpmf(x, theta_f)
                    oracle = (
                        logsumexp((1.0 + beta) * logf) / a
                        - (1.0 + beta) / (a * b) * logsumexp(b * logf + a * logg)
                        + logsumexp((1.0 + beta) * logg) / b
                    )
                    assert value == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_identity_link_far_apart_thetas(self, runner):
        # Poisson(1)'s masses underflow on Poisson(200)'s window; the
        # identity link sums log masses as the log link does
        result = run_ok(
            runner,
            ["divergence", "--beta", "0.5", "--gamma", "0.5",
             "--theta-g", "200", "--theta-f", "1", "--psi", "identity"],
        )
        value = json.loads(result.output)["value"]
        assert np.isfinite(value) and value > 0.0

    def test_identity_link_overflow_is_an_error(self, runner):
        # at B < 0 the sum of f^B g^A exceeds a double here; the command
        # reports it instead of printing Infinity, which is not JSON
        result = runner.invoke(
            main,
            ["divergence", "--beta", "0.1", "--gamma", "3",
             "--theta-g", "80", "--theta-f", "1", "--psi", "identity"],
        )
        assert result.exit_code == 1
        assert "overflows" in json.loads(result.output.strip().splitlines()[-1])["error"]

    def test_degenerate_exponent_error(self, runner):
        result = runner.invoke(
            main,
            ["divergence", "--beta", "0", "--gamma", "0",
             "--theta-g", "2", "--theta-f", "3", "--psi", "identity"],
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.output.strip().splitlines()[-1])


class TestEstimateCommand:
    def test_inline_data(self, runner):
        result = run_ok(
            runner,
            ["estimate", "--beta", "0", "--gamma", "0", "--data", "3,4,5,4,4"],
        )
        payload = json.loads(result.output)
        assert payload["theta_hat"] == pytest.approx(4.0, abs=1e-6)
        assert payload["converged"] is True

    def test_negative_objective_not_converged(self, runner):
        # at beta = 1e300 the LSD's log sums cancel to a hugely negative
        # objective; the LSD is >= 0, so such a fit has not converged
        result = run_ok(
            runner, ["estimate", "--beta", "1e300", "--gamma", "0", "--data", "1,2,3"]
        )
        payload = json.loads(result.output)
        assert payload["objective"] < -1e-10
        assert payload["converged"] is False

    def test_underflowing_bracket_error(self, runner):
        # the bracket reaches theta ~ 1e4, where the Poisson masses underflow
        # and the support window scan stops with a typed error
        result = runner.invoke(
            main, ["estimate", "--beta", "0.5", "--gamma", "0", "--data", "2000,2010,1990"]
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.output.strip().splitlines()[-1])

    def test_data_file(self, runner, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("2 2 2 2\n")
        result = run_ok(
            runner,
            ["estimate", "--beta", "0", "--gamma", "0", "--data-file", str(path)],
        )
        assert json.loads(result.output)["theta_hat"] == pytest.approx(2.0, abs=1e-4)

    def test_both_sources_rejected(self, runner, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("1 2\n")
        result = runner.invoke(
            main,
            ["estimate", "--beta", "0", "--gamma", "0",
             "--data", "1,2", "--data-file", str(path)],
        )
        assert result.exit_code == 1

    def test_non_integer_data_rejected(self, runner):
        result = runner.invoke(
            main, ["estimate", "--beta", "0", "--gamma", "0", "--data", "1.5,2"]
        )
        assert result.exit_code == 1

    def test_entry_past_the_longest_window_rejected(self, runner):
        # bincount would ask for 8 TiB and raise MemoryError
        result = runner.invoke(
            main, ["estimate", "--beta", ".5", "--gamma", ".5", "--data", f"3 {2**40}"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        error = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert "longest support window" in error

    def test_largest_int64_entry_rejected(self):
        # bincount's length overflows and it writes past its buffer, which
        # aborts the interpreter: run the command in a child
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys; sys.path[:0] = sys.argv[1:2]\n"
            "from lsdiv.cli import main\n"
            "main(sys.argv[2:])\n"
        )
        args = ["estimate", "--beta", ".5", "--gamma", ".5", "--data", f"3 {2**63 - 1}"]
        done = subprocess.run(
            [sys.executable, "-c", code, src, *args], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 1, done.stderr
        assert "longest support window" in json.loads(done.stderr.strip())["error"]


class TestNonFiniteTilt:
    """A NaN or infinite beta or gamma is an error, never a NaN in the JSON."""

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--beta", "nan", "--gamma", "0.5", "--data", "1,2,3"],
            ["divergence", "--beta", "0.2", "--gamma", "inf", "--theta-g", "2", "--theta-f", "3"],
            ["influence", "--beta", "nan", "--gamma", "0", "--theta", "4", "--y-max", "2"],
            ["bias-approx", "--beta", "0.2", "--gamma", "-inf", "--theta", "4", "--y", "12"],
            ["test", "--beta", "0", "--gamma", "nan", "--data", "1,2,3", "--theta0", "2"],
        ],
        ids=["estimate", "divergence", "influence", "bias-approx", "test"],
    )
    def test_rejected_with_error_payload(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "finite" in json.loads(result.output.strip().splitlines()[-1])["error"]


class TestNonFiniteTheta:
    """A NaN or infinite model parameter is rejected before any window scan."""

    @pytest.mark.parametrize(
        "args",
        [
            ["influence", "--beta", "0.4", "--gamma", "0.5", "--theta", "nan", "--y-max", "3"],
            ["influence", "--beta", "0.4", "--gamma", "0.5", "--theta", "inf", "--y-max", "3"],
            ["divergence", "--beta", "0.2", "--gamma", "0.5", "--theta-g", "nan", "--theta-f", "3"],
            ["bias-approx", "--beta", "0.2", "--gamma", "0.5", "--theta", "nan", "--y", "12"],
        ],
        ids=["influence-nan", "influence-inf", "divergence-nan", "bias-approx-nan"],
    )
    def test_rejected_with_error_payload(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        error = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert "positive and finite" in error


class TestCurveCommands:
    def test_influence_csv(self, runner):
        result = run_ok(
            runner,
            ["influence", "--beta", "0.5", "--gamma", "0", "--theta", "4", "--y-max", "5"],
        )
        lines = result.output.strip().split("\n")
        assert lines[0] == "y,beta,gamma,if1,if2,if2_test"
        assert len(lines) == 7

    def test_negative_y_max_rejected(self, runner):
        result = runner.invoke(
            main, ["influence", "--beta", "0.5", "--gamma", "0", "--theta", "4", "--y-max", "-3"]
        )
        assert result.exit_code == 1
        assert "y-max" in json.loads(result.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize(
        "option,value,message",
        [("--eps-max", "-0.5", "[0, 1]"), ("--eps-max", "3", "[0, 1]"),
         ("--eps-max", "nan", "[0, 1]"), ("--steps", "0", "steps"), ("--steps", "-2", "steps")],
    )
    def test_bias_approx_impossible_grid_rejected(self, runner, option, value, message):
        result = runner.invoke(
            main,
            ["bias-approx", "--beta", "0.3", "--gamma", "0", "--theta", "4", "--y", "12",
             option, value],
        )
        assert result.exit_code == 1
        assert message in json.loads(result.output.strip().splitlines()[-1])["error"]

    def test_bias_approx_csv(self, runner, tmp_path):
        out = tmp_path / "bias.csv"
        run_ok(
            runner,
            ["bias-approx", "--beta", "0.3", "--gamma", "0", "--theta", "4",
             "--y", "12", "--eps-max", "0.1", "--steps", "5", "--out", str(out)],
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,first_order,second_order,adequacy"
        assert len(lines) == 6
        first_row = lines[1].split(",")
        assert float(first_row[1]) == 0.0


class TestTestCommand:
    def test_one_sample(self, runner):
        result = run_ok(
            runner,
            ["test", "--beta", "0", "--gamma", "0", "--theta0", "2",
             "--data", "2,1,3,2,2,4,1,2"],
        )
        payload = json.loads(result.output)
        assert 0.0 <= payload["p_value"] <= 1.0
        assert set(payload) == {"statistic", "weight", "p_value", "reject_at"}
        assert payload["weight"] == pytest.approx(1.0, abs=1e-5)  # zeta at beta = 0

    def test_two_sample(self, runner):
        result = run_ok(
            runner,
            ["test", "--beta", "0.2", "--gamma", "0.1",
             "--data", "2,1,3,2,2,4,1,2", "--data2", "2,3,3,2,1,2"],
        )
        assert json.loads(result.output)["statistic"] >= 0.0

    @pytest.mark.parametrize("levels", [["1.5"], ["0.05", "-2"], ["0"], ["1"]])
    @pytest.mark.parametrize("two_sample", [False, True])
    def test_level_outside_unit_interval(self, runner, levels, two_sample):
        args = ["test", "--beta", "0.2", "--gamma", "0", "--data", "2,1,3,2,2,4,1,2"]
        args += ["--data2", "2,3,3,2,1,2"] if two_sample else ["--theta0", "2"]
        for level in levels:
            args += ["--level", level]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "level" in json.loads(result.output.strip().splitlines()[-1])["error"]

    def test_seed_option_removed(self, runner):
        result = runner.invoke(
            main, ["test", "--beta", "0", "--gamma", "0", "--theta0", "2",
                   "--data", "1,2,3", "--seed", "1"]
        )
        assert result.exit_code == 2  # click's usage error: no such option

    def test_theta0_with_second_sample_rejected(self, runner):
        # the two-sample null law is evaluated at the pooled estimate, so a
        # --theta0 there would be silently ignored
        result = runner.invoke(
            main, ["test", "--beta", "0.2", "--gamma", "0", "--data", "2,1,3,2,2,4,1,2",
                   "--data2", "2,3,3,2,1,2", "--theta0", "100"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "theta0" in json.loads(result.output.strip().splitlines()[-1])["error"]

    def test_missing_theta0(self, runner):
        result = runner.invoke(
            main, ["test", "--beta", "0", "--gamma", "0", "--data", "1,2,3"]
        )
        assert result.exit_code == 1
        assert "theta0" in result.output


class TestSimulateCommand:
    @staticmethod
    def write_config(tmp_path, **overrides):
        config = dict(
            kind="estimation_bias", n=20, theta_true=4.0, replications=6,
            grid_beta=[0.0], grid_gamma=[0.0], seed=1,
        )
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_csv_output(self, runner, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        run_ok(runner, ["simulate", "--config", str(config), "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma,beta,metric,value,n_fail"
        assert len(lines) == 3

    def test_json_output_and_seed_override(self, runner, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        run_ok(
            runner,
            ["simulate", "--config", str(config), "--out", str(out),
             "--format", "json", "--seed", "42", "--replications", "4"],
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"]["seed"] == 42
        assert payload["cells"][0]["replications"] == 4

    def test_byte_identical_runs(self, runner, tmp_path):
        config = self.write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_ok(runner, ["simulate", "--config", str(config), "--out", str(out1)])
        run_ok(runner, ["simulate", "--config", str(config), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n_jobs", ["0", "-3"])
    def test_n_jobs_below_one_rejected(self, runner, tmp_path, n_jobs):
        config = self.write_config(tmp_path)
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["simulate", "--config", str(config), "--out", str(out), "--n-jobs", n_jobs]
        )
        assert result.exit_code == 1
        assert "n_jobs" in json.loads(result.output.strip().splitlines()[-1])["error"]
        assert not out.exists()

    def test_bad_config_errors(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "estimation_bias"}))  # missing fields
        result = runner.invoke(
            main,
            ["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.output.strip().splitlines()[-1])

    @pytest.mark.parametrize("raw", ["[1, 2]", "null", '"config"', "3"])
    @pytest.mark.parametrize(
        "overrides", [[], ["--seed", "3"], ["--replications", "3"]], ids=["plain", "seed", "reps"]
    )
    def test_config_that_is_not_an_object(self, runner, tmp_path, raw, overrides):
        path = tmp_path / "config.json"
        path.write_text(raw)
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--out", str(out), *overrides]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.output.strip().splitlines()[-1]) == {
            "error": "a simulation config must be a JSON object"
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value",
        [("n", "abc"), ("n", 10.5), ("n", 0), ("replications", "3"), ("seed", "x"),
         ("theta_true", "4"), ("grid_beta", 5)],
    )
    def test_config_field_of_wrong_type_or_range(self, runner, tmp_path, field, value):
        config = self.write_config(tmp_path, **{field: value})
        result = runner.invoke(
            main, ["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error" in json.loads(result.output.strip().splitlines()[-1])
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize(
        "value,message",
        [([], "gamma grid must be non-empty"), (0, "must be a list of numbers"),
         (False, "must be a list of numbers"), ("", "must be a list of numbers"),
         (None, "must be a list of numbers")],
        ids=["empty-list", "zero", "false", "empty-string", "null"],
    )
    def test_present_gamma_grid_is_checked(self, runner, tmp_path, value, message):
        # a present grid_gamma never runs the default grid
        config = self.write_config(tmp_path, grid_gamma=value)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        assert message in json.loads(line)["error"]
        assert not out.exists()


class TestFileErrors:
    """Unwritable --out and unreadable --data-file keep the error contract."""

    EMITTERS = {
        "divergence": ["divergence", "--beta", "0.5", "--gamma", "0.3",
                       "--theta-g", "3", "--theta-f", "4"],
        "estimate": ["estimate", "--beta", "0.2", "--gamma", "0", "--data", "1,2,3"],
        "influence": ["influence", "--beta", "0.5", "--gamma", "0",
                      "--theta", "4", "--y-max", "2"],
        "bias-approx": ["bias-approx", "--beta", "0.5", "--gamma", "0",
                        "--theta", "4", "--y", "10", "--steps", "3"],
        "test": ["test", "--beta", "0.2", "--gamma", "0", "--data", "1,2,3,2",
                 "--theta0", "2"],
    }

    @staticmethod
    def assert_json_error(result):
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error" in json.loads(result.output.strip().splitlines()[-1])

    @pytest.mark.parametrize("command", sorted(EMITTERS))
    def test_out_in_missing_directory(self, runner, tmp_path, command):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        result = runner.invoke(main, self.EMITTERS[command] + ["--out", str(out)])
        self.assert_json_error(result)

    def test_data_file_is_directory(self, runner, tmp_path):
        result = runner.invoke(
            main, ["estimate", "--beta", "0.2", "--gamma", "0", "--data-file", str(tmp_path)]
        )
        self.assert_json_error(result)

    @pytest.mark.parametrize("command", ["estimate", "test", "simulate"])
    def test_input_file_missing(self, runner, tmp_path, command):
        missing = str(tmp_path / "missing.txt")
        args = {
            "estimate": ["estimate", "--beta", "0.2", "--gamma", "0", "--data-file", missing],
            "test": ["test", "--beta", "0.2", "--gamma", "0", "--theta0", "2",
                     "--data-file", missing],
            "simulate": ["simulate", "--config", missing, "--out", str(tmp_path / "x.csv")],
        }[command]
        self.assert_json_error(runner.invoke(main, args))

    def test_data_file_not_utf8(self, runner, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_bytes(b"\xff\xfe1,2,3")
        result = runner.invoke(
            main, ["estimate", "--beta", "0.2", "--gamma", "0", "--data-file", str(path)]
        )
        self.assert_json_error(result)


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestJsonOutput:
    """Every JSON object the CLI prints is strict JSON: a NaN or an infinity
    in a result is one error instead."""

    PRINTERS = {
        "divergence-log": TestFileErrors.EMITTERS["divergence"],
        "divergence-identity": TestFileErrors.EMITTERS["divergence"] + ["--psi", "identity"],
        "estimate": TestFileErrors.EMITTERS["estimate"],
        "test-one-sample": TestFileErrors.EMITTERS["test"] + ["--level", "0.1"],
        "test-two-sample": ["test", "--beta", "0.2", "--gamma", "0.1", "--data", "1,2,3,2,5",
                            "--data2", "2,3,4,4,6"],
    }

    @pytest.mark.parametrize("name", sorted(PRINTERS))
    def test_stdout_is_strict_json(self, runner, name):
        result = run_ok(runner, self.PRINTERS[name])
        assert isinstance(json.loads(result.stdout, parse_constant=_no_constant), dict)

    def test_simulate_report_is_strict_json(self, runner, tmp_path):
        config = TestSimulateCommand.write_config(tmp_path)
        out = tmp_path / "report.json"
        run_ok(runner, ["simulate", "--config", str(config), "--out", str(out), "--format", "json"])
        json.loads(out.read_text(), parse_constant=_no_constant)

    @pytest.mark.parametrize(
        "args,message",
        [
            # A = -inf and B = inf: the tilt itself is refused
            (["divergence", "--beta", "1e300", "--gamma", "1e300",
              "--theta-g", "2", "--theta-f", "3"], "A and B must be finite"),
            (["divergence", "--beta", "1e154", "--gamma", "1e155",
              "--theta-g", "2", "--theta-f", "3"], "A and B must be finite"),
            (["influence", "--beta", "10", "--gamma", "0", "--theta", "50", "--y-max", "3"],
             "J0 is singular"),
            (["influence", "--beta", "0.5", "--gamma", "1e308", "--theta", "2", "--y-max", "3"],
             "the result is not finite: y,beta,gamma,if1,if2,if2_test = "),
            (["bias-approx", "--beta", "0.5", "--gamma", "1e308", "--theta", "2", "--y", "3",
              "--steps", "3"],
             "the result is not finite: eps,first_order,second_order,adequacy = "),
        ],
        ids=["divergence-nan", "divergence-exponent-overflow", "influence-singular",
             "influence-non-finite", "bias-approx-non-finite"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_result_is_one_error(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        (line,) = result.stderr.strip().splitlines()
        assert message in json.loads(line, parse_constant=_no_constant)["error"]

    def test_large_gamma_estimate_converges(self, runner):
        # A = 1e5 + 1: the fit's residual takes its weights from max-shifted
        # exps, so it is finite and the fit converges at the sample mean
        result = run_ok(
            runner, ["estimate", "--beta", "0", "--gamma", "1e5", "--data", "1,2,3,3,4"]
        )
        assert result.stderr == ""
        payload = json.loads(result.stdout, parse_constant=_no_constant)
        assert payload["converged"] is True and abs(payload["residual"]) <= 1e-12
        assert abs(payload["theta_hat"] - 3.0) <= 1e-8

    def test_closed_stdout_exits_quietly(self):
        # as click's own handler does: exit status 1 and no error line for a
        # reader that went away; the child waits until its stdout is closed
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys; sys.path[:0] = sys.argv[1:2]\n"
            "from lsdiv.cli import main\n"
            "sys.stdin.readline()\n"
            "main(sys.argv[2:])\n"
        )
        args = ["influence", "--beta", "0.5", "--gamma", "0", "--theta", "4", "--y-max", "150"]
        child = subprocess.Popen(
            [sys.executable, "-c", code, src, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()
        _, err = child.communicate(b"\n", timeout=60)
        assert child.returncode == 1
        assert err == b""

    def test_usage_error_keeps_exit_status_two(self, runner):
        result = runner.invoke(main, ["estimate", "--beta", "abc", "--gamma", "0", "--data", "1"])
        assert result.exit_code == 2
        assert "Invalid value for '--beta'" in result.stderr


def _flag(name, value):
    return f"--{name}={value!r}"


_TILT = st.tuples(st.floats(0.0, 20.0), st.floats(-1e3, 1e3)).map(
    lambda bg: [_flag("beta", bg[0]), _flag("gamma", bg[1])]
)
_THETA = st.floats(0.01, 100.0)
_SAMPLE = st.lists(st.integers(0, 100), min_size=1, max_size=50).map(
    lambda xs: ",".join(map(str, xs))
)
_CALLS = st.one_of(
    st.tuples(st.just(["estimate"]), _TILT, _SAMPLE.map(lambda d: ["--data", d])),
    st.tuples(
        st.just(["divergence"]), _TILT,
        st.tuples(_THETA, _THETA, st.sampled_from(["log", "identity"])).map(
            lambda t: [_flag("theta-g", t[0]), _flag("theta-f", t[1]), f"--psi={t[2]}"]
        ),
    ),
    st.tuples(
        st.just(["influence"]), _TILT,
        st.tuples(_THETA, st.integers(0, 40)).map(
            lambda t: [_flag("theta", t[0]), _flag("y-max", t[1])]
        ),
    ),
    st.tuples(
        st.just(["bias-approx"]), _TILT,
        st.tuples(_THETA, st.integers(0, 200)).map(
            lambda t: [_flag("theta", t[0]), _flag("y", t[1]), "--steps=5"]
        ),
    ),
    st.tuples(
        st.just(["test"]), _TILT,
        st.tuples(_SAMPLE, _THETA).map(lambda t: ["--data", t[0], _flag("theta0", t[1])]),
    ),
    st.tuples(
        st.just(["test"]), _TILT,
        st.tuples(_SAMPLE, _SAMPLE).map(lambda t: ["--data", t[0], "--data2", t[1]]),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


class TestOutputInvariant:
    """Over the domain the subcommands accept, every call either prints its
    result, as one strict JSON line or as CSV of finite numbers, and exits
    0, or prints one ``{"error": ...}`` line on stderr and exits 1.  A
    warning would reach stderr in a process of its own, so the call emits
    none.  Beta stops at 20 and |gamma| at 1e3, where the LSD still keeps
    its last bits (ROADMAP direction 3: outside it, ``estimate --gamma
    1e308`` prints five numpy RuntimeWarnings before its error line), and
    the sample means at 100, below the windows' underflow near 140
    (direction 4)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(args=_CALLS)
    def test_one_result_or_one_error(self, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert not caught, [str(w.message) for w in caught]
        if result.exit_code == 1:
            assert result.stdout == ""
            (line,) = result.stderr.splitlines()
            assert "error" in json.loads(line, parse_constant=_no_constant)
            return
        assert result.exit_code == 0, (result.exception, result.stderr)
        assert result.stderr == ""
        header, *rows = result.stdout.splitlines()
        if args[0] in ("influence", "bias-approx"):
            assert rows and all(
                math.isfinite(float(field)) for row in rows for field in row.split(",")
            )
        else:
            assert not rows
            assert isinstance(json.loads(header, parse_constant=_no_constant), dict)

