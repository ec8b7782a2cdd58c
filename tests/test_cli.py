"""Command-line interface: subcommands, file emission, error contract."""

import json

import pytest
from click.testing import CliRunner

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


class TestCurveCommands:
    def test_influence_csv(self, runner):
        result = run_ok(
            runner,
            ["influence", "--beta", "0.5", "--gamma", "0", "--theta", "4", "--y-max", "5"],
        )
        lines = result.output.strip().split("\n")
        assert lines[0] == "y,beta,gamma,if1,if2,if2_test"
        assert len(lines) == 7

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
        assert payload["rank"] == 1

    def test_two_sample(self, runner):
        result = run_ok(
            runner,
            ["test", "--beta", "0.2", "--gamma", "0.1",
             "--data", "2,1,3,2,2,4,1,2", "--data2", "2,3,3,2,1,2"],
        )
        assert json.loads(result.output)["statistic"] >= 0.0

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

    def test_bad_config_errors(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "estimation_bias"}))  # missing fields
        result = runner.invoke(
            main,
            ["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.output.strip().splitlines()[-1])
