"""Monte-Carlo harness: sampling, configs, table runners, report emission."""

import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lsdiv import (
    Contamination,
    ContaminationScheme,
    PoissonFamily,
    SimKind,
    SimulationConfig,
    SimulationReport,
    SingularityError,
    TiltParams,
    contaminated_sample,
    emit_report,
    empirical_frequencies,
    sample_poisson,
    weighted_chisq_pvalue,
)
from lsdiv import estimation, simulate
from lsdiv.cli import main
from helpers import (
    contaminated_sample_oracle,
    divergence_between_fits_oracle,
    exit_worker,
    pid_worker,
)
from lsdiv.simulate import (
    ESTIMATION_BETA_GRID,
    _draw_chunk,
    _poisson_cdf,
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


def stand_in_pool(sizes, submitted=None):
    """A ProcessPoolExecutor stand-in that records each pool's size in
    ``sizes`` (and the arguments it is given in ``submitted``) and maps in
    the calling process, so that no process is forked.  A test that uses it
    takes the ``fresh_pool`` fixture, so that the reused pool is neither an
    earlier test's nor left to a later one."""

    class StandInPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def map(self, fn, iterable, chunksize=1):
            args = list(iterable)
            if submitted is not None:
                submitted.extend(args)
            return map(fn, args)

    return StandInPool


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


class TestCdfMemo:
    """The sampler's CDF is memoised per theta; the draws must not move."""

    REPLACE = Contamination(0.25, 12.0, ContaminationScheme.REPLACE_FIXED_COUNT)
    MIXTURE = Contamination(0.3, 15.0, ContaminationScheme.MIXTURE_DRAW)

    def test_seeded_draws_unchanged(self):
        # drawn by the sampler before its CDF was memoised
        _poisson_cdf.cache_clear()
        for _ in ("cold", "warm"):
            assert sample_poisson(4.0, 12, replication_rng(7, 0)).tolist() == [
                1, 6, 2, 2, 3, 1, 5, 5, 1, 4, 5, 6]
            assert sample_poisson(100.0, 8, replication_rng(7, 1)).tolist() == [
                94, 112, 94, 94, 101, 96, 101, 109]
            assert contaminated_sample(20, 4.0, self.REPLACE, replication_rng(7, 2)).tolist() == [
                6, 0, 5, 2, 3, 3, 7, 4, 6, 3, 2, 4, 5, 4, 2, 12, 15, 9, 16, 9]
            assert contaminated_sample(20, 2.0, self.MIXTURE, replication_rng(7, 3)).tolist() == [
                20, 14, 0, 2, 15, 12, 3, 1, 12, 1, 13, 1, 1, 2, 2, 9, 0, 1, 4, 21]
        assert _poisson_cdf.cache_info().hits > 0

    def test_cdf_rejects_writes(self):
        with pytest.raises(ValueError):
            _poisson_cdf(4.0)[0] = 0.5

    @pytest.mark.parametrize("theta", [708.4, 750.0])
    def test_underflow_raises_on_every_call(self, theta):
        for _ in range(3):
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


FIXED = ContaminationScheme.REPLACE_FIXED_COUNT
MIXTURE = ContaminationScheme.MIXTURE_DRAW


class TestChunkDraw:
    """A table chunk's samples are drawn in one pass; each row must be the
    sample its replication's stream gives on its own, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)),
        first=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**48)),
        rows=st.integers(1, 33),
        n=st.integers(1, 300),
        theta=st.sampled_from([0.3, 4.0, 100.0]),
        contamination=st.sampled_from([
            None,
            Contamination(0.0, 12.0, FIXED),
            Contamination(0.0, 12.0, MIXTURE),
            Contamination(0.003, 12.0, FIXED),  # k = floor(eps n) = 0
            Contamination(0.1, 130.0, FIXED),
            Contamination(0.45, 12.0, FIXED),
            Contamination(0.1, 15.0, MIXTURE),
            Contamination(0.6, 40.0, MIXTURE),
        ]),
    )
    def test_chunk_equals_one_draw_per_replication(
        self, seed, first, rows, n, theta, contamination
    ):
        reps = range(first, first + rows)
        with mock.patch.object(
            simulate._SamplePart, "from_samples", side_effect=lambda samples, family: samples
        ):
            chunk = simulate._chunk_part(seed, reps, n, theta, contamination)
        oracle = np.array([
            contaminated_sample_oracle(n, theta, contamination, replication_rng(seed, rep))
            for rep in reps
        ])
        one_by_one = np.array([
            contaminated_sample(n, theta, contamination, replication_rng(seed, rep))
            for rep in reps
        ])
        assert chunk.shape == (rows, n) and chunk.dtype == np.int64
        np.testing.assert_array_equal(chunk, oracle)
        np.testing.assert_array_equal(one_by_one, oracle)

    def test_underflowing_contamination_raises_as_one_sample_does(self):
        # every mixture draw inverts the contaminating CDF, which cannot be
        # built at theta_c = 800; a fixed count of floor(0.01 * 50) = 0
        # entries never reads it
        rngs = [replication_rng(1, rep) for rep in range(4)]
        mixture = Contamination(0.1, 800.0, MIXTURE)
        with pytest.raises(FloatingPointError):
            _draw_chunk(50, 4.0, mixture, rngs)
        with pytest.raises(FloatingPointError):
            contaminated_sample(50, 4.0, mixture, replication_rng(1, 0))
        fixed = Contamination(0.01, 800.0, FIXED)
        chunk = _draw_chunk(50, 4.0, fixed, [replication_rng(1, rep) for rep in range(4)])
        for rep, row in enumerate(chunk):
            np.testing.assert_array_equal(
                row, sample_poisson(4.0, 50, replication_rng(1, rep))
            )
            np.testing.assert_array_equal(
                row, contaminated_sample(50, 4.0, fixed, replication_rng(1, rep))
            )
        with pytest.raises(ValueError):
            _draw_chunk(50, 0.0, None, rngs)

    @pytest.mark.parametrize(
        "contamination",
        [None, *(Contamination(eps, 12.0, s) for s in (FIXED, MIXTURE) for eps in (0.1, 0.5))],
        ids=["none", "fixed-0.1", "fixed-0.5", "mixture-0.1", "mixture-0.5"],
    )
    def test_memory_of_a_large_chunk(self, contamination):
        # the draw one replication at a time peaked at 51.2 MB on a chunk of
        # 32 samples of 100 000 (each row, then their stacked copy); the
        # one-pass draw may take at most half as much again
        for theta in (4.0, 12.0):
            _poisson_cdf(theta)  # memoised before tracing, as for a table's later chunks
        rngs = [replication_rng(0, rep) for rep in range(32)]
        tracemalloc.start()
        try:
            _draw_chunk(100_000, 4.0, contamination, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 51.2e6


class TestReplicationKeys:
    """A chunk's Philox keys come from one array pass over its replications
    and one re-keyed generator reads their streams; both must give what a
    SeedSequence and a generator per replication give, bit for bit."""

    SEEDS = [0, 7, 12345, 2**32, 2**40 + 7, 2**130 + 3]  # the last has five run words

    @staticmethod
    def seed_sequence_keys(seed, reps):
        return np.array([
            np.random.SeedSequence(seed, spawn_key=(rep,)).generate_state(2, np.uint64)
            for rep in reps
        ])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "reps",
        [
            range(64),
            range(2**32 - 1, 2**32),
            range(2**32, 2**32 + 1),
            range(2**33 + 5, 2**33 + 6),
            range(2**40, 2**40 + 1),
            range(2**32 - 16, 2**32 + 16),  # one chunk straddles 2**32
            range(2**64 - 2, 2**64 + 2),  # words from Python ints from 2**64
        ],
        ids=["0-63", "2^32-1", "2^32", "2^33+5", "2^40", "straddles-2^32", "straddles-2^64"],
    )
    def test_keys_equal_seed_sequence(self, seed, reps):
        keys = simulate._replication_keys(seed, reps)
        assert keys.shape == (len(reps), 2)
        np.testing.assert_array_equal(keys, self.seed_sequence_keys(seed, reps))
        assert keys.tolist() == [
            replication_rng(seed, rep).bit_generator.state["state"]["key"].tolist()
            for rep in reps
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_builds_no_generator_per_replication(self, seed):
        reps = range(2**32 - 16, 2**32 + 16)
        mixture = Contamination(0.1, 15.0, MIXTURE)
        oracle = np.array([
            contaminated_sample(50, 4.0, mixture, replication_rng(seed, rep)) for rep in reps
        ])
        with mock.patch.object(
            simulate._SamplePart, "from_samples", side_effect=lambda samples, family: samples
        ), mock.patch.object(
            simulate, "replication_rng", side_effect=AssertionError("per-replication stream")
        ), mock.patch.object(
            np.random, "SeedSequence", wraps=np.random.SeedSequence
        ) as seed_sequence, mock.patch.object(
            np.random, "Philox", wraps=np.random.Philox
        ) as philox, mock.patch.object(
            np.random, "Generator", wraps=np.random.Generator
        ) as generator:
            chunk = simulate._chunk_part(seed, reps, 50, 4.0, mixture)
        assert (seed_sequence.call_count, philox.call_count, generator.call_count) == (0, 1, 1)
        np.testing.assert_array_equal(chunk, oracle)

    def test_threads_draw_their_own_streams(self):
        # three threads draw chunks of different seeds at once, with thread
        # switches forced often; each must get its serial draws
        fixed = Contamination(0.1, 12.0, FIXED)

        def draw(seed):
            return [
                _draw_chunk(20, 4.0, fixed, simulate._ChunkStreams(seed, range(first, first + 32)))
                for first in range(0, 32 * 40, 32)
            ]

        serial = {seed: draw(seed) for seed in (3, 2**40 + 7, 2**130 + 3)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(serial)) as pool:
                threaded = dict(zip(serial, pool.map(draw, serial, timeout=120)))
        finally:
            sys.setswitchinterval(interval)
        for seed, chunks in serial.items():
            for a, b in zip(chunks, threaded[seed], strict=True):
                np.testing.assert_array_equal(a, b)


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

    @pytest.mark.parametrize(
        "contamination",
        [None, Contamination(0.2, 9.0, ContaminationScheme.MIXTURE_DRAW)],
        ids=["none", "mixture"],
    )
    def test_to_dict_holds_json_values(self, contamination):
        config = small_estimation_config(contamination=contamination, theta_null=3.0)
        d = config.to_dict()
        assert d == {
            "kind": "estimation_bias", "n": 25, "theta_true": 4.0, "replications": 12,
            "theta_null": 3.0, "theta_target": None,
            "contamination": contamination and {
                "eps": 0.2, "theta_contam": 9.0, "scheme": "mixture_draw"
            },
            "grid_beta": [0.0, 0.5], "grid_gamma": [0.0, -1.0], "seed": 99, "level": 0.05,
        }
        again = SimulationConfig.from_dict(json.loads(json.dumps(d, allow_nan=False)))
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

    RAW = {"kind": "estimation_bias", "n": 10, "theta_true": 2.0}

    def test_absent_grids_take_the_defaults(self):
        config = SimulationConfig.from_dict(self.RAW)
        assert (config.grid_beta, config.grid_gamma) == (ESTIMATION_BETA_GRID, GAMMA_GRID)
        # an empty beta grid takes the constructor's default as well
        config = SimulationConfig.from_dict({**self.RAW, "grid_beta": []})
        assert config.grid_beta == ESTIMATION_BETA_GRID

    def test_empty_gamma_grid_from_dict_is_rejected(self):
        with pytest.raises(ValueError, match="gamma grid must be non-empty"):
            SimulationConfig.from_dict({**self.RAW, "grid_gamma": []})

    @pytest.mark.parametrize("name", ["grid_gamma", "grid_beta"])
    @pytest.mark.parametrize(
        "value", [0, False, "", None], ids=["zero", "false", "empty-string", "null"]
    )
    def test_present_grid_that_is_not_a_list_is_rejected(self, name, value):
        # a present value never falls back to a default grid
        with pytest.raises(ValueError, match=f"{name} must be a list of numbers"):
            SimulationConfig.from_dict({**self.RAW, name: value})

    @pytest.mark.parametrize(
        "make,match",
        [
            (lambda: Contamination(0.1, 0.0, ContaminationScheme.MIXTURE_DRAW), "theta_contam"),
            (lambda: Contamination(0.1, -1.0, ContaminationScheme.MIXTURE_DRAW), "theta_contam"),
            (lambda: Contamination(0.1, 5.0, "mixture_draw"), "unknown contamination scheme"),
            (lambda: small_estimation_config(kind="estimation_bias"), "unknown simulation kind"),
            (lambda: small_estimation_config(level=1.5), "level must lie in"),
            (lambda: small_estimation_config(level=5e-324), r"level must lie in \[1e-323, 1\)"),
            (lambda: small_estimation_config(contamination={"eps": 0.1}), "bad contamination"),
            (lambda: small_estimation_config(grid_beta=(0.5, -0.1)), "grid_beta entries"),
            (lambda: SimulationConfig.from_dict(
                {"kind": "estimation_bias", "n": 10, "theta_true": 2.0, "contamination": [0.1]}
            ), "contamination must be a JSON object"),
            (lambda: run_estimation_sim(small_estimation_config(
                kind=SimKind.TESTING_LEVEL, theta_null=4.0
            )), "ESTIMATION_BIAS"),
        ],
        ids=[
            "theta-contam-zero", "theta-contam-negative", "scheme-string", "kind-string",
            "level-above-one", "level-half-underflows", "contamination-dict", "grid-beta-negative",
            "from-dict-contamination-list", "estimation-runner-testing-config",
        ],
    )
    def test_typed_errors(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


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

    @pytest.mark.parametrize("kind", [SimKind.ESTIMATION_BIAS, SimKind.TESTING_LEVEL])
    def test_each_sample_fitted_at_every_cell_in_turn(self, kind, monkeypatch):
        # A worker fits its chunk's samples at each cell in turn, so with a
        # scan memo the size of the chunk, the fits at every later gamma hit
        # the entries of the first: one miss per distinct scan key (bracket
        # and window length, at the one beta) among the chunk's samples.
        reps, gammas = 5, (0.0, 0.3, 1.0)
        memo = functools.lru_cache(maxsize=reps)(estimation._scan_model_terms.__wrapped__)
        monkeypatch.setattr(estimation, "_scan_model_terms", memo)
        config = small_estimation_config(
            kind=kind, theta_null=4.0, replications=reps, grid_beta=(0.5,),
            grid_gamma=gammas,
        )
        report = run_simulation(config)
        assert all(cell.failures == 0 for cell in report.cells)
        keys = set()
        for rep in range(reps):
            sample = contaminated_sample(config.n, 4.0, None, replication_rng(config.seed, rep))
            r_n = empirical_frequencies(sample)
            lo, hi = max(1e-3, r_n.mean() / 5.0), 5.0 * r_n.mean() + 5.0
            part = estimation._SamplePart.from_densities([r_n], PoissonFamily())
            keys.add((lo, hi, part.length[0]))
        info = memo.cache_info()
        assert info.misses == len(keys)
        assert info.hits == reps * len(gammas) - info.misses


class TestFailureRule:
    """One failure rule for both table kinds: a cell emits "--" when more
    than 5% of its replications fail, and an inactive cell (A <= 0) counts
    every replication as failed."""

    def test_inactive_testing_cell(self):
        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=30, theta_true=2.0, theta_null=2.0,
            replications=8, grid_beta=(0.0,), grid_gamma=(-1.0, 0.0), seed=3,
        )
        report = run_testing_sim(config)
        inactive, active = report.cells
        assert (inactive.beta, inactive.gamma) == (0.0, -1.0)
        assert inactive.metrics == {"level": None}
        assert inactive.failures == inactive.replications == 8
        assert active.metrics["level"] is not None and active.failures == 0
        assert report_to_csv(report).splitlines()[1] == "-1,0,level,--,8"

    @staticmethod
    def far_contamination_config(kind, eps):
        # n = 4 and theta_contam = 700: a sample with a contaminated draw has
        # a mean of 175 or more, so its bracket top passes 708, where the
        # first Poisson mass underflows, and its fit raises FloatingPointError
        return SimulationConfig(
            kind=kind, n=4, theta_true=2.0, theta_null=2.0, replications=40,
            grid_beta=(0.5,), grid_gamma=(0.0,), seed=1,
            contamination=Contamination(eps, 700.0, ContaminationScheme.MIXTURE_DRAW),
        )

    @staticmethod
    def fits(config):
        """minimize_lsd's result or error for each replication's sample."""
        out = []
        for rep in range(config.replications):
            sample = contaminated_sample(
                config.n, 2.0, config.contamination, replication_rng(config.seed, rep)
            )
            try:
                out.append(estimation.minimize_lsd(
                    empirical_frequencies(sample), PoissonFamily(), TiltParams(0.5, 0.0)
                ))
            except (ValueError, ArithmeticError) as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize(
        "kind", [SimKind.ESTIMATION_BIAS, SimKind.TESTING_LEVEL], ids=["estimation", "testing"]
    )
    @pytest.mark.parametrize("eps", [0.3, 0.01])
    def test_cell_past_the_failure_limit_emits_sentinel(self, kind, eps):
        config = self.far_contamination_config(kind, eps)
        fits = self.fits(config)
        failed = sum(isinstance(fit, FloatingPointError) for fit in fits)
        assert failed == sum(isinstance(fit, Exception) for fit in fits)
        (cell,) = run_simulation(config).cells
        assert cell.failures == failed
        if eps == 0.3:
            assert failed > 0.05 * config.replications  # 28 of 40
            assert set(cell.metrics.values()) == {None}
        else:
            assert 0 < failed <= 0.05 * config.replications  # 1 of 40
            assert None not in cell.metrics.values()
        if kind is SimKind.ESTIMATION_BIAS and eps == 0.01:
            ok = np.array([fit.theta_hat for fit in fits if not isinstance(fit, Exception)])
            assert cell.metrics["bias"] == pytest.approx(np.mean(ok) - 2.0, abs=1e-8)

    def test_singular_null_law_cell_counts_every_replication_failed(self, tmp_path):
        # at theta_null = 50 and beta = 10 the information term J underflows
        # to about 1.8e-29, so that cell's null law raises SingularityError;
        # the table still runs, and that cell reads "--"
        with pytest.raises(SingularityError, match="information term J"):
            simulate.null_law(PoissonFamily(), 50.0, TiltParams(10.0, 0.0))
        raw = dict(kind="testing_level", n=30, theta_true=50.0, theta_null=50.0,
                   replications=20, grid_beta=[0.0, 10.0], grid_gamma=[0.0], seed=2)
        config = SimulationConfig.from_dict(raw)
        level, singular = run_testing_sim(config).cells
        (alone,) = run_testing_sim(SimulationConfig.from_dict({**raw, "grid_beta": [0.0]})).cells
        assert level == alone and level.metrics["level"] is not None
        assert singular.metrics == {"level": None}
        assert singular.failures == singular.replications == 20
        path, out = tmp_path / "config.json", tmp_path / "report.csv"
        path.write_text(json.dumps(raw))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines()[1:] == [
            f"0,0,level,{level.metrics['level']:.17g},0", "0,10,level,--,20"
        ]

    def test_zero_null_weight_never_rejects(self, monkeypatch):
        # at theta_null = 0.1 and beta = 10 the null law's weight is 0, so
        # the cell's critical value is infinite and its level exactly 0
        p = TiltParams(10.0, 0.0)
        assert simulate.null_law(PoissonFamily(), 0.1, p) == 0.0
        tasks = []
        map_ordered = simulate._map_ordered

        def recorded(worker, args_list, n_jobs):
            tasks.extend(args_list)
            return map_ordered(worker, args_list, n_jobs)

        monkeypatch.setattr(simulate, "_map_ordered", recorded)
        config = SimulationConfig(
            kind=SimKind.TESTING_LEVEL, n=20, theta_true=0.1, theta_null=0.1,
            replications=8, grid_beta=(10.0,), grid_gamma=(0.0,), seed=4,
        )
        (cell,) = run_testing_sim(config).cells
        assert [task[-1] for task in tasks] == [((p, np.inf),)]
        assert cell.metrics == {"level": 0.0} and cell.failures == 0


class TestDeterminismAndReports:
    @pytest.mark.parametrize("replications", [8, 40])  # 40 spans two chunks
    @pytest.mark.parametrize(
        "kind", [SimKind.ESTIMATION_BIAS, SimKind.TESTING_LEVEL], ids=["estimation", "testing"]
    )
    def test_serial_parallel_byte_identical(self, kind, replications):
        config = small_estimation_config(
            kind=kind, theta_null=4.0, replications=replications, grid_gamma=(0.0,)
        )
        serial, parallel = run_simulation(config, n_jobs=1), run_simulation(config, n_jobs=3)
        assert report_to_csv(serial) == report_to_csv(parallel)
        assert report_to_json(serial) == report_to_json(parallel)

    def test_chunks_do_not_depend_on_n_jobs(self, monkeypatch):
        # a stacked fit's last bits depend on the rows sharing its stack, so
        # the replications go out in the same chunks of 32 at any n_jobs
        map_ordered = simulate._map_ordered
        config = small_estimation_config(replications=40, grid_gamma=(0.0,))
        for n_jobs in (1, 3):
            chunks = []

            def record(worker, args_list, n_jobs):
                chunks.extend(args[1] for args in args_list)
                return map_ordered(worker, args_list, 1)

            monkeypatch.setattr(simulate, "_map_ordered", record)
            run_estimation_sim(config, n_jobs=n_jobs)
            assert chunks == [range(0, 32), range(32, 40)]

    @pytest.mark.parametrize("n_jobs,replications,processes", [(64, 40, 2), (2, 40, 2), (3, 8, 1)])
    def test_pool_has_no_more_workers_than_chunks(
        self, monkeypatch, fresh_pool, n_jobs, replications, processes
    ):
        # the pool forks all its workers at the first submit, so the run's
        # processes (the caller and its pool) are sized to the chunks, and a
        # call that needs another number of workers replaces the pool; the
        # stand-in records the pool size, maps serially and starts no process
        sizes = []
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", stand_in_pool(sizes))
        config = small_estimation_config(replications=replications, grid_gamma=(0.0,))
        serial = report_to_csv(run_estimation_sim(config))
        assert report_to_csv(run_estimation_sim(config, n_jobs=n_jobs)) == serial
        assert simulate._map_ordered(abs, list(range(-3, 0)), 64) == [3, 2, 1]
        assert sizes == [processes - 1] * (processes > 1) + [2]

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
        assert again.cells == report.cells and again.metadata == report.metadata
        assert report_to_json(again) == report_to_json(report)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_json_refuses_a_non_finite_metric(self, value):
        cell = simulate.CellResult(0.0, 0.0, {"bias": value, "mse": 1.0}, 10, 0)
        with pytest.raises(ValueError):
            report_to_json(SimulationReport([cell], {}))

    def test_emit_unknown_format(self, tmp_path):
        report = run_estimation_sim(small_estimation_config(replications=2))
        with pytest.raises(ValueError):
            emit_report(report, "xml", tmp_path / "r.xml")

    def test_emit_io_error_has_path_context(self):
        report = run_estimation_sim(small_estimation_config(replications=2))
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report(report, "csv", "/no/such/dir/report.csv")


class TestMapOrdered:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    @pytest.mark.parametrize("calls", [1, 2])
    def test_caller_runs_every_n_jobs_th_task(self, fresh_pool, n_jobs, calls):
        # a real pool (n_jobs <= 3 forks at most two processes), forked at
        # the first call and kept alive after it; a second call keeps the
        # same share and runs on the first call's workers
        caller = os.getpid()
        workers = set()
        for _ in range(calls):
            pids = simulate._map_ordered(pid_worker, list(range(7)), n_jobs)
            assert [pid == caller for pid in pids] == [t % n_jobs == 0 for t in range(7)]
            workers = workers or {child.pid for child in multiprocessing.active_children()}
            assert len(workers) == n_jobs - 1
            assert {pid for t, pid in enumerate(pids) if t % n_jobs} <= workers

    @pytest.mark.parametrize("n_jobs,n_args,pool", [(64, 10, 9), (4, 10, 3), (2, 3, 1), (3, 1, None)])
    def test_pool_size_and_share(self, monkeypatch, fresh_pool, n_jobs, n_args, pool):
        # min(n_jobs, tasks) - 1 workers take the tasks whose index is not a
        # multiple of n_jobs; a single task opens no pool
        sizes, submitted = [], []
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", stand_in_pool(sizes, submitted))
        args = list(range(-n_args, 0))
        assert simulate._map_ordered(abs, args, n_jobs) == [-a for a in args]
        assert sizes == ([] if pool is None else [pool])
        assert submitted == [a for i, a in enumerate(args) if i % n_jobs and pool]

    def test_two_chunk_run_forks_one_process_at_two_jobs(self, monkeypatch, fresh_pool):
        # two consecutive runs fork one pool of one worker between them
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        config = small_estimation_config(
            kind=SimKind.TESTING_LEVEL, theta_null=4.0, replications=40, grid_gamma=(0.0,)
        )
        serial = report_to_csv(run_testing_sim(config))
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        for _ in range(2):
            assert report_to_csv(run_testing_sim(config, n_jobs=2)) == serial
        assert sizes == [1]

    def test_broken_pool_is_replaced(self, fresh_pool):
        # a task that kills its worker breaks the pool; the next call at the
        # same n_jobs forks a fresh worker and returns correct results
        caller = os.getpid()
        killed = simulate._map_ordered(pid_worker, [0, 1], 2)[1]
        with pytest.raises(BrokenProcessPool):
            simulate._map_ordered(exit_worker, ["pid", "exit"], 2)
        pids = simulate._map_ordered(exit_worker, ["pid", "pid", "pid"], 2)
        assert pids[0] == pids[2] == caller
        assert pids[1] not in (caller, killed)

    def test_threads_take_turns_at_the_pool(self, fresh_pool):
        # runs in more threads than cores at alternating n_jobs replace the
        # pool in turn, and none has it shut down under its own tasks
        caller = os.getpid()

        def run(n_jobs):
            for _ in range(5):
                pids = simulate._map_ordered(pid_worker, list(range(6)), n_jobs)
                assert [pid == caller for pid in pids] == [t % n_jobs == 0 for t in range(6)]

        with ThreadPoolExecutor(max_workers=4) as threads:
            for future in [threads.submit(run, n_jobs) for n_jobs in (2, 3, 2, 3)]:
                future.result(timeout=60)

    def test_no_process_outlives_its_run(self):
        # the reused pool is joined when the interpreter exits, so a process
        # that ran a pool leaves no worker behind it
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests_dir), "src")
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "from helpers import pid_worker\n"
            "from lsdiv import simulate\n"
            "print(simulate._map_ordered(pid_worker, list(range(4)), 2)[1])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, src, tests_dir], capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        worker = int(done.stdout.split()[-1])
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.kill(worker, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"worker {worker} outlived its run"
            time.sleep(0.01)

    @pytest.mark.parametrize("n_jobs", [0, -3, 1.5, True])
    def test_n_jobs_below_one_rejected(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_simulation(small_estimation_config(replications=2), n_jobs=n_jobs)


class TestSamplePartPerChunk:
    """A worker tabulates its chunk's samples into one sample part and fits
    that part at every active cell."""

    @staticmethod
    def count_parts(monkeypatch):
        built = []
        init = estimation._SamplePart.__init__

        def counted(self, mass, *args):
            built.append(mass.shape[0])
            init(self, mass, *args)

        monkeypatch.setattr(estimation._SamplePart, "__init__", counted)
        return built

    @pytest.mark.parametrize("cells", [1, 5])
    def test_one_part_per_chunk_at_any_number_of_cells(self, monkeypatch, cells):
        built = self.count_parts(monkeypatch)
        tilts = tuple(TiltParams(beta, 0.5) for beta in (0.0, 0.2, 0.4, 0.8, 1.0)[:cells])
        out = simulate._estimate_worker((5, range(32), 50, 4.0, None, tilts))
        assert built == [32] and len(out) == cells
        built.clear()
        tests = tuple((p, 3.84) for p in tilts)
        out = simulate._reject_worker((5, range(32), 30, 4.0, None, 4.0, tests))
        assert built == [32] and len(out) == cells

    @pytest.mark.parametrize("kind", [SimKind.ESTIMATION_BIAS, SimKind.TESTING_LEVEL])
    def test_one_part_per_chunk_of_a_table(self, monkeypatch, kind):
        built = self.count_parts(monkeypatch)
        config = small_estimation_config(
            kind=kind, theta_null=4.0, replications=40, grid_beta=(0.0, 0.5),
            grid_gamma=(0.0, 1.0),
        )
        run_simulation(config)
        assert built == [32, 8]


class TestRejectWorker:
    def worker_args(self):
        """One chunk of 32 replications at two tilts, B = 0 and B > 0."""
        tests = ((TiltParams(0.0, 0.0), 3.84), (TiltParams(0.4, 0.5), 3.84))
        return (5, range(32), 30, 4.0, None, 4.0, tests)

    def test_one_statistic_pass_per_test(self, monkeypatch):
        calls = []
        stacked = simulate.divergence_between_fits

        def counted(family, theta_g, *args):
            calls.append(np.shape(theta_g))
            return stacked(family, theta_g, *args)

        monkeypatch.setattr(simulate, "divergence_between_fits", counted)
        out = simulate._reject_worker(self.worker_args())
        assert calls == [(32,), (32,)]
        assert out.shape == (2, 32)
        assert np.isin(out, (0.0, 1.0)).all()

    def test_failed_fit_keeps_none(self, monkeypatch):
        # a failed fit's row is NaN, and the other rows keep their decisions
        clean = simulate._reject_worker(self.worker_args())
        fit_part = simulate._fit_part

        def failing_row_3(part, p):
            fits = fit_part(part, p)
            fits.theta_hat[3] = np.nan
            return fits

        monkeypatch.setattr(simulate, "_fit_part", failing_row_3)
        out = simulate._reject_worker(self.worker_args())
        assert np.isnan(out[:, 3]).all()
        others = np.arange(32) != 3
        np.testing.assert_array_equal(out[:, others], clean[:, others])
        assert not np.isnan(clean).any()

    def test_decisions_match_the_pair_density_oracle(self, family):
        seed, reps, n, theta, contam, theta0, tests = self.worker_args()
        out = simulate._reject_worker(self.worker_args())
        densities = [
            empirical_frequencies(contaminated_sample(n, theta, contam, replication_rng(seed, rep)))
            for rep in reps
        ]
        for (p, critical), rejects in zip(tests, out):
            fits = estimation.minimize_lsd_many(densities, family, p)
            expected = [
                float(2.0 * n * divergence_between_fits_oracle(family, fit.theta_hat, theta0, p)
                      > critical)
                for fit in fits
            ]
            assert rejects.tolist() == expected


class TestCriticalValue:
    def test_round_trips_and_matches_chi2_ppf(self):
        from scipy.stats import chi2

        levels = np.r_[0.05, 0.01, 0.1, 0.001, 0.5, 1e-9, 1 - 1e-9,
                       np.random.default_rng(0).random(2000)]
        for level in levels.tolist():
            crit = simulate._chi2_critical_value(level)
            assert weighted_chisq_pvalue(crit, 1.0) == pytest.approx(level, rel=1e-14, abs=0)
            if level >= 1e-3:
                assert crit == pytest.approx(chi2.ppf(1.0 - level, df=1), rel=1e-13, abs=0)
        # 1 - level rounds to 1 below about 1.1e-16, where a quantile at
        # 1 - level reads inf and no test could reject; the normal quantile
        # at level / 2 reads the tail itself.  A relative error e in the
        # critical value x moves its tail by about (x / 2) e relative.
        for level in (1e-17, 1e-20, 1e-300):
            crit = simulate._chi2_critical_value(level)
            assert math.isfinite(crit)
            assert weighted_chisq_pvalue(crit, 1.0) == pytest.approx(
                level, rel=1e-14 * crit / 2, abs=0
            )

    def test_package_never_loads_scipy(self):
        # the package runs on numpy and click alone: neither its import nor
        # a fit, an influence curve, a p-value, a test or a table loads any
        # scipy module (a lazy import would show up after its call)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import lsdiv, lsdiv.cli\n"
            "from click.testing import CliRunner\n"
            "def loaded(): return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "def cli(*args):\n"
            "    result = CliRunner().invoke(lsdiv.cli.main, list(args))\n"
            "    assert result.exit_code == 0, result.output\n"
            "    return result.output\n"
            "print(loaded())\n"
            "r_n = lsdiv.empirical_frequencies([1, 2, 2, 3, 4, 4, 5, 9])\n"
            "fit = lsdiv.minimize_lsd(r_n, lsdiv.PoissonFamily(), lsdiv.TiltParams(0.5, 0.0))\n"
            "assert fit.converged and fit.iterations > 0, fit\n"
            "print(loaded())\n"
            "out = cli('estimate', '--beta', '0.2', '--gamma', '0.5', '--data', '3,4,5,4,4,12')\n"
            "assert '\"converged\": true' in out, out\n"
            "print(loaded())\n"
            "assert len(cli('influence', '--beta', '0.4', '--gamma', '0.5', '--theta', '4',\n"
            "               '--y-max', '40').splitlines()) == 42\n"
            "print(loaded())\n"
            "config = lsdiv.SimulationConfig(lsdiv.SimKind.ESTIMATION_BIAS, n=30, theta_true=4.0,\n"
            "    replications=8, grid_beta=(0.5,), grid_gamma=(0.2,), seed=3)\n"
            "assert lsdiv.run_estimation_sim(config).cells[0].failures == 0\n"
            "print(loaded())\n"
            "assert 0 < lsdiv.weighted_chisq_pvalue(2.0, 0.7) < 1\n"
            "print(loaded())\n"
            "out = cli('test', '--beta', '0.4', '--gamma', '0.5', '--data', '3,4,5,4,4,12',\n"
            "          '--theta0', '4')\n"
            "assert '\"p_value\"' in out, out\n"
            "print(loaded())\n"
            "config = lsdiv.SimulationConfig(lsdiv.SimKind.TESTING_LEVEL, n=30, theta_true=2.0,\n"
            "    theta_null=2.0, replications=8, grid_beta=(0.5,), grid_gamma=(0.2,), seed=3)\n"
            "assert lsdiv.run_testing_sim(config).cells[0].failures == 0\n"
            "print(loaded())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["[]"] * 8 + [""]
