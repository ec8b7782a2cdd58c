"""Seeded Monte-Carlo harness for the estimation and testing tables.

Every replication owns an independent counter-based RNG stream derived from
(seed, replication index), so the full pipeline is a pure function of the
configuration and is byte-reproducible under any execution order or degree
of parallelism.  A chunk of replications is drawn in one pass, each row
from its own stream and in the order that drawing its replication alone
reads that stream's uniforms (see ``_draw_chunk``); that order is the
contract that keeps seeded samples and tables unchanged.  The chunk's
stream keys come from one array pass, and one generator is re-keyed to
each row (see ``_ChunkStreams``).  A worker returns a chunk's values as
one array, cells x replications, NaN for a failed replication.  Grid cells
where the exponent A is nonpositive, or a testing table's null law
singular, are emitted with the "--" sentinel.

With ``n_jobs > 1`` the chunks of a table run in the calling process and in
one process-wide worker pool, which is forked on first use and reused by
later runs that need as many workers; a run that needs another number of
workers replaces it, an exception drops it, and ``concurrent.futures``'
exit hook joins it when the interpreter exits.  Workers keep the module
state they were forked with.
"""

from __future__ import annotations

import enum
import functools
import json
import numbers
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import SingularityError
from .divergence import EXPONENT_BOUNDARY, TiltParams, derive_exponents
from .estimation import _fit_part, _is_real, _SamplePart
from .families import PoissonFamily, density_vector
from .hypotest import divergence_between_fits, null_law

__all__ = [
    "SimKind",
    "ContaminationScheme",
    "Contamination",
    "SimulationConfig",
    "CellResult",
    "SimulationReport",
    "replication_rng",
    "sample_poisson",
    "contaminated_sample",
    "run_estimation_sim",
    "run_testing_sim",
    "run_simulation",
    "emit_report",
]

SENTINEL = "--"

ESTIMATION_BETA_GRID = (0.0, 0.1, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
TESTING_BETA_GRID = (0.0, 0.1, 0.2, 0.4, 0.7, 0.8, 0.9, 1.0)
GAMMA_GRID = (-1.0, -0.9, -0.7, -0.5, -0.3, -0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5, 2.0)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class SimKind(enum.Enum):
    ESTIMATION_BIAS = "estimation_bias"
    TESTING_LEVEL = "testing_level"
    TESTING_POWER = "testing_power"


class ContaminationScheme(enum.Enum):
    REPLACE_FIXED_COUNT = "replace_fixed_count"
    MIXTURE_DRAW = "mixture_draw"


@dataclass(frozen=True)
class Contamination:
    eps: float
    theta_contam: float
    scheme: ContaminationScheme

    def __post_init__(self) -> None:
        if not (_is_real(self.eps) and 0 <= self.eps < 1):
            raise ValueError("contamination proportion must lie in [0, 1)")
        if not (_is_real(self.theta_contam) and self.theta_contam > 0):
            raise ValueError(f"theta_contam must be a positive number, got {self.theta_contam!r}")
        if not isinstance(self.scheme, ContaminationScheme):
            raise ValueError(f"unknown contamination scheme {self.scheme!r}")


@dataclass(frozen=True)
class SimulationConfig:
    kind: SimKind
    n: int
    theta_true: float
    replications: int = 1000
    theta_null: float | None = None
    theta_target: float | None = None  # estimation bias/MSE reference; defaults to theta_true
    contamination: Contamination | None = None
    grid_beta: tuple[float, ...] = ()
    grid_gamma: tuple[float, ...] = GAMMA_GRID
    seed: int = 0
    level: float = 0.05

    def __post_init__(self) -> None:
        """Check every field's type and range; a bad one raises ValueError."""
        if not isinstance(self.kind, SimKind):
            raise ValueError(f"unknown simulation kind {self.kind!r}")
        for name, low in (("n", 1), ("replications", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("theta_true", "theta_null", "theta_target"):
            value = getattr(self, name)
            if not (value is None and name != "theta_true" or _is_real(value) and value > 0):
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        if not (_is_real(self.level) and 0 < self.level < 1):
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if not (self.contamination is None or isinstance(self.contamination, Contamination)):
            raise ValueError(f"bad contamination {self.contamination!r}")
        for name in ("grid_beta", "grid_gamma"):
            grid = getattr(self, name)
            if not (isinstance(grid, (tuple, list)) and all(_is_real(v) for v in grid)):
                raise ValueError(f"{name} must be a list of numbers, got {grid!r}")
        if any(beta < 0 for beta in self.grid_beta):
            raise ValueError(f"grid_beta entries must be >= 0, got {self.grid_beta!r}")
        if not self.grid_beta:
            default = (
                ESTIMATION_BETA_GRID
                if self.kind is SimKind.ESTIMATION_BIAS
                else TESTING_BETA_GRID
            )
            object.__setattr__(self, "grid_beta", default)
        if not self.grid_gamma:
            raise ValueError("gamma grid must be non-empty")
        object.__setattr__(self, "grid_beta", tuple(float(b) for b in self.grid_beta))
        object.__setattr__(self, "grid_gamma", tuple(float(g) for g in self.grid_gamma))

    def target(self) -> float:
        return self.theta_true if self.theta_target is None else self.theta_target

    def to_dict(self) -> dict:
        """The config as JSON values: enums as their values, grids as lists."""
        d = asdict(self)
        d["kind"] = self.kind.value
        d["grid_beta"], d["grid_gamma"] = list(self.grid_beta), list(self.grid_gamma)
        if self.contamination is not None:
            d["contamination"]["scheme"] = self.contamination.scheme.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        if not isinstance(d, dict):
            raise ValueError("a simulation config must be a JSON object")
        contamination = d.get("contamination")
        if contamination is not None:
            if not isinstance(contamination, dict):
                raise ValueError("contamination must be a JSON object")
            contamination = Contamination(
                eps=contamination["eps"],
                theta_contam=contamination["theta_contam"],
                scheme=ContaminationScheme(contamination["scheme"]),
            )
        return cls(
            kind=SimKind(d["kind"]),
            n=d["n"],
            theta_true=d["theta_true"],
            replications=d.get("replications", 1000),
            theta_null=d.get("theta_null"),
            theta_target=d.get("theta_target"),
            contamination=contamination,
            grid_beta=d.get("grid_beta", ()),
            grid_gamma=d.get("grid_gamma", GAMMA_GRID),
            seed=d.get("seed", 0),
            level=d.get("level", 0.05),
        )


@dataclass(frozen=True)
class CellResult:
    beta: float
    gamma: float
    metrics: dict[str, float | None]
    replications: int
    failures: int


@dataclass(frozen=True)
class SimulationReport:
    cells: list[CellResult]
    metadata: dict
    wall_time: float = 0.0  # seconds the runner took; informational only, never serialized

    def to_dict(self) -> dict:
        return {"metadata": self.metadata, "cells": [asdict(c) for c in self.cells]}

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationReport":
        return cls(cells=[CellResult(**c) for c in d["cells"]], metadata=d["metadata"])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replication index): a Philox
    generator seeded by ``SeedSequence(seed, spawn_key=(replication,))``.

    A table chunk reads the same streams through :class:`_ChunkStreams`,
    which derives their keys for the whole chunk at once; this function is
    the reference that path is tested against."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq): a pool of 4 uint32 words mixes the run entropy, then each word
# of the spawn key, and its output hash gives a Philox key.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit
    words, one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(first: int, mult: int, count: int) -> list[int]:
    """The hash constant ``first`` and the ``count`` values it takes after
    it, each the last one times ``mult`` modulo 2**32."""
    hashes = [first]
    for _ in range(count):
        hashes.append(hashes[-1] * mult & _MASK32)
    return hashes


def _column(values: list[int]) -> np.ndarray:
    """The values as a read-only (len, 1) uint32 column, which broadcasts
    along the rows of a (4, rows) pool."""
    column = np.array(values, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


# The output hash's constants: pool word i is xored with entry i and
# multiplied by entry i + 1
_OUT_HASHES = _column(_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE))


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int, spawn_words: int):
    """SeedSequence's pool after it mixes the run entropy ``seed``, and the
    hash constants with which it then mixes the first ``spawn_words`` words
    of a spawn key, as uint32 columns: pool word i mixes spawn word j hashed
    with entries 4 j + i (xor) and 4 j + i + 1 (multiply).

    The hash constant moves the same way whatever the data, so neither
    depends on the spawn key, and a table's chunks share them.  Python ints,
    masked to 32 bits, stand for the hash's uint32 arithmetic."""
    entropy = _uint32_words(seed)
    # with a spawn key, SeedSequence pads the run entropy to the pool size
    entropy += [0] * (_POOL_SIZE - len(entropy))
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return _column(pool), _column(_hash_constants(h, _MULT_A, _POOL_SIZE * spawn_words))


def _replication_keys(seed: int, reps: range) -> np.ndarray:
    """The Philox keys of ``replication_rng(seed, rep)`` for rep in ``reps``,
    as a (len(reps), 2) uint64 array whose row r is
    ``SeedSequence(seed, spawn_key=(reps[r],)).generate_state(2, np.uint64)``.

    Only the mixing of the spawn-key words and the output hash depend on the
    replication; both run as uint32 array passes over the chunk, the 4 pool
    words as 4 rows.  A replication of w 32-bit words mixes w of them, so in
    a chunk that straddles 2**32 the rows below it skip word 1.  The words
    come from a uint64 array below 2**64 and from Python ints above it."""
    top = max(reps, default=0)
    n_words = max(1, -(-top.bit_length() // 32))
    pool, hashes = _seed_pool(seed, n_words)
    reps = np.array(reps, dtype=np.uint64 if n_words <= 2 else object)
    for j in range(n_words):
        i = _POOL_SIZE * j
        hashed = (reps >> 32 * j & _MASK32).astype(np.uint32) ^ hashes[i : i + _POOL_SIZE]
        hashed *= hashes[i + 1 : i + _POOL_SIZE + 1]
        hashed ^= hashed >> 16
        mixed = pool * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> 16
        pool = mixed if j == 0 else np.where(reps >= 1 << 32 * j, mixed, pool)
    out = pool ^ _OUT_HASHES[:-1]
    out *= _OUT_HASHES[1:]
    out ^= out >> 16
    # output words (0, 1) and (2, 3) as little-endian uint64s, as
    # generate_state joins them
    return out.T.astype("<u4", order="C").view("<u8")


class _ChunkStreams:
    """The streams ``replication_rng(seed, rep)`` of a chunk's replications,
    read through one Philox generator that is re-keyed to each in turn.

    A Philox stream is set by its 128-bit key alone (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11), so a generator
    set to {key, counter 0, empty buffer, no spare 32-bit word} reads the
    stream from its start, as a fresh one does.  Iterating yields the one
    generator once per replication, set to that replication's stream, so
    a caller finishes with a stream before it takes the next.  Each
    iteration makes its own generator, so chunks drawn in several threads
    never share one."""

    def __init__(self, seed: int, reps: range):
        # as Python ints, which the state setter reads faster than numpy's
        self.keys = _replication_keys(seed, reps).tolist()

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        bitgen = np.random.Philox(0)  # each replication replaces its key
        rng = np.random.Generator(bitgen)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for key in self.keys:
            state["state"]["key"] = key
            bitgen.state = state
            yield rng


@functools.lru_cache(maxsize=64)
def _poisson_cdf(theta: float) -> np.ndarray:
    """Read-only Poisson(theta) CDF on its 1e-13 window, memoised: a table
    draws every replication from the same one or two thetas."""
    cdf = np.cumsum(density_vector(PoissonFamily(), theta, 1e-13).mass)
    cdf.flags.writeable = False
    return cdf


def _draw_chunk(n: int, theta: float, contamination: Contamination | None, rngs) -> np.ndarray:
    """A (len(rngs) x n) intp array of samples of size n, optionally
    contaminated, row r drawn from the r-th generator that iterating
    ``rngs`` yields, alone: a list of generators, or a chunk's
    :class:`_ChunkStreams`, whose one generator each row re-keys.

    Each row reads its stream's uniforms in the order that drawing its
    sample alone reads them, which keeps every seeded sample and table:
    - no contamination (or eps = 0): n uniforms, inverted on the
      Poisson(theta) CDF;
    - fixed count: n uniforms, then k = floor(eps*n) more, which the last k
      entries invert on the contaminating CDF instead of their own;
    - mixture: n flag uniforms, then n draw uniforms; an entry whose flag
      uniform is below eps inverts its draw uniform on the contaminating CDF.
    The uniforms go into one buffer, and each memoised CDF is inverted once
    for the chunk, the contaminating one only on the entries that take it.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    cdf = _poisson_cdf(theta)
    u = np.empty((len(rngs), n))
    scheme = None if contamination is None or contamination.eps == 0.0 else contamination.scheme
    if scheme is ContaminationScheme.MIXTURE_DRAW:
        cdf_contam = _poisson_cdf(contamination.theta_contam)
        takes = np.empty(u.shape, dtype=bool)
        for rng, row, flags in zip(rngs, u, takes):
            rng.random(out=row)
            np.less(row, contamination.eps, out=flags)
            rng.random(out=row)
    else:
        k = int(np.floor(contamination.eps * n)) if scheme else 0
        for rng, row in zip(rngs, u):
            rng.random(out=row)
            if k:
                rng.random(out=row[n - k :])
        if not k:
            return np.searchsorted(cdf, u, side="left")
        cdf_contam = _poisson_cdf(contamination.theta_contam)
        takes = np.s_[:, n - k :]
    # the contaminating draws first, so that the copy of their uniforms is
    # freed before the chunk's samples are allocated
    contam = np.searchsorted(cdf_contam, u[takes], side="left")
    samples = np.searchsorted(cdf, u, side="left")
    samples[takes] = contam
    return samples


def sample_poisson(theta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Poisson(theta) draws by CDF inversion of n uniforms of ``rng``;
    bit-reproducible per stream.  The one-row case of the chunk draw."""
    return _draw_chunk(n, theta, None, [rng])[0]


def contaminated_sample(
    n: int,
    theta_true: float,
    contamination: Contamination | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample of size n, optionally contaminated.

    The fixed-count scheme overwrites the last floor(eps*n) entries of a pure
    sample with draws from the contaminating component; the mixture scheme
    routes each observation independently with probability eps.  The
    one-row case of the chunk draw, which fixes the order in which the
    scheme reads ``rng``'s uniforms (see ``_draw_chunk``).
    """
    return _draw_chunk(n, theta_true, contamination, [rng])[0]


# ---------------------------------------------------------------------------
# Replication workers (module-level so process pools can pickle them)
# ---------------------------------------------------------------------------

# Replications per chunk.  A worker draws a chunk's samples, builds their
# tilt-free sample part once and fits it as one stack at each cell in turn;
# a stacked fit depends in the last bits on the rows that share its stack,
# so the chunks are the same at any n_jobs.
CHUNK = 32


def _chunk_part(seed: int, reps: range, n: int, theta: float, contam) -> _SamplePart:
    """The sample part of a chunk's samples, drawn once and fitted at every
    cell.  Replication ``rep`` reads its own stream ``replication_rng(seed,
    rep)`` in the order ``contaminated_sample`` reads it, so its sample is
    the same in any chunk and at any n_jobs.  The streams' keys are derived
    for the chunk in one array pass, and one generator, made for this call,
    is re-keyed to each row (see :class:`_ChunkStreams`)."""
    samples = _draw_chunk(n, theta, contam, _ChunkStreams(seed, reps))
    return _SamplePart.from_samples(samples, PoissonFamily())


def _estimate_worker(args) -> np.ndarray:
    """A chunk of replications' estimates at each of ``tilts``, as a (tilts
    x replications) array with NaN for a failed fit."""
    seed, reps, n, theta_true, contam, tilts = args
    part = _chunk_part(seed, reps, n, theta_true, contam)
    return np.array([_fit_part(part, p).theta_hat for p in tilts])


def _reject_worker(args) -> np.ndarray:
    """A chunk of replications' test decisions at each (tilt, critical value)
    of ``tests``, a (tests x replications) array of 1.0 (reject) and 0.0, NaN
    for a failed fit; a test's fitted rows' statistics take one stacked pass."""
    seed, reps, n, theta_draw, contam, theta0, tests = args
    part = _chunk_part(seed, reps, n, theta_draw, contam)
    out = np.full((len(tests), len(reps)), np.nan)
    for rejects, (p, critical) in zip(out, tests):
        theta_hat = _fit_part(part, p).theta_hat
        fitted = ~np.isnan(theta_hat)
        if fitted.any():
            w = 2.0 * n * divergence_between_fits(part.family, theta_hat[fitted], theta0, p)
            rejects[fitted] = w > critical
    return out


# The worker pool that _map_ordered reuses, as (workers, executor); None
# until a call needs one and after it is shut down.  A thread holds the lock
# while it uses or replaces the pool, so that runs in several threads take
# turns at it instead of shutting it down under each other.
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.RLock()


def _shut_pool() -> None:
    """Shut the reused worker pool down, cancelling its tasks not yet
    started, and join its workers; the next call that needs one forks anew."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            pool, _pool = _pool[1], None
            pool.shutdown(cancel_futures=True)


def _map_ordered(worker, args_list, n_jobs: int):
    """``[worker(a) for a in args_list]``, run by ``n_jobs`` processes, the
    calling one included, when n_jobs > 1.

    Each argument is one task.  The calling process runs tasks 0, n_jobs,
    2 n_jobs, ... itself while a pool of the other ``min(n_jobs, tasks) - 1``
    processes runs the rest, which are submitted first; a single task opens
    no pool.  The pool forks all its workers at the first submit, busy or
    not, and is kept for the next call: a call that needs as many workers
    reuses it, one that needs another number shuts it down and forks a new
    one, so a pool never has more workers than its tasks.  An exception
    (``BrokenProcessPool`` when a worker dies) shuts it down as well, so
    the next call starts afresh.  Calls from several threads take turns.
    At interpreter exit ``concurrent.futures`` joins it.
    """
    global _pool
    n_pool = min(n_jobs, len(args_list)) - 1
    if n_pool < 1:
        return [worker(a) for a in args_list]
    with _pool_lock:
        if _pool is None or _pool[0] != n_pool:
            _shut_pool()
            _pool = (n_pool, ProcessPoolExecutor(max_workers=n_pool))
        try:
            from_pool = _pool[1].map(worker, [a for i, a in enumerate(args_list) if i % n_jobs])
            mine = iter([worker(a) for a in args_list[::n_jobs]])
            return [next(from_pool if i % n_jobs else mine) for i in range(len(args_list))]
        except BaseException:
            _shut_pool()
            raise


# ---------------------------------------------------------------------------
# Table runners
# ---------------------------------------------------------------------------

FAILURE_CELL_LIMIT = 0.05  # cells with more than 5% failed replications emit "--"


def _run_table(config: SimulationConfig, n_jobs: int, worker, draw, cell_args, metrics):
    """The report of a table: one cell per (beta, gamma), gamma-major, with
    its metrics over the replications that did not fail.

    ``worker`` takes (seed, replications, *draw, per-cell arguments) for a
    chunk of ``CHUNK`` consecutive replications (one pool task each) and
    returns the chunk's values as an (active cells x replications) array,
    NaN for a failed one.  It draws the chunk's samples and builds their
    sample part once, then fits them as one stack at each cell in turn, so
    the fits of a sample at one beta share the scan's memoised model terms
    as long as the memo keeps the chunk's entries for every beta (see
    ``estimation._MEMO_SIZE``), in each pool worker as in a serial run.
    ``cell_args(beta, gamma)`` gives a cell's arguments, or None for a cell
    that cannot run, and ``metrics`` maps each metric's name to a function
    of the array of a cell's successful values.  A cell where the exponent
    A is nonpositive, or whose arguments are None, is inactive, and all its
    replications count as failed; a cell where more than
    ``FAILURE_CELL_LIMIT`` of them failed emits every metric as None ("--").
    """
    start = time.perf_counter()
    reps = config.replications
    grid = [(beta, gamma) for gamma in config.grid_gamma for beta in config.grid_beta]
    args = [
        cell_args(*cell) if derive_exponents(*cell)[0] > EXPONENT_BOUNDARY else None
        for cell in grid
    ]
    per_cell = tuple(a for a in args if a is not None)
    columns = iter(())
    if per_cell:
        chunks = [
            (config.seed, range(first, min(first + CHUNK, reps)), *draw, per_cell)
            for first in range(0, reps, CHUNK)
        ]
        columns = iter(np.concatenate(_map_ordered(worker, chunks, n_jobs), axis=1))
    cells = []
    for (beta, gamma), a in zip(grid, args):
        values = next(columns) if a is not None else np.empty(0)
        ok = values[~np.isnan(values)]
        failures = reps - ok.size
        if failures > FAILURE_CELL_LIMIT * reps:
            cell_metrics = dict.fromkeys(metrics)
        else:
            cell_metrics = {name: metric(ok) for name, metric in metrics.items()}
        cells.append(CellResult(beta, gamma, cell_metrics, reps, failures))
    metadata = {"seed": config.seed, "config": config.to_dict()}
    return SimulationReport(cells, metadata, wall_time=time.perf_counter() - start)


def run_estimation_sim(config: SimulationConfig, n_jobs: int = 1) -> SimulationReport:
    """Empirical bias and MSE of the minimum-divergence estimate per grid cell."""
    if config.kind is not SimKind.ESTIMATION_BIAS:
        raise ValueError("config.kind must be ESTIMATION_BIAS")
    target = config.target()
    metrics = {
        "bias": lambda ok: float(np.mean(ok) - target),
        "mse": lambda ok: float(np.mean((ok - target) ** 2)),
    }
    draw = (config.n, config.theta_true, config.contamination)
    return _run_table(config, n_jobs, _estimate_worker, draw, TiltParams, metrics)


def _chi2_critical_value(level: float) -> float:
    """The chi-square(1) quantile at 1 - level: the square of the standard
    normal quantile at level / 2, which reads the tail directly and so
    stays exact for levels far below the rounding of 1 - level."""
    return statistics.NormalDist().inv_cdf(0.5 * level) ** 2


def run_testing_sim(config: SimulationConfig, n_jobs: int = 1) -> SimulationReport:
    """Empirical level or power of the one-sample test per grid cell."""
    if config.kind not in (SimKind.TESTING_LEVEL, SimKind.TESTING_POWER):
        raise ValueError("config.kind must be TESTING_LEVEL or TESTING_POWER")
    if config.theta_null is None:
        raise ValueError("testing simulations need theta_null")
    metric_name = "level" if config.kind is SimKind.TESTING_LEVEL else "power"
    theta_draw = (
        config.theta_null if config.kind is SimKind.TESTING_LEVEL else config.theta_true
    )
    family = PoissonFamily()

    def test_args(beta: float, gamma: float) -> tuple[TiltParams, float] | None:
        p = TiltParams(beta, gamma)
        # The reference tables compare W directly against the chi-square
        # critical value, without the null-law weight; the weight-induced
        # level inflation at larger beta (e.g. 0.076 at beta=0.7, n=50) is
        # exactly what those tables document, so the harness reproduces it.
        try:
            weight = null_law(family, config.theta_null, p)
        except SingularityError:
            return None
        return p, _chi2_critical_value(config.level) if weight > 0 else np.inf

    draw = (config.n, theta_draw, config.contamination, config.theta_null)
    metrics = {metric_name: lambda ok: float(np.mean(ok))}
    return _run_table(config, n_jobs, _reject_worker, draw, test_args, metrics)


def run_simulation(config: SimulationConfig, n_jobs: int = 1) -> SimulationReport:
    """The config's table, run by ``n_jobs`` processes (the calling one
    included); n_jobs below 1 raises ValueError."""
    if not (_is_int(n_jobs) and n_jobs >= 1):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    if config.kind is SimKind.ESTIMATION_BIAS:
        return run_estimation_sim(config, n_jobs)
    return run_testing_sim(config, n_jobs)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _format_value(value: float | None) -> str:
    return SENTINEL if value is None else format(value, ".17g")


def report_to_csv(report: SimulationReport) -> str:
    lines = ["gamma,beta,metric,value,n_fail"]
    for cell in report.cells:
        for name, value in cell.metrics.items():
            lines.append(
                f"{cell.gamma:g},{cell.beta:g},{name},{_format_value(value)},{cell.failures}"
            )
    return "\n".join(lines) + "\n"


def report_to_json(report: SimulationReport) -> str:
    """The report as JSON; a NaN or infinite number in it is a ValueError."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_report(report: SimulationReport, format: str, path) -> None:
    """Write the report as CSV or JSON; byte-identical for identical runs."""
    if format == "csv":
        text = report_to_csv(report)
    elif format == "json":
        text = report_to_json(report)
    else:
        raise ValueError(f"unknown report format {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
