"""Benchmark of lsdiv's Monte-Carlo tables and its interactive API.

    python3 perfbench/run.py --workload est_table --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; lsdiv is imported from ``src/``.
With ``--trace 0`` the workload's units (table cells or API calls) run
untraced in rounds for ``--seconds`` and the end-to-end metrics are
printed; times other than set-up are scaled to a reference CPU speed (see
timing.py).  With ``--trace 1`` the workload runs serially, untraced and
then with spans around every public lsdiv function, and the per-layer
metrics are printed; the spans are written to ``perfbench/out/``.  The
outputs are checked either way.  The last line of standard output is one
JSON object; the exit code is 1 when a check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SETUP_START = time.perf_counter()

# Pinned before numpy loads; inherited by setup probes and pool workers.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median with this one
FITS_CHECKED_PER_CELL = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "reps_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def fatal(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_lsdiv():
    if not os.path.isfile(os.path.join(SRC, "lsdiv", "__init__.py")):
        fatal(f"no lsdiv sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import lsdiv

    if os.path.dirname(os.path.abspath(lsdiv.__file__)) != os.path.join(SRC, "lsdiv"):
        fatal(f"imported lsdiv from {lsdiv.__file__}, not from {SRC}")
    return lsdiv


def set_up(workload_name: str, work_dir: str):
    """Import lsdiv, build the workload and make one warm-up call; returns
    the workload and the seconds since this process started."""
    import_lsdiv()
    import workloads

    workload = workloads.make_workload(workload_name, work_dir)
    workload.warm_up()
    return workload, time.perf_counter() - SETUP_START


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        fatal(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_seed(seed: int) -> int:
    """Seed of the tables or call stream a run times, derived from --seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, 2014]).generate_state(1)[0])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_outputs(workload, seed: int, outputs: list) -> list[str]:
    """Independent checks of one pass at ``seed``."""
    import check

    if workload.unit == "call":
        return check.check_api_calls(outputs)
    return check.check_table_fits(workload, seed, FITS_CHECKED_PER_CELL)


def check_reference(workload) -> list[str]:
    """A pass at the reference seed against the stored reference table."""
    import check
    from workloads import REFERENCE_SEED

    if workload.unit == "call":
        return []
    table = workload.table([unit() for unit in workload.units(REFERENCE_SEED)])
    return check.compare_table(table, check.load_reference(workload.name))


def run_untraced(workload, seed: int, seconds: float, setup_s: float) -> dict:
    from timing import percentile, time_units

    setups = [setup_s] + [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
    problems = check_reference(workload)
    timed_seed = run_seed(seed)
    timings = time_units(workload.units(timed_seed), seconds)
    first = timings.outputs[0]
    problems += check_outputs(workload, timed_seed, first)
    if workload.unit == "replication" and any(
        workload.table(out) != workload.table(first) for out in timings.outputs
    ):
        problems.append("rounds of the same table disagree")

    calls = timings.wall()
    wall = sum(calls)
    attempted = workload.units_per_pass * timings.rounds
    failed = sum(workload.failures(out) for out in timings.outputs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": sum(timings.cpu()),
        "reps_per_s": workload.units_per_pass / wall,
        "call_p50_ms": 1e3 * percentile(calls, 50),
        "call_p99_ms": 1e3 * percentile(calls, 99),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "calls_per_pass": len(calls),
        "calls_beyond_p99": sum(t > metrics["call_p99_ms"] / 1e3 for t in calls),
        "rounds": timings.rounds,
        "speed_scale_mean": round(timings.mean_scale(), 4),
        "raw_wall_s": sum(timings.raw_wall()),
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes}


def run_traced(workload, seed: int) -> dict:
    from spans import PER_LAYER, Tracer
    from timing import time_units

    timed_seed = run_seed(seed)
    serial = workload.units(timed_seed, n_jobs=1)
    untraced = time_units(serial, seconds=0.0)
    untraced_wall = sum(untraced.wall())
    tracer = Tracer()
    tracer.install()
    try:
        traced = time_units([tracer.requesting(u) for u in serial], 0.0, min_rounds=1)
    finally:
        tracer.uninstall()
    traced_wall = sum(traced.wall())
    outputs = traced.outputs[0]
    metrics = tracer.metrics(sum(traced.raw_wall()))
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    metrics["simulate.pool_speedup"] = 0.0
    problems = check_outputs(workload, timed_seed, outputs)
    if workload.unit == "replication" and workload.table(outputs) != workload.table(untraced.outputs[0]):
        problems.append("traced and untraced passes disagree")
    if workload.name == "test_pool":
        pooled = time_units(workload.units(timed_seed), seconds=0.0)
        metrics["simulate.pool_speedup"] = untraced_wall / sum(pooled.wall())
        for i, (serial_report, pooled_report) in enumerate(zip(outputs, pooled.outputs[0])):
            if serial_report != pooled_report:
                problems.append(f"cell {i}: report at --n-jobs {workload.n_jobs} differs from serial")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    tracer.write(trace_path, {
        "workload": workload.name, "seed": seed, "pass_seed": timed_seed,
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
    })
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    return {"metrics": {name: metrics[name] for name in PER_LAYER},
            "attempted": workload.units_per_pass, "failed": workload.failures(outputs),
            "problems": problems, "notes": {"trace_file": os.path.relpath(trace_path, ROOT)}}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "p50_ms": "ms", "p99_ms": "ms", "calls": "count",
            "mean": "count", "evals_per_fit": "count"}.get(suffix, "ratio")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("est_table", "est_wide", "test_pool", "api_mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    args = parser.parse_args()

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    workload, setup_s = set_up(args.workload, work_dir)
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return
        if args.trace:
            outcome = run_traced(workload, args.seed)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds, setup_s)
    finally:
        workload.close()

    for name, value in outcome["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    # Not a JSON metric: it is 0 on the tables; the JSON carries its parts.
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in outcome["notes"].items():
        print(f"{args.workload} note {name} = {value}")
    for problem in outcome["problems"]:
        print(f"{args.workload} CHECK FAILED: {problem}")
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in outcome["metrics"].items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
