"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/out/sweep.json [--workload api_mix ...]

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile (``statistics.quantiles`` with
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json; spreads above a third of the bound are flagged.  One traced
run per workload adds the per-layer metrics.  The results go to ``--out``
as JSON, with a record of the machine and the single-call sizes that
ROADMAP quotes (a fit at beta=gamma=0 and at beta>0, n=50, theta=4, and
``null_law``), each the median over 30 calls of two rounds, raw and
scaled to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = [line.split(" note ", 1)[1] for line in lines if " note " in line]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def machine() -> dict:
    import numpy
    import scipy

    from run import BLAS_THREADS

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "blas_threads": int(BLAS_THREADS),
    }


def sizing() -> dict:
    """Single-call sizes, in ms, to set beside ROADMAP's figures."""
    import numpy as np

    from lsdiv import PoissonFamily, TiltParams, empirical_frequencies, minimize_lsd, null_law
    from timing import time_units

    family = PoissonFamily()
    rng = np.random.default_rng(2014)
    samples = [empirical_frequencies(rng.poisson(4.0, 50)) for _ in range(30)]

    def median_ms(units) -> dict:
        timings = time_units(units, seconds=0.0)
        return {"scaled": 1e3 * statistics.median(timings.wall()),
                "raw": 1e3 * statistics.median(timings.raw_wall())}

    def fits(p):
        return [lambda r=r: minimize_lsd(r, family, p) for r in samples]

    return {
        "fit_beta0_gamma0_ms": median_ms(fits(TiltParams(0.0, 0.0))),
        "fit_beta0.4_gamma0.5_ms": median_ms(fits(TiltParams(0.4, 0.5))),
        "null_law_ms": median_ms(
            [lambda: null_law(family, 2.0, TiltParams(0.8, 0.3)) for _ in range(30)]
        ),
    }


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    results = {"machine": machine(), "seeds": list(seeds), "run_seconds": bench["run_seconds"],
               "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in seeds]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median, rel = spread(values)
            summary[metric] = {"median": median, "iqr_share": rel, "bound": bound,
                               "min": min(values), "max": max(values)}
            flag = "" if rel < bound / 3 else "  <-- above a third of the bound"
            print(f"{name:10s} {metric:12s} median {median:10.4g}  spread {rel:6.3f}"
                  f"  bound {bound:.2f}{flag}", flush=True)
        entry = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs,
        }
        traced = run_once(name, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {metric: value["value"] for metric, value in traced["metrics"].items()}
        results["workloads"][name] = entry
    results["sizing"] = sizing()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
