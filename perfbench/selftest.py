"""Self-test of the benchmark's output check: it must catch a perturbed report.

    python3 perfbench/selftest.py

The stored reference tables must pass the check unchanged and fail it after
a perturbation of 1e-6 in one value, or with one rejection flipped, or after
a CSV round trip that changes one digit.  A fit moved off its optimum by
1e-3 must fail the independent fit check.  Exits nonzero if any of this
does not hold.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from lsdiv import EstimatorResult, PoissonFamily, TiltParams, empirical_frequencies, minimize_lsd  # noqa: E402
from lsdiv.simulate import SimulationReport, report_to_csv  # noqa: E402

from check import check_api_calls, check_fit, compare_table, load_reference, rejections  # noqa: E402
from workloads import parse_csv_report  # noqa: E402


def perturbed(reference: dict, metric: str, delta: float) -> list[dict]:
    cells = copy.deepcopy(reference["cells"])
    cells[len(cells) // 2]["metrics"][metric] += delta
    return cells


def main() -> None:
    outcomes = []

    def expect(name: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        outcomes.append(ok)
        detail = problems[0] if problems else "passes"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    for name in ("est_table", "est_wide"):
        ref = load_reference(name)
        expect(f"{name} reference unchanged", compare_table(ref["cells"], ref), False)
        for metric in ("bias", "mse"):
            for delta in (1e-6, -1e-6):
                expect(f"{name} {metric} {delta:+g}",
                       compare_table(perturbed(ref, metric, delta), ref), True)

    ref = load_reference("test_pool")
    expect("test_pool reference unchanged", compare_table(ref["cells"], ref), False)
    cells = copy.deepcopy(ref["cells"])
    cell = cells[0]
    ok = cell["replications"] - cell["failures"]
    count = round(rejections(cell))
    cell["metrics"]["level"] = (count + 1 if count < ok else count - 1) / ok
    expect("test_pool one rejection flipped", compare_table(cells, ref), True)

    csv_text = report_to_csv(SimulationReport.from_dict({"cells": ref["cells"], "metadata": {}})).encode()
    expect("test_pool CSV round trip", compare_table(parse_csv_report(csv_text), ref), False)
    level = cells[1]["metrics"]["level"]
    changed = csv_text.replace(
        format(level, ".17g").encode(), format(level + 1e-6, ".17g").encode(), 1
    )
    expect("test_pool CSV level +1e-6", compare_table(parse_csv_report(changed), ref), True)

    rng = np.random.default_rng(3)
    sample = rng.poisson(4.0, 50)
    p = TiltParams(0.4, 0.5)
    fit = minimize_lsd(empirical_frequencies(sample), PoissonFamily(), p)
    expect("fit at its optimum", check_fit(sample, p, fit), False)
    moved = EstimatorResult(fit.theta_hat + 1e-3, fit.objective, fit.residual,
                            fit.iterations, fit.converged, fit.bracket)
    expect("fit moved by 1e-3", check_fit(sample, p, moved), True)

    wrong_if = (7 - 4.0 + 1e-3, 0.0, 0.0)
    expect("influence at beta=0 off by 1e-3",
           check_api_calls([("influence", (7, 4.0, TiltParams(0.0, 0.5)), wrong_if)]), True)

    print(f"{sum(outcomes)}/{len(outcomes)} self-test cases behave as expected")
    sys.exit(0 if all(outcomes) else 1)


if __name__ == "__main__":
    main()
