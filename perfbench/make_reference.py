"""Regenerate ``reference.json``: each table workload at the reference seed.

    python3 perfbench/make_reference.py

Tables are computed serially with one full-grid call each, independently of
the one-call-per-cell path the benchmark times.  Rerun only when a change is
meant to alter the tables' values, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from lsdiv import simulate  # noqa: E402

from check import REFERENCE_PATH  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, make_workload  # noqa: E402


def main() -> None:
    reference = {"seed": REFERENCE_SEED}
    for name in WORKLOADS:
        workload = make_workload(name, os.path.join(HERE, "out", "work-reference"))
        try:
            if workload.unit != "replication":
                continue
            report = simulate.run_simulation(workload.config(REFERENCE_SEED), n_jobs=1)
            reference[name] = {
                "config": workload.config(REFERENCE_SEED).to_dict(),
                "cells": report.to_dict()["cells"],
            }
        finally:
            workload.close()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
