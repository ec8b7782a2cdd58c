"""Timing at a reference CPU speed, for a CPU shared with other tenants.

On a small shared machine a vCPU's speed shifts by up to 2x, over seconds
to minutes, with the load of its neighbours.  A run's raw time then
measures the neighbours as much as the program.  So a short probe of fixed
work (Python dispatch and small NumPy calls, like a fit) runs twice right
before and twice right after every sample, and the sample is scaled by
``REFERENCE_PROBE_S / probe``, where ``probe`` is the slower of the two
sides' faster probe.  On the 2-vCPU machine this was built on, a fit's raw
time ranged from 7.8 to 14.8 ms over one minute while its ratio to the
probe stayed within 1%.
Every unit of work (a table cell, an API call) runs once per round, and
each unit reports the median of its scaled samples.  Raw times are kept
for the notes.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

REFERENCE_PROBE_S = 2e-4  # the probe's time at the reference speed
_PROBE_X = np.linspace(0.0, 1.0, 64)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def percentile(values, q: float) -> float:
    """q-th percentile, interpolated linearly between the two nearest ranks
    (numpy's default), so that the median of a few table cells does not
    jump between cells of different cost."""
    return float(np.percentile(values, q))


def probe() -> float:
    """Seconds taken by a fixed piece of work, about 0.2 ms at full speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(40):
        total += float(np.sum(np.exp(_PROBE_X * (i * 0.01))))
    return time.perf_counter() - start


@dataclass
class UnitSamples:
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)


@dataclass
class Timings:
    units: list[UnitSamples]
    outputs: list[list]  # outputs[round][unit]

    @property
    def rounds(self) -> int:
        return len(self.outputs)

    def wall(self) -> list[float]:
        """Each unit's median wall time at the reference speed."""
        return [statistics.median(w * s for w, s in zip(u.wall, u.scale)) for u in self.units]

    def cpu(self) -> list[float]:
        """Each unit's median CPU time at the reference speed."""
        return [statistics.median(c * s for c, s in zip(u.cpu, u.scale)) for u in self.units]

    def raw_wall(self) -> list[float]:
        return [statistics.median(u.wall) for u in self.units]

    def mean_scale(self) -> float:
        return statistics.fmean(s for u in self.units for s in u.scale)


def _sample(fn, samples: UnitSamples):
    # The faster of two probes skips a probe slowed by the unit before it,
    # e.g. by the page faults that follow a process pool's shutdown.
    before = min(probe(), probe())
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    out = fn()
    samples.wall.append(time.perf_counter() - wall0)
    samples.cpu.append(cpu_seconds() - cpu0)
    samples.scale.append(REFERENCE_PROBE_S / max(before, min(probe(), probe())))
    return out


def time_units(units, seconds: float, min_rounds: int = 2) -> Timings:
    """Run every unit (a no-argument callable) once per round, for at least
    ``min_rounds`` rounds and as long as another round fits in ``seconds``."""
    samples = [UnitSamples() for _ in units]
    outputs = []
    start = last = time.perf_counter()
    round_s = 0.0
    while len(outputs) < min_rounds or last + round_s - start <= seconds:
        outputs.append([_sample(fn, s) for fn, s in zip(units, samples)])
        round_s, last = time.perf_counter() - last, time.perf_counter()
    return Timings(samples, outputs)
