"""Correction of timings for interference from other tenants of the host.

On a shared machine the speed of a CPU changes from second to second with
what other tenants run on the same core: the same operation can take 1.0 s
or 1.8 s, in phases that last from seconds to minutes.  A median over one
run cannot average that out, so the end-to-end times are corrected with a
probe: a fixed pure-Python loop, timed (median of ``READINGS``) just before
and just after each measurement.  A measurement ``t`` taken while the probe
read ``p`` on average counts as ``t * NOMINAL_S / p``: the time it would
take on a machine where the probe takes ``NOMINAL_S``.  A fixed reference
is steadier than one taken from the run itself, such as the run's fastest
reading, which moves by several percent from run to run.  The probe does
not touch the engine, so a change to the engine moves ``t`` and not ``p``.

The whole benchmark, with its child processes, is pinned to one CPU, so
that the probe reads the CPU that the measurement runs on.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

LOOPS = 400_000
# The probe's time on an uncontended 2-vCPU x86_64 VM with CPython 3.11, so
# that corrected times read as seconds there.
NOMINAL_S = 0.013
READINGS = 5              # per probe level


def pin_one_cpu() -> None:
    """Restrict this process and its future children to one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _reading() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i
    return perf_counter() - t0


class SpeedProbe:
    """Probe readings of one run, and the measurements they correct.

    Take ``before = probe.level()`` just before a measurement and call
    ``probe.add(name, seconds, before)`` just after it.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.series: dict[str, list[tuple[float, float]]] = {}

    def level(self) -> float:
        """Median of a few fresh readings: the CPU's current speed."""
        readings = [_reading() for _ in range(READINGS)]
        self.readings += readings
        return statistics.median(readings)

    def add(self, name: str, seconds: float, before: float) -> None:
        after = self.level()
        self.series.setdefault(name, []).append((seconds, 0.5 * (before + after)))

    def raw(self, name: str) -> list[float]:
        return [t for t, _ in self.series[name]]

    def corrected(self, name: str) -> list[float]:
        """Each measurement scaled to the nominal probe time."""
        return [t * NOMINAL_S / p for t, p in self.series[name]]
