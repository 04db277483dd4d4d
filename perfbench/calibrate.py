"""Calibration kernel: a reading of how fast the machine runs right now.

On a shared machine the same pure-Python work runs at two speeds, up to
1.8x apart, switching every second or so (other tenants on the host; CPU
time grows with wall time, so it is not preemption).  The slow share of a
20-second run varies, so raw run medians spread by up to 47% across seeds.
The program under test is interpreter-bound like this kernel: regressing
log step time on log kernel time gives slopes of 0.89-0.99 and correlations
near 0.8 on the verify steps.  Every time the benchmark gates on is
therefore rescaled to a fixed reference speed, the speed at which one
kernel run takes REFERENCE_S, using readings taken right before and right
after each timed step.  The raw wall times are kept in the run record.

The kernel uses only built-in types, so no change to the program or its
dependencies can move it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# Kernel time at the reference speed: its fast-state time on a 2-vCPU
# x86-64 KVM guest, so rescaled values sit near the raw fast-state ones.
REFERENCE_S = 0.0007
_KERNEL_KEYS = 2500
_READINGS = 3


def _kernel() -> float:
    table = {}
    for i in range(_KERNEL_KEYS):
        table[(i, 0.5 * i)] = float(i) * 1.5
    return sum(table[(i, 0.5 * i)] for i in range(0, _KERNEL_KEYS, 3))


def calibrate() -> float:
    """Kernel time now: the median of three back-to-back runs."""
    times = []
    for _ in range(_READINGS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rescale(seconds: float, kernel_s: float) -> float:
    """A wall time measured while the kernel took kernel_s, at the reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Stopwatch:
    """Wall time split into laps, each ended by a calibration reading.

    A lap is rescaled by the mean of the readings before and after it; the
    readings themselves are not lap time (ref_s totals them)."""

    def __init__(self, first_ref: float, started: float | None = None):
        self.refs = [first_ref]
        self.laps: list[tuple[float, float]] = []
        self.ref_s = 0.0
        self.started = time.perf_counter() if started is None else started

    def restart(self) -> None:
        self.started = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """(raw, rescaled) time since the last lap or restart."""
        took = time.perf_counter() - self.started
        before = time.perf_counter()
        self.refs.append(calibrate())
        self.ref_s += time.perf_counter() - before
        self.started = time.perf_counter()
        self.laps.append((took, rescale(took, (self.refs[-2] + self.refs[-1]) / 2.0)))
        return self.laps[-1]


@dataclass
class Phase:
    """A timed phase of ops.

    latencies are raw wall times per op and normalized the same ops at the
    reference speed, each step rescaled by the mean of the readings taken
    just before and just after it.  refs holds every reading of the phase;
    ref_s is the time they took inside the phase, which is not op time."""

    latencies: list[float]
    normalized: list[float]
    refs: list[float]
    wall_s: float
    ref_s: float

    def ops_per_s(self) -> float:
        """Completed ops over the phase's wall time without the readings."""
        return len(self.latencies) / (self.wall_s - self.ref_s)

    def normalized_ops_per_s(self) -> float:
        """ops_per_s at the reference speed."""
        return self.ops_per_s() * statistics.fmean(self.refs) / REFERENCE_S
