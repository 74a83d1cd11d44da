"""Machine-speed sampling for the timed runs.

On a shared host (a 2-vCPU Intel Xeon VM, measured) the CPU speed can
drift by 20-40 % within seconds and between minutes, which 20 s runs do
not average out. CPU time follows wall time there, so the process is not
descheduled: the same instructions simply run slower. While a timed run is measured, a
SIGALRM handler runs a fixed calibration slice every INTERVAL_S of wall
time; the slice's duration says how fast the machine is at that moment.

``clock()`` is a timer that stands still while a slice runs, so every
timing the workloads take excludes the slices. ``factor(slices)`` is the
machine's slowdown over a stretch of the run, relative to a reference
slice time (REF_SLICE_S). Dividing a time by it, or
multiplying a rate by it, gives the figure at the reference speed.

The slice touches no trustsim code and no shared random state, keeps
the garbage collector off, and mixes interpreted Python with small numpy
calls, the same kind of work as the trustsim hot paths.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.05
SLICE_ITERATIONS = 250
# About the median slice time on a 2-vCPU Intel Xeon (2.1 GHz), Python 3.11,
# numpy 2.4; the value only sets the scale of the reported figures.
REF_SLICE_S = 0.005

slices = []  # durations of the slices run so far, in seconds
_spent = 0.0  # their sum


def clock() -> float:
    """perf_counter minus the time spent in calibration slices."""
    return time.perf_counter() - _spent


def calibration_slice() -> float:
    """The fixed unit of work whose duration is sampled."""
    x = np.arange(16.0)
    counts = {}
    acc = 0.0
    for i in range(SLICE_ITERATIONS):
        acc += float(np.random.default_rng(i).normal()) + float(np.dot(x, x))
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += sum(j * 0.5 for j in range(20))
    return acc


def _on_alarm(signum, frame) -> None:
    global _spent
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    calibration_slice()
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    slices.append(took)
    _spent += took


@contextlib.contextmanager
def sampling():
    """Run a calibration slice every INTERVAL_S of wall time in the block."""
    calibration_slice()  # pay first-call costs outside the samples
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def factor(durations) -> float:
    """Slowdown against REF_SLICE_S over a stretch sampled at even wall-time
    intervals: wall time / reference time = 1 / mean(REF / slice)."""
    durations = list(durations)
    if not durations:
        raise ValueError("no calibration slice ran in the stretch")
    return len(durations) / sum(REF_SLICE_S / d for d in durations)
