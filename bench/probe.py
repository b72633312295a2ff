"""How fast the machine runs while a pass runs, sampled from inside the pass.

On a shared host a CPU's speed drifts by 10 % and more over tens of
seconds, with the same code and inputs, and a pass's wall time follows
that drift. So while a pass (or a set-up batch) runs, a SIGALRM handler
times a fixed micro-task every PERIOD_S seconds of wall time, on the same
CPU and in the same process as the work. The benchmark then scales the
pass's own time (its wall time less the micro-tasks) by
MICRO_NOMINAL_S over the median micro-task time. A pass thus reads as
the seconds it would take on a machine where the micro-task takes
MICRO_NOMINAL_S, which is about its time inside a pass on the reference
machine of README.md. The micro-task mixes what the workloads do (a numpy
comparison, a sort and a pure-Python loop) and never calls the program, so
a change to the program moves it only through how cold it leaves the
caches (README.md, Steadiness).

A handler runs between Python bytecodes only, so it never interrupts a
numpy call half way and touches none of the program's state.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
MICRO_NOMINAL_S = 0.0005

_gen = np.random.default_rng(0)
# small enough to stay in a core's own caches, so that the micro-task's
# time depends little on how much memory the program around it touches
_VALUES = _gen.uniform(size=2_000)
_CUTS = _gen.uniform(size=20)


def _micro() -> None:
    for _ in range(3):
        int((_VALUES[None, :] < _CUTS[:, None]).sum())
    acc = 0
    for i in range(1_500):
        acc += i * i % 7
    np.sort(_VALUES)


class Sampler:
    """Context manager: times the micro-task every PERIOD_S seconds while
    the block runs, and keeps the times in `samples`."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _micro()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(seconds: float, samples) -> float:
    """seconds at the nominal micro-task speed; unscaled without samples."""
    if not samples:
        return seconds
    return seconds * MICRO_NOMINAL_S / statistics.median(samples)
