"""Reference clock: rescale program time by the host's speed at that moment.

The 2-core KVM guest this benchmark was tuned on switches every few seconds
between a fast and a slow mode about 1.4x apart, and process CPU time follows
wall time, so neither says how much work a several-second pass did.
`RefClock` runs a short fixed kernel every `PERIOD` seconds from a SIGALRM
timer while the pass runs. Each slice of program time between two kernel runs
is divided by the mean time of those two runs, and the time spent in the
kernel is left out of the pass's wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05

_RNG = np.random.default_rng(20030114)
_A = _RNG.normal(size=(16, 6, 6)) + 6.0 * np.eye(6)
_B = _RNG.normal(size=(16, 6, 1))
_A3 = _RNG.normal(size=(3, 3)) + 3.0 * np.eye(3)
_B3 = _RNG.normal(size=3)


def reference_kernel() -> float:
    """A fixed mix of the work the program's hot paths do: a pure-Python loop,
    small batched and single solves, and ufunc and matmul calls on tiny arrays.

    Per-call numpy overhead dominates the program, and a kernel without it
    tracks the host's speed changes worse. Over ten repeats each of one
    `boundary`, `verify` and `limit-kahler` invocation, the interquartile
    spread of wall time was 16-33% of the median; of wall time over kernel
    time it was 12-19% with the pure-Python loop alone and 5-6% with this mix.
    """
    acc = 0.0
    for i in range(1000):
        acc += i * i % 7
    for _ in range(4):
        acc += float(np.linalg.solve(_A, _B)[0, 0, 0])
    for _ in range(20):
        acc += float(np.linalg.solve(_A3, _B3)[0])
    x = np.linspace(0.1, 1.0, 5)
    for _ in range(50):
        x = np.exp(0.5 * np.log(x))
        x /= np.sqrt(x @ x)
        y = np.zeros((9, 9))
        y[2] = x[0]
        acc += float((y.T @ y)[2, 2])
    return acc


class RefClock:
    """Context manager timing one pass; see the module docstring."""

    def __init__(self):
        self.runs: list[tuple[float, float]] = []

    def _run_kernel(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.runs.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        self._run_kernel()

    def __enter__(self) -> "RefClock":
        self.runs = []
        self._run_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_kernel()

    def _slices(self) -> list[float]:
        return [start - end for (_, end), (start, _) in zip(self.runs, self.runs[1:])]

    def wall_s(self) -> float:
        """Wall seconds of the pass, kernel runs excluded."""
        return sum(self._slices())

    def ref_units(self) -> float:
        """The pass's wall time in units of the kernel's time around it."""
        kernel = [end - start for start, end in self.runs]
        return sum(dt / (0.5 * (a + b))
                   for dt, a, b in zip(self._slices(), kernel, kernel[1:]))
