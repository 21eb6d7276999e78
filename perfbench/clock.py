"""Timing that separates the program's cost from the host's momentary speed.

On a shared host the interpreter's speed drifts by tens of percent over
seconds as neighbours load the machine; the kernel reports no steal time,
and CPU time drifts with wall time. On a loaded 2-core x86_64 host,
wall-clock op medians of ten runs spread by 28-35% (quartile distance
over median).

:class:`HostSpeedProbe` therefore times a fixed pure-Python kernel every
10 ms of wall time, from a SIGALRM handler that runs between the
program's bytecodes. A timed call's reference-speed time is its wall time,
less the probe's own time, scaled by ``REF_S / mean probe time`` over the
probes taken during and right after the call: the time the call would
take on a host where the kernel takes ``REF_S``. The kernel is independent
of radiomesh, so a slower program reads slower whatever the host's load.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

_A = list(range(256))
_B = list(range(256, 0, -1))


def _kernel() -> int:
    best = 0
    for _ in range(4):
        for i in range(256):
            c = _A[i] + 7 - _B[i]
            if c > best:
                best = c
    return best


def wall_clock(fn: Callable, *args):
    """Call ``fn``; return (result, wall seconds, wall seconds)."""
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall


class HostSpeedProbe:
    """A clock that also reports each call's time at reference host speed."""

    INTERVAL_S = 0.01
    REF_S = 50e-6  # nominal kernel time; rescaled times read as if it held

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __call__(self, fn: Callable, *args):
        """Call ``fn``; return (result, wall seconds, reference-speed seconds)."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start - sum(self.samples[first:])
        self._sample()  # so that even a call shorter than the interval has one
        return result, wall, wall * self.REF_S / statistics.mean(self.samples[first:])

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 is a host at reference speed."""
        return statistics.median(self.samples) / self.REF_S
