"""Interpreter speed of the machine while timed work runs.

On a shared virtual machine the same pure-Python work can take up to twice
as long from one minute to the next, and CPU time drifts with wall time,
so neither makes two runs comparable.  ``SpeedSampler`` measures the speed
while the work runs: every ``INTERVAL_S`` a ``SIGALRM`` handler times one
run of a small fixed kernel, made of the operations the package spends its
time on (bit tricks, generators, recursion, sorts with a key, small tuples
and dicts).  ``factor`` compares the mean sample with
``REFERENCE_SAMPLE_S``; a time multiplied by it is the time the same work
would take at the reference speed.

``clock`` is ``perf_counter`` minus the time spent in the handler, so the
samples cost the timed work nothing.  The kernel imports nothing from the
package, so no change to the package can move it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter

from .streams import random_cubic

INTERVAL_S = 0.02
MIN_SAMPLES = 25
# Mean kernel time on a 2-core KVM Xeon (2.1 GHz base), CPython 3.11.
REFERENCE_SAMPLE_S = 0.0005

_ADJ = tuple(random_cubic(random.Random(0), 40))
_PAIRS = _ADJ[:16]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walks(v: int, visited: int, depth: int) -> int:
    if not depth:
        return 1
    free = _ADJ[v] & ~visited
    total = 0
    for w in sorted(_bits(free),
                    key=lambda w: (_ADJ[w] & ~visited).bit_count()):
        total += _walks(w, visited | 1 << w, depth - 1)
    return total


def kernel() -> int:
    """One fixed unit of work, about ``REFERENCE_SAMPLE_S`` long."""
    acc = _walks(0, 1, 7)
    profiles: list[list[int]] = [[] for _ in _PAIRS]
    for u, au in enumerate(_PAIRS):
        for v in range(u + 1, len(_PAIRS)):
            code = (au & _PAIRS[v]).bit_count() << 1 | (au >> v & 1)
            profiles[u].append(code)
            profiles[v].append(code)
    seen: dict[tuple[int, ...], int] = {}
    for p in profiles:
        p.sort()
        key = tuple(p)
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


def _timed_kernel() -> float:
    """Seconds one kernel run takes.  The collector is held off, since a
    collection would cost time in proportion to the objects the
    interrupted work holds, not to the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure_factor(seconds: float) -> float:
    """Speed factor of the kernel run back to back for ``seconds``, for
    work that runs in other processes."""
    times = []
    begin = perf_counter()
    while len(times) < MIN_SAMPLES or perf_counter() - begin < seconds:
        times.append(_timed_kernel())
    return REFERENCE_SAMPLE_S / statistics.fmean(times)


class SpeedSampler:
    """Context manager sampling the kernel's speed in the background."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(_timed_kernel())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        """``perf_counter`` less the seconds spent taking samples."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:  # work shorter than a few
            self._sample(None, None)            # intervals: sample after

    @property
    def factor(self) -> float:
        return REFERENCE_SAMPLE_S / statistics.fmean(self.samples)
