"""Host-speed normalisation of the benchmark's timings.

The reference machine (2 vCPUs of a shared host) changes speed by up to
1.7x: in bursts of seconds within a run, and in regimes that last minutes,
so the same code read 1.6x faster in one set of ten runs than in the set
before it.  Raw wall times of the same code therefore differ between runs and
between sets by more than any bound worth setting.

`SPEED.time(fn)` times a call and also times a fixed kernel right before and
after it.  The kernel is interpreter-bound like dynconv (object creation,
attribute reads, small numpy ufunc calls) and uses nothing from dynconv, so
it runs the same code on every commit.  The call's wall time is scaled by
REF_S over the kernel's time: a slower program reads slower, a faster host
does not read faster.  Callers keep the wall time too.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Kernel time on the reference machine in its slower state, so that
# normalised timings read as wall times in that state.
REF_S = 0.3e-3
FRESH_S = 0.05  # a probe younger than this is reused, which bounds the overhead
REPEATS = 3  # a probe is the fastest of these, which ignores a preemption

_S = np.random.default_rng(0).normal(size=(8, 8))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def kernel_s() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = perf_counter()
    tape = [_Node(i * 0.5, (i,)) for i in range(400)]
    acc = 0.0
    for node in reversed(tape):
        acc += node.value
    y = _S
    for _ in range(40):
        y = np.maximum(y * _S + _S, 0.0)
    return perf_counter() - start


class Speed:
    """Probes the host's speed next to each timed call."""

    def __init__(self):
        self._at = -math.inf
        self._probe = REF_S
        self.probes: list[float] = []

    def probe(self) -> float:
        """Kernel time now, or the last one if it is under FRESH_S old."""
        if perf_counter() - self._at >= FRESH_S:
            self._probe = min(kernel_s() for _ in range(REPEATS))
            self._at = perf_counter()
            self.probes.append(self._probe)
        return self._probe

    def time(self, fn, *args):
        """Call fn(*args); return (wall s, normalised s, result)."""
        before = self.probe()
        start = perf_counter()
        out = fn(*args)
        wall = perf_counter() - start
        return wall, wall * 2.0 * REF_S / (before + self.probe()), out


SPEED = Speed()
