"""Machine-speed reference for the benchmark's normalised times.

The benchmark runs on shared hosts whose speed drifts with other tenants'
load.  ``Reference`` is timed next to every measured operation, and
``normalised`` scales the operation's time by it.
"""
from __future__ import annotations

import time

import numpy as np


REF_NOMINAL_S = 0.005  # the reference's time the normalised metrics are scaled to


class Reference:
    """A fixed piece of work that does not touch the program, timed between
    operations to track the machine's speed at that moment.

    It mixes what the workloads spend their time on: a pure-Python loop, a
    chain of small-array numpy calls and two batched einsums.  On a shared
    host the speed of all three drifts together by tens of percent for
    seconds to minutes at a time; an operation's time divided by the
    reference time around it does not."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.one = np.ones(4)
        self.x = rng.standard_normal((600, 4, 4))
        self.y = rng.standard_normal((600, 4, 4, 4))
        for _ in range(5):
            self.time()

    def time(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        v = self.one
        for _ in range(1_000):
            v = np.sin(v) * 0.5 + self.one
        np.einsum("nil,nlaj->naij", self.x, self.y)
        np.einsum("nia,njb,nij->nab", self.x, self.x, self.x)
        return time.perf_counter() - t0


def normalised(seconds: float, ref_s: float) -> float:
    """``seconds`` scaled to a machine on which the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s
