"""Host-speed reference sampled during a run.

On a shared host the speed of the CPU a run gets drifts by up to ~1.8x
over tens of seconds (other tenants on the same core), so raw
throughputs of runs made minutes apart spread by 25-30% (IQR over
median).  A ``Sampler`` fires every ``INTERVAL_S`` on a timer signal and,
between two bytecodes of whatever the workload is doing, times a short
fixed kernel that does not touch echosense.  The kernel's time tracks the
host's speed at that moment; dividing the workload's time by the median
kernel time of the same pass removes most of the drift while leaving any
change in echosense fully visible.  The time spent in the handler is
subtracted from the pass.

Each workload is normalised by the kernel closest to its hot code: object
churn and scalar math for ``design_scan``, numpy on small arrays for the
Bloch-ensemble workloads.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.15


@dataclass(frozen=True)
class _Box:
    a: float
    b: float
    c: tuple


def python_kernel() -> float:
    acc = 0.0
    for i in range(3000):
        box = _Box(i * 0.5, math.cos(i * 0.01), (i, i + 1))
        acc += sum(x * box.b for x in box.c) + box.a
    return acc


_STATE = np.random.default_rng(0).standard_normal((1000, 3))
_AXIS = np.zeros((1000, 3))
_AXIS[:, 2] = 1.0


def array_kernel() -> np.ndarray:
    state = _STATE.copy()
    for _ in range(60):
        k1 = np.cross(_AXIS, state)
        k2 = np.cross(_AXIS, state + 0.01 * k1)
        state = state + 0.001 * (k1 + 2 * k2)
    return state


#: kernel per workload, and the kernel time (s) that defines one reference
#: second: about the kernel's in-run time on a 2-core Xeon host at its
#: fast state, so that reference seconds read close to seconds there
KERNELS = {"figures": (array_kernel, 4.3e-3),
           "finite_dd": (array_kernel, 4.3e-3),
           "design_scan": (python_kernel, 6.0e-3)}


class Sampler:
    """Times ``kernel`` every INTERVAL_S while active (main thread only)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside the handler

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def median_since(self, start: int) -> float | None:
        got = self.samples[start:]
        return statistics.median(got) if got else None
