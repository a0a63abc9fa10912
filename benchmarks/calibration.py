"""Host-speed calibration: a fixed reference computation timed beside the work.

On a shared host the same single-threaded loop runs up to ~1.6x slower for
seconds to minutes at a time, with CPU time tracking wall time, because
other tenants share the physical core and its caches.  Wall time alone then
measures the neighbours.  The benchmark times ``reference_work`` before and
after every iteration and, from a timer signal, every ``INTERVAL_S`` during
it, and scales the iteration's wall time by ``NOMINAL_S / mean reference
time``: the result is the iteration's time on a host where the reference
takes exactly ``NOMINAL_S``.  The reference mixes the kinds of work the
workloads do (see ``reference_work``).

The reference is part of the benchmark, not of ptdilate, so it is the same
code on every commit; only the program under test changes the ratio.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 2e-3  # calibrated seconds = wall seconds * NOMINAL_S / reference seconds
INTERVAL_S = 0.2  # reference samples during an iteration (~1 % of its time)

_X = np.random.default_rng(0).standard_normal(4096)
_M = np.random.default_rng(1).standard_normal((64, 4, 4))
_T = np.linspace(0.0, 8.0, 81)


def reference_work() -> float:
    """Fixed work: 2 to 3 ms on a shared 2-vCPU Xeon, as its neighbours vary.

    Three parts, because the host's slowdowns hit them differently: a pure
    Python loop, NumPy kernels on 4096-element arrays with batched 4x4
    products (as in the long serial chains), and many NumPy calls on
    81-element arrays (as in the fits, where call overhead dominates).
    """
    acc = 0
    for k in range(6000):
        acc += k * k
    y = _X
    for _ in range(20):
        y = np.sin(y) * 0.5 + np.sqrt(np.abs(y))
        _M @ _M
    small = 0.0
    for k in range(60):
        p = np.exp(-0.1 * _T) * np.cos(1.3 * _T + k)
        small += float(np.sum((p - _T) ** 2))
    return acc + float(y[0]) + small


def _timed_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class HostSpeed:
    """Reference timings around and inside timed pieces of work.

    Inside the context a SIGALRM timer times the reference every
    ``INTERVAL_S``.  Call ``start`` just before a piece of work and
    ``factor`` just after it: ``factor`` times the reference ``reps`` times
    (timer held off, so no sample nests in another) and returns
    ``NOMINAL_S`` over the mean of that timing, the one before the work and
    the samples taken during it.  Every timing is kept in ``refs``.
    """

    def __init__(self, reps: int):
        self.reps = reps
        self.refs: list[float] = []
        self._inner: list[float] = []
        self._before = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self._inner.append(_timed_reference())

    def _boundary(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return statistics.median(_timed_reference() for _ in range(self.reps))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._before = self._boundary()
        self.refs.append(self._before)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self._inner = []

    def factor(self) -> float:
        around = [self._before, *self._inner, self._boundary()]
        self._before = around[-1]
        self.refs.extend(around[1:])
        return NOMINAL_S / statistics.fmean(around)
