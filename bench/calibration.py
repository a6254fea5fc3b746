"""Host-speed calibration: scale case times to a reference host speed.

The shared host's speed drifts with the load of other tenants, by up to 2x
within minutes and by a quarter within a few seconds.  While a pass runs,
the harness times a fixed pure-Python kernel of about 10 ms: before the
first case, after every case, and every TICK_S of CPU time inside a case
(on a SIGVTALRM timer, so long cases are sampled too).  The time spent in
those samples is taken out of the case's wall time.  A case's time is then
scaled by REFERENCE_S / (the median kernel time within WINDOW_S of the
case), so it reads as the time the case would take on a host where the
kernel takes REFERENCE_S.

The kernel is frozen here, in the benchmark, so a change to `jonq` never
changes it.  It does the kind of work `jonq`'s inner loops do: merging
exponent tuples into a dict with modular coefficients, divisibility tests
on exponent tuples, and sorting monomials by a key function.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from time import perf_counter

# A round figure for the kernel's time on the 2-vCPU host that README.md's
# figures come from; it took 7 to 14 ms there as the host's load changed.
REFERENCE_S = 0.010
WINDOW_S = 2.0
TICK_S = 0.5

_MONOS = [(i % 7, i % 5, i % 3, i % 4) for i in range(60)]
_rng = random.Random(1)
_SORTABLE = [tuple(_rng.randrange(5) for _ in range(4)) for _ in range(400)]


def _key(m):
    return (sum(m), tuple(-x for x in reversed(m)))


def _merge():
    acc: dict = {}
    for a in _MONOS:
        for b in _MONOS:
            m = tuple(x + y for x, y in zip(a, b))
            acc[m] = (acc.get(m, 0) + 31 * 17) % 32003


def _divides():
    return sum(all(x <= y for x, y in zip(b, a)) for a in _MONOS for b in _MONOS)


def _sort():
    for _ in range(4):
        sorted(_SORTABLE, key=_key)


def kernel_s() -> float:
    """Time of the kernel now: each part's best of two runs, summed.

    The garbage collector is held off meanwhile, so that collecting what a
    case left behind is not timed as host speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for part in (_merge, _divides, _sort):
            best = None
            for _ in range(2):
                t0 = perf_counter()
                part()
                dt = perf_counter() - t0
                best = dt if best is None else min(best, dt)
            total += best
        return total
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Kernel samples over a stretch of work, and the time they took.

    While entered, a CPU-time timer also takes a sample every TICK_S.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel time)
        self.spent = 0.0
        self._busy = False

    def take(self):
        if self._busy:  # a tick during a sample
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.samples.append((t0, kernel_s()))
        finally:  # a case's cap can go off during a sample
            self.spent += perf_counter() - t0
            self._busy = False

    def _on_tick(self, signum, frame):
        self.take()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        self.take()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time to reference speed for work done in [start, end].

        Uses the samples taken within WINDOW_S of that interval; the samples
        right before and right after it always qualify.
        """
        near = [k for when, k in self.samples
                if start - WINDOW_S <= when <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)
