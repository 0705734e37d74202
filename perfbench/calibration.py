"""Machine-speed probe that scales the benchmark's times to a reference speed.

A vCPU of a shared cloud host changes speed by up to 2x, and switches between
speeds within a second (measured on a 2-vCPU x86-64 VM: a uniform slowdown of
every instruction, no steal time, and the two vCPUs change independently).
Timing a fixed kernel before and after a multi-second section cannot follow
that. So a pass samples its own speed all the time it is timed: an interval
timer (SIGALRM, every INTERVAL_S) runs `micro`, a fixed piece of work with
the instruction mix of a qlinksim step (8x8 complex matrix products with
Python-level overhead), in the pass's own thread. Each interval counts as

    reference seconds = interval * MICRO_REF_S / time of the micro run ending it

and the micro runs themselves are left out. The time reads as on a core where
`micro` takes MICRO_REF_S. The probe imports nothing from qlinksim, so no
change to the program can change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About micro's time on an uncontended core of that VM (Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31, one BLAS thread); only the unit depends on it.
MICRO_REF_S = 0.0005
MICRO_STEPS = 30
INTERVAL_S = 0.05

_RNG = np.random.default_rng(12345)
_M = 0.05 * ((_RNG.random((8, 8)) - 0.5) + 1j * (_RNG.random((8, 8)) - 0.5))
_M_DAG = _M.conj().T
_RHO = np.eye(8, dtype=complex) / 8.0


def micro() -> float:
    """Seconds taken by a fixed half-millisecond piece of RK2 work."""
    rho = _RHO
    start = time.perf_counter()
    for _ in range(MICRO_STEPS):
        k1 = _M @ rho + rho @ _M_DAG
        mid = rho + 0.5 * k1
        rho = rho + 0.1 * (k1 + _M @ mid + mid @ _M_DAG)
        rho = rho / np.trace(rho).real
    return time.perf_counter() - start


def speed_factor(runs: int = 21) -> float:
    """MICRO_REF_S over the median of `runs` micro runs: the speed right now."""
    return MICRO_REF_S / statistics.median(micro() for _ in range(runs))


class SpeedProbe:
    """Reference seconds of a section, from micro runs every INTERVAL_S inside it."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (start, duration) of micro runs
        self._start = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append((start, micro()))

    def start(self) -> None:
        self._samples.clear()
        signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; return the section's (raw, reference) seconds without the probe."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        raw = reference = 0.0
        since = self._start
        for start, duration in self._samples:
            raw += start - since
            reference += (start - since) * MICRO_REF_S / duration
            since = start + duration
        # the tail after the last micro run goes at the speed last measured
        last = self._samples[-1][1] if self._samples else MICRO_REF_S / speed_factor()
        raw += end - since
        reference += (end - since) * MICRO_REF_S / last
        return raw, reference
