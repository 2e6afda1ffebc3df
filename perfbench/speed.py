"""Host speed probe, for timings that do not move with the host's load.

On a shared machine the speed of one core drifts by 25% and more over tens of
seconds as other tenants' load comes and goes; a program change of a few
percent is lost in that. While a `SpeedProbe` is active, a timer signal runs
a fixed reference kernel on the main thread every `interval` seconds and
records how much slower than on a quiet host it ran. The kernel is a 200x60
SVD plus a chain of small numpy operations, the same mix of BLAS and
interpreter work as marc's solvers. While other threads run (the CLI's
thread pool) only the chain runs: it never releases the GIL, so its time is
the core's speed, whereas the SVD releases the GIL and would time the
other threads' work.

`rescale(start, end)` turns a timed interval into seconds at reference
speed: the interval's wall time, minus the probes that ran inside it,
divided by the median slowdown of those probes, or, for an interval too
short to hold five, of the probes within a second of it. A program change
moves it as it moves wall time; host slowdowns largely cancel.
"""
from __future__ import annotations

import signal
import threading
import time

import numpy as np

# Kernel times on the quiet 2-core host the bounds were set on, so rescaled
# times read close to wall times there.
REFERENCE_SVD_S = 1.0e-3
REFERENCE_CHAIN_S = 0.35e-3
NEIGHBOURHOOD_S = 1.0
MIN_PROBES = 5


class SpeedProbe:
    def __init__(self, interval: float = 0.15) -> None:
        self.interval = interval
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((200, 60))
        self._vector = rng.standard_normal(200)
        self._basis = rng.standard_normal((200, 8))
        self.samples: list[tuple[float, float, float]] = []  # start, end, slowdown
        self._previous = None

    def _chain(self) -> None:
        x = self._vector
        for _ in range(40):
            x = np.sign(x) * np.maximum(np.abs(x) - 1e-3, 0.0)
            x = x - self._basis @ (self._basis.T @ x) * 1e-3

    def _sample(self) -> None:
        start = time.perf_counter()
        if threading.active_count() == 1:
            np.linalg.svd(self._matrix, full_matrices=False)
            self._chain()
            reference = REFERENCE_SVD_S + REFERENCE_CHAIN_S
        else:
            self._chain()
            reference = REFERENCE_CHAIN_S
        end = time.perf_counter()
        self.samples.append((start, end, (end - start) / reference))

    def _tick(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "SpeedProbe":
        np.linalg.svd(self._matrix, full_matrices=False)  # lazy imports and allocation
        self._chain()
        for _ in range(MIN_PROBES):  # so even a short run has probes near it
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_PROBES):
            self._sample()

    def rescaler(self):
        """A function (start, end) -> seconds at reference speed, valid for
        intervals timed while the probe was active."""
        starts, ends, slowdowns = np.asarray(self.samples).T
        durations = ends - starts
        mids = (starts + ends) / 2

        def rescale(start: float, end: float) -> float:
            inside = (starts >= start) & (ends <= end)
            busy = (end - start) - float(durations[inside].sum())
            near = inside
            if np.count_nonzero(near) < MIN_PROBES:
                near = (mids >= start - NEIGHBOURHOOD_S) & (mids <= end + NEIGHBOURHOOD_S)
            if np.count_nonzero(near) < MIN_PROBES:
                gap = np.maximum(np.maximum(start - mids, mids - end), 0.0)
                near = np.argsort(gap, kind="stable")[:MIN_PROBES]
            return busy / float(np.median(slowdowns[near]))

        return rescale

    def summary(self) -> dict:
        slowdowns = np.asarray(self.samples)[:, 2]
        q1, med, q3 = np.quantile(slowdowns, [0.25, 0.5, 0.75])
        return {"probes": int(slowdowns.size), "slowdown_q1": q1, "slowdown_median": med,
                "slowdown_q3": q3}
