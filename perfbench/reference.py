"""Machine-speed reference for the timed runs.

The benchmark runs on a few cores of a shared host whose speed for one
thread drifts by 20-90 % over seconds to minutes, while CPU time stays
within 0.2 % of wall time: the drift is the machine's speed, not the
scheduler. Raw times of identical work therefore spread by 15-35 % from
run to run. To take most of that out, every timed call is paired with a
fixed reference kernel run right before and right after it, and each time
is reported as

    measured seconds * NOMINAL / (mean of the two reference samples)

that is, in seconds at the reference speed NOMINAL was measured at (a
2-core Intel Xeon in a quiet phase). The kernels are this file's own code,
so a change to liuboost moves the measured time and never the reference.
The pairing is partial: in the host's slowest phases the program slows by
up to a tenth more than the kernel does, so scaled times still drift by
about that much.

Two kernels, one per kind of work: ``small`` (interpreter loops over small
arrays, like tree fits and per-fold bookkeeping) and ``large`` (a 37 MB
distance block, partitioned, like the dense k-NN). Contention on the host
slows the two kinds differently, so each workload names the one that
matches where its time goes.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.spatial.distance import cdist

_RNG = np.random.default_rng(20171115)
_VEC = _RNG.random(256)
_ROWS, _COLS = _RNG.random((640, 10)), _RNG.random((7200, 10))


def _small() -> None:
    for _ in range(40):
        cum = np.cumsum(_VEC[np.argsort(_VEC, kind="stable")])
        int(np.argmax(cum))
        acc = 0.0
        for j in range(40):
            acc += cum[j] * 0.5


def _large() -> None:
    d = cdist(_ROWS, _COLS, "sqeuclidean")
    np.argpartition(d, 4, axis=1)
    np.partition(d, 4, axis=1)


# kernel name -> (kernel, calls per sample, NOMINAL seconds per call)
KERNELS = {
    "small": (_small, 2, 0.00070),
    "large": (_large, 1, 0.070),
}


class PairedClock:
    """Times calls and the gaps between them against a reference kernel.

    ``start()``, then ``call(fn, ...)`` for each timed call, then
    ``stop()``. ``latencies`` holds the raw seconds of each call and
    ``scaled`` the same at the reference speed; ``scaled_wall()`` is the
    whole run from start to stop at the reference speed, with the gaps
    between calls scaled by the references on either side of them and the
    kernel's own time left out.
    """

    def __init__(self, kernel: str):
        self.kernel, self.calls, self.nominal = KERNELS[kernel]
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.references: list[float] = []
        self._gaps: list[tuple[float, float]] = []  # (seconds, reference)
        self._last = self._mark = 0.0

    def reference(self) -> float:
        """Mean seconds per kernel call. A mean, not the fastest call: the
        host alternates quickly between fast and slow moments, and the
        fastest of a few calls would miss the slow ones that timed calls
        do not."""
        start = time.perf_counter()
        for _ in range(self.calls):
            self.kernel()
        seconds = (time.perf_counter() - start) / self.calls
        self.references.append(seconds)
        return seconds

    def start(self) -> None:
        for _ in range(3):  # warm the kernel's own caches and allocations
            self.kernel()
        self._last = self.reference()
        self._mark = time.perf_counter()

    def _close_gap(self) -> float:
        gap = time.perf_counter() - self._mark
        ref = self.reference()
        self._gaps.append((gap, (self._last + ref) / 2))
        return ref

    def call(self, fn, *args, **kwargs):
        before = self._close_gap()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self._last = self.reference()
        self.latencies.append(seconds)
        self.scaled.append(seconds * self.nominal * 2 / (before + self._last))
        self._mark = time.perf_counter()
        return result

    def stop(self) -> None:
        self._close_gap()

    def raw_wall(self) -> float:
        return sum(self.latencies) + sum(gap for gap, _ in self._gaps)

    def scaled_wall(self) -> float:
        return sum(self.scaled) + sum(gap * self.nominal / ref
                                      for gap, ref in self._gaps)
