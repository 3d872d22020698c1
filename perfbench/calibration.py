"""Machine-speed calibration for the timed phase.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds and minutes; on one 2-vCPU VM the same corpus
pass took from 4.9 s to 8.0 s within three minutes, with CPU time equal to
wall time.  Medians over one run cannot remove a drift that lasts the whole
run, so the timed phase measures the machine's speed as it goes, with
slices of fixed work of its own, about every CAL_EVERY_S seconds: in the
benchmark process from a SIGALRM handler, so inside long items too, and
for the CLI between invocations, since a child process would run on while
the parent runs a slice.  The slice time is kept out of the item and
repetition times.

A slice does the kind of work the workload's time goes to, with none of
stabrec's code: Gauss-Jordan elimination of small int16 matrices over GF(5)
("small", for corpus, enumeration and cli), or a GF(4) product of two
128 x 128 matrices by table lookups ("large", for bulk).  A repetition's
calibrated wall time is its wall time times (REF_SLICE_S / median slice
time during it) ** CAL_EXPONENT.  The exponent is below 1 because the
slices swing more with the drift than the workloads do: over 10-run sets
of each workload, the log of the wall time rose by 0.5 to 1.0 times the
log of the slice time, and an exponent of 0.75 gave the smallest spread
on all four.  A change to stabrec does not change the slices, so it moves
the calibrated time by the same factor as the raw one.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

CAL_EVERY_S = 0.5
CAL_EXPONENT = 0.75
# Median slice time on the 2-vCPU VM the baseline in record.json was
# measured on; it sets the scale of the calibrated times.
REF_SLICE_S = {"small": 0.053, "large": 0.027}
WORKLOAD_SLICE = {"corpus": "small", "enumeration": "small", "bulk": "large", "cli": "small"}

P = 5
INVERSE = (0, 1, 3, 2, 4)
N_MATRICES = 400
# GF(4) = GF(2)[t]/(t^2+t+1), elements as bit pairs.
GF4_ADD = np.array([[a ^ b for b in range(4)] for a in range(4)], dtype=np.int16)
GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int16)
LARGE_SIDE = 128


def _small_matrices() -> list:
    rng = np.random.default_rng(20101976)
    shapes = rng.integers(3, 9, size=(N_MATRICES, 2))
    return [rng.integers(0, P, size=(int(r), int(c))).astype(np.int16) for r, c in shapes]


def _small_slice(mats) -> float:
    """Seconds to row-reduce every matrix; the pivot counts are checked so
    the work cannot be skipped."""
    t0 = time.perf_counter()
    pivots = {}
    for m in mats:
        a = m.copy()
        rows, cols = a.shape
        r = 0
        piv = []
        for c in range(cols):
            nz = np.nonzero(a[r:, c])[0]
            if len(nz) == 0:
                continue
            k = r + int(nz[0])
            a[[r, k]] = a[[k, r]]
            a[r] = (a[r] * INVERSE[int(a[r, c])]) % P
            for i in range(rows):
                if i != r and a[i, c]:
                    a[i] = (a[i] - a[i, c] * a[r]) % P
            piv.append(c)
            r += 1
            if r == rows:
                break
        pivots[tuple(piv)] = pivots.get(tuple(piv), 0) + 1
    dt = time.perf_counter() - t0
    if sum(pivots.values()) != len(mats):
        raise RuntimeError("calibration slice lost a matrix")
    return dt


def _large_matrices() -> tuple:
    rng = np.random.default_rng(20101976)
    return tuple(rng.integers(0, 4, size=(LARGE_SIDE, LARGE_SIDE)).astype(np.int16)
                 for _ in range(2))


def _large_slice(mats) -> float:
    """Seconds for one GF(4) product by table lookups, one column of the
    left factor at a time (the extension-field product of stabrec's gf layer
    works this way on bulk's large matrices)."""
    a, b = mats
    t0 = time.perf_counter()
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int16)
    for t in range(a.shape[1]):
        term = GF4_MUL[a[:, t].astype(np.intp)[:, None], b[t, :].astype(np.intp)[None, :]]
        out = GF4_ADD[out.astype(np.intp), term.astype(np.intp)]
    dt = time.perf_counter() - t0
    if out.shape != (a.shape[0], b.shape[1]) or int(out.max()) > 3:
        raise RuntimeError("calibration slice went wrong")
    return dt


SLICES = {"small": (_small_matrices, _small_slice), "large": (_large_matrices, _large_slice)}


class Calibrator:
    """Calibration slices of one run, and the clock that leaves them out."""

    def __init__(self, workload: str):
        kind = WORKLOAD_SLICE[workload]
        make, self._slice = SLICES[kind]
        self._ref_s = REF_SLICE_S[kind]
        self._mats = make()
        self._due = 0.0
        self._spent = 0.0
        self.slices: list[float] = []    # of the current repetition

    def _run(self) -> None:
        t0 = time.perf_counter()
        self.slices.append(self._slice(self._mats))
        self._spent += time.perf_counter() - t0
        self._due = time.perf_counter() + CAL_EVERY_S

    def clock(self) -> float:
        """Seconds on a clock that stands still while a slice runs."""
        return time.perf_counter() - self._spent

    def tick(self) -> None:
        """Run a slice if one is due; always at a repetition's first tick."""
        if time.perf_counter() >= self._due:
            self._run()

    @contextlib.contextmanager
    def sampling(self):
        """Run a slice now and every CAL_EVERY_S seconds until the block
        ends, from a SIGALRM handler."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._run())
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            self._run()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrated(self, wall: float) -> float:
        """`wall` rescaled to the reference speed by this repetition's
        slices; the next tick starts a new repetition."""
        factor = (self._ref_s / statistics.median(self.slices)) ** CAL_EXPONENT
        self.slices, self._due = [], 0.0
        return wall * factor
