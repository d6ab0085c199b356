"""Host-speed probes: fixed work that never touches the package.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of per cent over minutes, and not every kind of work drifts together:
starting an interpreter that imports numpy drifts apart from work done inside
one process.  So every timed unit of work is bracketed by two probes of the
kind of work it does, and reported at the reference speed below:

    slowdown      = mean of the two probe times / the probe's reference time
    reported time = measured time / slowdown
    reported rate = measured rate * slowdown

A change to the package moves the measured time and not the probes, so it
moves the reported figure by the same share.  A host that is slower for
everyone moves both, and the reported figure stays put.  The in-process
probe allocates nothing and runs with the garbage collector paused, so that
the heap the timed work leaves behind does not slow the probe.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from time import perf_counter

import numpy as np

# Medians of the probes on the reference machine (2 CPUs, Python 3.11.7,
# numpy 2.4.6).  Only their ratio to a probe taken during a run matters; they
# fix the scale in which figures are reported.
PROCESS_REF_S = 0.170
INPROC_REF_S = 0.0080

_ROWS = 50_000


class InProcessProbe:
    """Pure-Python arithmetic and JSON, and uniform draws and masks in numpy, as the package uses them.

    The probe owns its buffers, so that it allocates no arrays while timed.
    """

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self._draws = np.empty((_ROWS, 3))
        self._mask = np.empty(_ROWS, dtype=bool)
        self._table = {f"k{i}": [i, i * 0.5] for i in range(1_500)}

    def _work(self) -> int:
        acc = 0
        for i in range(32_000):
            acc += i * i % 7
        acc += len(json.dumps(self._table))
        for _ in range(8):
            self._rng.random(out=self._draws)
            np.less(self._draws[:, 0], 0.6, out=self._mask)
            acc += int(np.count_nonzero(self._mask))
        return acc

    def slowdown(self) -> float:
        """Time of one probe, as a multiple of its reference time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            dt = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        return dt / INPROC_REF_S


def process_slowdown(cwd) -> float:
    """Wall time of a fresh interpreter that imports numpy, as a multiple of its reference time."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True, capture_output=True)
    return (perf_counter() - t0) / PROCESS_REF_S
