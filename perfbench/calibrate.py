"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the interpreter's speed drifts by +-15% within a
minute as neighbours come and go, which swamps any change worth measuring.
The benchmark therefore runs a fixed kernel right before and right after
every timed operation and divides the operation's wall seconds by the
kernel's slowdown against ``REFERENCE_S``.  The kernel is the kind of work
that dominates editsketch, an interpreter loop that drives numpy rows of an
edit-distance sweep; it never touches the package, so a change to the
package cannot move it.  Of the kernels tried (a pure-Python band sweep, a
``bytes.find`` scan, this one), it tracked the speed of matching, encoding
and decoding most closely.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

# Seconds one kernel run takes on the reference machine (a 2-vCPU x86-64
# VM, CPython 3.11, numpy 2.4).  Only the ratio to it matters: calibrated
# seconds are wall seconds at the reference speed.
REFERENCE_S = 0.001

_WIDTH = 2048
_IDX = np.arange(_WIDTH + 1, dtype=np.int32)
_U = np.array([(i * 7919) % 5 for i in range(_WIDTH)], dtype=np.int32)


def _row_sweep(rows: int = 60) -> int:
    """`rows` rows of a semi-global edit-distance sweep (fixed work)."""
    prev = _IDX.copy()
    for i in range(rows):
        sub = (_U != (i * 104729) % 5).astype(np.int32)
        body = np.minimum(prev[:-1] + sub, prev[1:] + 1)
        b = np.empty(_WIDTH + 1, dtype=np.int32)
        b[0] = prev[0] + 1
        b[1:] = body
        prev = _IDX + np.minimum.accumulate(b - _IDX)
    return int(prev.min())


def kernel_samples(count: int = 5) -> List[float]:
    """Wall seconds of `count` runs of the kernel."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _row_sweep()
        out.append(time.perf_counter() - t0)
    return out


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """Run fn; return its result, its wall seconds, and the machine's
    slowdown factor around the call: the median kernel time of the runs
    just before and just after, over REFERENCE_S.  The median ignores a
    kernel run that was descheduled."""
    before = kernel_samples()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, statistics.median(before + kernel_samples()) / REFERENCE_S
