"""Host speed, measured around the work with a fixed calibration loop.

The machines this benchmark runs on share their cores with other tenants,
and the same round can take 40 % longer from one minute to the next while
the process's own CPU time grows just as much.  The end-to-end figures are
therefore scaled by how fast this loop ran next to the work they time:

    reference seconds = host seconds * REFERENCE_SLICE_S / median slice time

Slices run before every episode and between rounds.  A round is scaled by
the slices run during it and just after it, a set-up repetition by the two
slices on either side of it: the host's speed drifts within a run, and a
run-wide median tracked it worse (see README.md).  ``clock`` leaves the
slices' time out of the workload's timers.  The loop touches no greenlight
code, so a change to the program moves the scaled figures exactly as it
moves the host figures.  On an idle host the two agree.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable

import numpy as np

# A slice is CALIBRATION_STEPS loop steps, which took REFERENCE_SLICE_S
# (median) on an idle core of the reference machine (2-vCPU VM, Python
# 3.11.7, numpy 2.4).  Changing the one means measuring the other again.
CALIBRATION_STEPS = 6000
REFERENCE_SLICE_S = 0.035
SLICES_BETWEEN_ROUNDS = 4


class _Lane:
    __slots__ = ("queue", "credit")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.credit = 0


def calibration_slice() -> float:
    """Time interpreter and small-array work shaped like simulator steps."""
    start = time.perf_counter()
    lanes = [_Lane() for _ in range(8)]
    weights = np.full((32, 32), 0.01)
    hidden = np.ones((32, 32))
    total = 0
    for i in range(CALIBRATION_STEPS):
        lane = lanes[i & 7]
        lane.queue.append((i, i + 30))
        if len(lane.queue) > 3:
            vid, ready = lane.queue.popleft()
            lane.credit += 1
            total += ready - vid
        counts = np.array([len(l.queue) for l in lanes], dtype=np.int64)
        total += int(counts.sum())
        if i % 4 == 0:
            hidden = np.maximum(hidden @ weights, 0.0)
    return time.perf_counter() - start


class HostSpeed:
    """Collects calibration slices over a run."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._paused = 0.0

    def clock(self) -> float:
        """perf_counter without the time spent in calibration slices."""
        return time.perf_counter() - self._paused

    def sample(self, slices: int = SLICES_BETWEEN_ROUNDS) -> None:
        start = time.perf_counter()
        self.slices += [calibration_slice() for _ in range(slices)]
        self._paused += time.perf_counter() - start

    def before(self, fn: Callable) -> Callable:
        """``fn`` preceded by one calibration slice."""
        def sampled(*args, **kwargs):
            self.sample(1)
            return fn(*args, **kwargs)
        return sampled

    def factor(self, start: int, stop: int | None = None) -> float:
        """Reference seconds per host second by ``slices[start:stop]``:
        below 1 on a slowed host."""
        return REFERENCE_SLICE_S / statistics.median(self.slices[start:stop])
