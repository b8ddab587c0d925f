"""Host-speed calibration: a fixed interpreter workload timed beside the program.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to 2× within seconds.  Every vCPU cycle is
still delivered (steal time stays near zero); the cycles just do less work,
so CPU time drifts exactly as wall time does.  A fixed workload of the same
kind as the simulator's (interpreted calls on slotted objects, ``heapq``
push/pop of tuples, dict updates, float arithmetic) run right before and
after each task slows down in step with it: over 43 units of the
``single-link`` workload, unit time and calibration time correlated by
0.85, and dividing one by the other halved the unit-to-unit variation.
The samples must be dense: samples only at the ends of a stretch of
several seconds, or taken in the parent around a pool of workers, did
not track (README.md gives the figures).

:func:`kernel` imports nothing from the repository, so a change to the
program never changes the yardstick.  A time ``t`` measured between two
calibration samples ``a`` and ``b`` is reported as
``t * REFERENCE_S / ((a + b) / 2)``: the seconds it would take on a host
where the kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Dict, List, Sequence, Tuple

#: Kernel time that defines the reference host (about what the kernel
#: takes on one vCPU of a shared 2.1 GHz Xeon under Python 3.11).
REFERENCE_S = 0.08

#: Events the kernel dispatches per sample.
KERNEL_EVENTS = 60_000


class _Event:
    """A scheduled item, as small and as slotted as the engine's."""

    __slots__ = ("t", "kind", "size")

    def __init__(self, t: float, kind: int, size: int) -> None:
        self.t = t
        self.kind = kind
        self.size = size


def kernel(events: int = KERNEL_EVENTS) -> float:
    """A tiny discrete-event loop; the same work on every call."""
    rng = random.Random(7)
    heap: List[Tuple[float, int, _Event]] = []
    served: Dict[int, int] = {}
    busy = 0.0
    for i in range(events):
        heapq.heappush(heap, (rng.random() + i, i, _Event(i * 1e-3, i & 7, 64 + (i & 1023))))
        if len(heap) > 200:
            _, _, event = heapq.heappop(heap)
            served[event.kind] = served.get(event.kind, 0) + event.size
            busy += event.size * 8 / 1e7 + event.t * 1e-9
    return busy


def sample() -> float:
    """Run :func:`kernel` once; returns its wall time."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Stopwatch:
    """Wall time in segments, split by the caller, with a kernel sample at each split.

    Without calibration the segments tile the time from construction to
    the last split.  With it, the kernel runs at construction and after
    each split, and its own time falls outside every segment.
    """

    def __init__(self, calibrated: bool) -> None:
        self.calibrated = calibrated
        self.segments: List[float] = []
        self.samples: List[float] = [sample()] if calibrated else []
        self._mark = time.perf_counter()

    def split(self) -> None:
        """End the current segment (and sample the host, when calibrating)."""
        self.segments.append(time.perf_counter() - self._mark)
        if self.calibrated:
            self.samples.append(sample())
        self._mark = time.perf_counter()

    @property
    def total_s(self) -> float:
        """The segments' wall time."""
        return sum(self.segments)

    @property
    def reference_s(self) -> float:
        """The segments' time at reference host speed (0 without calibration)."""
        return rescale(self.segments, self.samples) if self.calibrated else 0.0


def rescale(times: Sequence[float], samples: Sequence[float]) -> float:
    """Total reference-speed time of ``times[i]``, each taken between ``samples[i]`` and ``samples[i + 1]``."""
    if len(samples) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} samples, got {len(samples)}")
    return sum(t * REFERENCE_S / ((a + b) / 2) for t, a, b in zip(times, samples, samples[1:]))
