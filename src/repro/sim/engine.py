"""Discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`.  It is the hot path
of every experiment, so it favors plain data structures over abstraction:

* events are small lists ``[time, seq, callback, args, alive]`` — the list
  (rather than a tuple) lets :meth:`EventHandle.cancel` flip the ``alive``
  flag in O(1) without touching the heap;
* the monotonically increasing ``seq`` breaks ties deterministically, which
  keeps runs bit-for-bit reproducible for a given seed;
* callbacks receive their pre-bound positional arguments, avoiding closure
  allocation in inner loops.

Two lanes hold pending events: the heap and the **chain slot**.  One
dispatch loop, shared by :meth:`Simulator.run` and :meth:`Simulator.step`,
picks the earlier of the two fronts on the same (time, seq) key (DESIGN.md
§11 gives the invariants).  :meth:`Simulator.call_chained` parks the
*expected next* event of a self-clocked component (an output port
serializing a queue backlog) in four scalar slots (time, seq, callback,
args) rather than a record: a chained event cannot be cancelled, so it
needs no ``alive`` flag and no record at all.  While the chain stays the
earliest pending event it is dispatched straight from the slots — zero
heap operations and zero record traffic per link — and it simply waits
(still in correct (time, seq) order) whenever another event is due sooner.

Events due at exactly the current time go to the heap like any other: the
increasing ``seq`` keeps them FIFO.  Records are never reused, so a handle
needs nothing but its record's ``alive`` flag.

Event times are validated at scheduling time: a NaN deadline compares False
against every bound (``when < self.now`` never fires), so without the check
a single NaN would silently corrupt the heap's ordering and with it every
downstream result.  :class:`Simulator` therefore rejects non-finite times
unconditionally, and ``Simulator(strict=True)`` adds the dynamic checks a
linter cannot prove statically: a monotone clock and re-checked finite
times at dispatch.  Heap compaction (cancelled records rebuilt away once
they dominate the calendar) runs in *every* engine, not just strict mode —
long admission-control sweeps cancel enough timers for the garbage to
dominate the heap.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "hello")
>>> sim.run(until=10.0)
>>> fired
['hello']
>>> sim.now
10.0
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Protocol

from repro.errors import SimulationError


class TraceSink(Protocol):
    """Structural interface for event-trace recorders (see ``repro.obs``).

    The engine (and the network/endpoint components) never import the obs
    package — they hold an optional attribute typed against this protocol,
    the same layering trick :class:`repro.net.link.LossModel` uses to keep
    ``net`` from importing ``faults``.  Records carry *simulation* time
    only; anything wall-clock lives in the harness domain (DESIGN.md §13).
    """

    def emit(self, category: str, t: float, /, **fields: object) -> None:
        """Record one event at sim time ``t`` under ``category``."""
        ...



# Index constants for the event record; kept module-private.
_TIME, _SEQ, _FN, _ARGS, _ALIVE = 0, 1, 2, 3, 4

#: Minimum number of cancelled records before the engine considers
#: compacting the heap (avoids rebuilding tiny calendars).
_COMPACT_MIN = 512

#: Process-wide default for ``Simulator(strict=None)``; see
#: :func:`set_strict_default`.
_strict_default = False


def set_strict_default(enabled: bool) -> bool:
    """Set the process-wide default strictness; returns the previous value.

    Simulators constructed without an explicit ``strict=`` argument pick
    this up.  The test suite turns it on (every simulator built by a test
    gets the dynamic validations for free); production sweeps leave it
    off, so the hot path stays unchecked.
    """
    global _strict_default
    previous = _strict_default
    _strict_default = bool(enabled)
    return previous


def strict_default() -> bool:
    """The current process-wide default strictness."""
    return _strict_default


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the record stays in the heap but is skipped when
    popped.  This makes cancel O(1) at the cost of a little heap garbage,
    which is the right trade-off for timers that are usually *not* cancelled.
    Records are never reused, so the record's ``alive`` flag is the whole
    state: dispatch clears it, and a cancel after the event fired is a no-op.
    """

    __slots__ = ("_record", "_sim")

    def __init__(self, record: List[Any], sim: "Simulator") -> None:
        self._record = record
        self._sim = sim

    @property
    def time(self) -> float:
        """Absolute simulation time at which the event will fire."""
        return float(self._record[_TIME])

    @property
    def alive(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return bool(self._record[_ALIVE])

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        record = self._record
        if record[_ALIVE]:
            record[_ALIVE] = False
            self._sim._note_cancelled()


class Simulator:
    """Event calendar with a virtual clock.

    The public surface is deliberately tiny: :meth:`schedule`,
    :meth:`schedule_at`, :meth:`run`, :meth:`step`, and :attr:`now`.
    Components (links, sources, endpoint agents) hold a reference to the
    simulator and schedule their own callbacks.

    Parameters
    ----------
    strict:
        Enable the debug validations that static analysis cannot prove:
        the clock is checked to be monotone at every dispatch (catching
        post-push mutation of event records) and event times are re-checked
        finite at dispatch.  Costs a few percent of event throughput; leave
        off for production sweeps.  ``None`` (the default) defers to the
        process-wide :func:`set_strict_default` setting — off unless
        something (e.g. the test suite) turned it on.
    """

    __slots__ = ("now", "strict", "trace", "_heap",
                 "_chain_time", "_chain_seq", "_chain_fn", "_chain_args",
                 "_seq", "_stopped", "_events_processed", "_cancelled",
                 "_cancel_total", "_compactions")

    def __init__(self, strict: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self.strict: bool = _strict_default if strict is None else strict
        #: Optional event-trace recorder (``repro.obs``); the engine only
        #: touches it on the rare compaction path, never per event.
        self.trace: Optional[TraceSink] = None
        self._heap: List[List[Any]] = []
        #: The chain slot (see call_chained) is four scalar slots rather
        #: than an event record: chained events cannot be cancelled, so
        #: they need no ``alive`` flag, no handle, and no record traffic
        #: at all — the fields are read and overwritten in place.  The
        #: slot is empty iff ``_chain_fn is None``.
        self._chain_time: float = 0.0
        self._chain_seq: int = 0
        self._chain_fn: Optional[Callable[..., Any]] = None
        self._chain_args: Any = ()
        self._seq: int = 0
        self._stopped: bool = False
        self._events_processed: int = 0
        self._cancelled: int = 0
        self._cancel_total: int = 0
        self._compactions: int = 0

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not (delay >= 0):  # rejects negatives and NaN in one comparison
            if math.isnan(delay):
                raise SimulationError("cannot schedule at a NaN delay")
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def call(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path schedule with no cancellation handle.

        Identical semantics to :meth:`schedule` but skips the
        :class:`EventHandle` allocation; use it for the per-packet events of
        the datapath, which are never cancelled (their callbacks guard on
        component state instead).
        """
        if not (delay >= 0):
            if math.isnan(delay):
                raise SimulationError("cannot schedule at a NaN delay")
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        when = self.now + delay
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        self._seq += 1
        heapq.heappush(self._heap, [when, self._seq, fn, args, True])

    def call_chained(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule the next link of a self-clocked event chain.

        Semantically identical to :meth:`call`; the event is parked in a
        one-deep scalar slot instead of the heap.  The dispatch loop
        compares the slot against the heap front, so when the chained
        event is the earliest pending event — the common case for an
        output port draining its backlog — it dispatches straight from the
        slot with zero heap operations and no event record.  The slot only
        spills into the heap (as an ordinary record) when a second chain
        claims it.  Chained events cannot be cancelled; guard in the
        callback instead.
        """
        if not (delay >= 0):
            if math.isnan(delay):
                raise SimulationError("cannot schedule at a NaN delay")
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        when = self.now + delay
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        self._seq += 1
        if self._chain_fn is not None:
            # Two live chains (two busy ports): the older one takes the
            # ordinary heap route, the newest keeps the slot.
            heapq.heappush(self._heap, [
                self._chain_time, self._chain_seq,
                self._chain_fn, self._chain_args, True,
            ])
        self._chain_time = when
        self._chain_seq = self._seq
        self._chain_fn = fn
        self._chain_args = args

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        if not (when >= self.now):  # rejects the past and NaN in one comparison
            if math.isnan(when):
                raise SimulationError("cannot schedule at a NaN time")
            raise SimulationError(
                f"cannot schedule at t={when!r} before current time t={self.now!r}"
            )
        if when == math.inf:
            raise SimulationError(f"cannot schedule at non-finite time {when!r}")
        self._seq += 1
        record = [when, self._seq, fn, args, True]
        heapq.heappush(self._heap, record)
        return EventHandle(record, self)

    # -- execution ------------------------------------------------------

    def _validate_dispatch(self, when: float) -> None:
        """Strict-mode checks on the event about to fire."""
        if not math.isfinite(when):
            raise SimulationError(
                f"event record carries non-finite time {when!r} "
                "(mutated after scheduling?)"
            )
        if when < self.now:
            raise SimulationError(
                f"clock would move backwards: event at t={when!r} dispatched "
                f"at t={self.now!r}"
            )

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; feeds the garbage ratio."""
        self._cancelled += 1
        self._cancel_total += 1

    def _compact(self) -> None:
        """Rebuild the heap without cancelled records.

        The rebuild is in place (slice assignment) so that :meth:`_loop`'s
        local alias of the heap list stays valid across a compaction.
        """
        heap = self._heap
        live = [record for record in heap if record[_ALIVE]]
        freed = len(heap) - len(live)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
        tr = self.trace
        if tr is not None:
            tr.emit("sim", self.now, event="compact",
                    freed=freed, live=len(live))

    def _loop(self, until: Optional[float], once: bool) -> bool:
        """Dispatch events in (time, seq) order: the one loop behind
        :meth:`run` and :meth:`step`.

        Stops when the calendar drains, :meth:`stop` is called, the next
        event is due strictly after ``until``, or — with ``once`` — after
        the first dispatch.  Returns True iff ``once`` and an event fired.
        The chain slot is compared to the heap front on the same
        (time, seq) key; ``seq`` is unique, so the order is total.
        """
        self._stopped = False
        heap = self._heap  # _compact mutates in place, so the alias holds
        pop = heapq.heappop
        while not self._stopped:
            chain_fn = self._chain_fn
            if chain_fn is not None:
                when = self._chain_time
                front = heap[0] if heap else None
                if (
                    front is None
                    or when < front[_TIME]
                    or (when == front[_TIME] and self._chain_seq < front[_SEQ])
                ):
                    # The chain is due next: dispatch straight from the
                    # slot — no record, no heap op.  (The compaction check
                    # is skipped here; garbage only accumulates in the
                    # heap, whose dispatch below still bounds it.)
                    if until is not None and when > until:
                        break  # not yet due; it simply stays parked
                    if self.strict:
                        self._validate_dispatch(when)
                    args = self._chain_args
                    self._chain_fn = None
                    self._chain_args = ()
                    self.now = when
                    self._events_processed += 1
                    chain_fn(*args)
                    if once:
                        return True
                    continue
            if not heap:
                break
            record = pop(heap)
            if not record[_ALIVE]:
                # Cancelled garbage: drop it and keep popping.
                cancelled = self._cancelled
                if cancelled > 0:
                    self._cancelled = cancelled - 1
                continue
            when = record[_TIME]
            if until is not None and when > until:
                # Not yet due: put it back and stop.
                heapq.heappush(heap, record)
                break
            if self.strict:
                self._validate_dispatch(when)
            cancelled = self._cancelled
            if cancelled >= _COMPACT_MIN and cancelled > len(heap) // 2:
                self._compact()
            record[_ALIVE] = False
            self.now = when
            self._events_processed += 1
            record[_FN](*record[_ARGS])
            if once:
                return True
        return False

    def step(self) -> bool:
        """Run the single next pending event.

        Returns True if an event ran, False if the calendar is empty.
        """
        return self._loop(None, True)

    def run(self, until: Optional[float] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            ``until`` and advance the clock to exactly ``until``.  If omitted,
            run until the calendar drains or :meth:`stop` is called.
        """
        self._loop(until, False)
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Halt :meth:`run` after the currently executing event returns."""
        self._stopped = True

    # -- introspection ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of events still pending (excluding cancelled garbage)."""
        count = sum(1 for record in self._heap if record[_ALIVE])
        if self._chain_fn is not None:
            count += 1
        return count

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    @property
    def garbage_ratio(self) -> float:
        """Fraction of the heap occupied by cancelled-but-unpopped records."""
        size = len(self._heap)
        if size == 0:
            return 0.0
        return self._cancelled / size

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed so far."""
        return self._compactions

    @property
    def scheduled(self) -> int:
        """Total number of events ever scheduled (both lanes)."""
        return self._seq

    @property
    def cancellations(self) -> int:
        """Total number of handle cancellations since construction.

        Unlike the internal garbage counter this never decreases: it counts
        every :meth:`EventHandle.cancel`, whether or not the record has
        since been popped or compacted away.
        """
        return self._cancel_total
