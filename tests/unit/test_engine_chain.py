"""Unit tests for the chain slot (:meth:`Simulator.call_chained`).

The chain slot is the engine's zero-heap-operation lane for self-clocked
event chains (an output port serializing its backlog).  Its contract is
purely semantic equivalence: a ``call_chained`` event fires at exactly
the (time, seq) position a ``call`` would have given it — same clock,
same tie-breaks, same interleaving with every other lane — only cheaper.
These tests pin that equivalence plus the slot mechanics: spilling when
a second chain claims the slot, parking across ``run(until=...)``
horizons, and the validation/introspection surface.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_chain_fires_at_its_scheduled_time(sim):
    fired = []
    sim.call_chained(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_chain_ties_break_by_scheduling_order(sim):
    """(time, seq) ordering holds across lanes: whichever of call /
    call_chained was scheduled first wins the same-time tie."""
    fired = []
    sim.call_chained(1.0, fired.append, "chain-first")
    sim.call(1.0, fired.append, "call-second")
    sim.run()
    assert fired == ["chain-first", "call-second"]

    sim2 = Simulator()
    fired2 = []
    sim2.call(1.0, fired2.append, "call-first")
    sim2.call_chained(1.0, fired2.append, "chain-second")
    sim2.run()
    assert fired2 == ["call-first", "chain-second"]


def test_earlier_heap_event_preempts_parked_chain(sim):
    fired = []
    sim.call_chained(2.0, fired.append, "chain")
    sim.call(1.0, fired.append, "timer")
    sim.run()
    assert fired == ["timer", "chain"]


def test_second_chain_spills_the_first_to_the_heap(sim):
    """Two live chains (two busy ports): both fire, in (time, seq) order."""
    fired = []
    sim.call_chained(2.0, fired.append, "older")
    sim.call_chained(1.0, fired.append, "newer")
    assert sim.pending == 2
    sim.run()
    assert fired == ["newer", "older"]


def test_spilled_chain_keeps_its_original_seq(sim):
    """Spilling must preserve the original tie-break position."""
    fired = []
    sim.call_chained(1.0, fired.append, "chain-a")  # seq 1
    sim.call(1.0, fired.append, "timer")            # seq 2
    sim.call_chained(1.0, fired.append, "chain-b")  # seq 3, spills chain-a
    sim.run()
    assert fired == ["chain-a", "timer", "chain-b"]


def test_run_until_leaves_chain_parked(sim):
    fired = []
    sim.call_chained(5.0, fired.append, "later")
    sim.run(until=3.0)
    assert fired == []
    assert sim.now == 3.0
    assert sim.pending == 1
    sim.run()
    assert fired == ["later"]
    assert sim.now == 5.0


def test_step_dispatches_the_chain_slot(sim):
    fired = []
    sim.call_chained(1.0, fired.append, "via-step")
    assert sim.step() is True
    assert fired == ["via-step"]
    assert sim.pending == 0
    assert sim.step() is False


def test_self_clocked_rechaining_matches_plain_calls():
    """A callback re-arming the chain (the output-port pattern) produces
    the identical firing schedule as the same chain built from calls."""

    def drive(schedule_next):
        sim = Simulator()
        times = []
        remaining = [5]

        def tx_done():
            times.append(sim.now)
            if remaining[0] > 0:
                remaining[0] -= 1
                schedule_next(sim, 0.25, tx_done)

        sim.call(0.5, tx_done)
        sim.call(1.1, times.append, -1.0)  # a background timer interleaves
        sim.run()
        return times

    chained = drive(lambda sim, d, fn: sim.call_chained(d, fn))
    plain = drive(lambda sim, d, fn: sim.call(d, fn))
    assert chained == plain
    assert chained == [0.5, 0.75, 1.0, -1.0, 1.25, 1.5, 1.75]


def test_chain_interleaves_with_head_lane(sim):
    """A zero-delay call at the current time still respects seq order
    against a same-time chain."""
    fired = []

    def first():
        sim.call_chained(0.0, fired.append, "chain")  # seq N
        sim.call(0.0, fired.append, "now")            # seq N+1
        fired.append("first")

    sim.call(1.0, first)
    sim.run()
    assert fired == ["first", "chain", "now"]


def test_chain_validation_rejects_bad_delays(sim):
    with pytest.raises(SimulationError):
        sim.call_chained(-1.0, lambda: None)  # noqa: SIM001 — rejection under test
    with pytest.raises(SimulationError):
        sim.call_chained(math.nan, lambda: None)  # noqa: SIM001 — rejection under test
    with pytest.raises(SimulationError):
        sim.call_chained(math.inf, lambda: None)  # noqa: SIM001 — rejection under test
    assert sim.pending == 0


def test_pending_counts_the_chain_slot(sim):
    assert sim.pending == 0
    sim.call_chained(1.0, lambda: None)
    assert sim.pending == 1
    sim.call(2.0, lambda: None)
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0


def test_chain_works_in_strict_mode():
    sim = Simulator(strict=True)
    fired = []
    sim.call_chained(1.0, fired.append, "ok")
    sim.run()
    assert fired == ["ok"]


def test_events_processed_counts_chain_dispatches(sim):
    sim.call_chained(1.0, lambda: None)
    sim.call(2.0, lambda: None)
    sim.run()
    assert sim.events_processed == 2
