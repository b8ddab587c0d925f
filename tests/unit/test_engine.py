"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_in_scheduling_order(sim):
    fired = []
    for name in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_future_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_with_empty_calendar(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_boundary_event_fires(sim):
    fired = []
    sim.schedule(2.0, fired.append, "exact")
    sim.run(until=2.0)
    assert fired == ["exact"]


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.alive


def test_cancel_twice_is_harmless(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_handle_reports_time_and_liveness(sim):
    handle = sim.schedule(4.0, lambda: None)
    assert handle.alive
    assert handle.time == 4.0
    sim.run()
    assert not handle.alive


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)  # noqa: SIM001
    with pytest.raises(SimulationError):
        sim.call(-0.5, lambda: None)  # noqa: SIM001


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_call_fast_path_fires_in_order(sim):
    fired = []
    sim.call(2.0, fired.append, "b")
    sim.call(1.0, fired.append, "a")
    sim.run()
    assert fired == ["a", "b"]


def test_stop_halts_run(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.now == 2.0
    # The remaining event is still pending and can be run later.
    sim.run()
    assert fired == [1, 3]


def test_step_runs_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_events_processed_counts(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_excludes_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending == 1


def test_args_passed_through(sim):
    got = []
    sim.schedule(1.0, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
    sim.run()
    assert got == [(1, "x", None)]


# -- one calendar, two drivers ------------------------------------------------


def _mixed_calendar(sim):
    """Seed ``sim`` with a calendar that crosses every dispatch path.

    Two self-clocked chains (each re-arm spills the other out of the
    chain slot until ``port-b`` ends), a cancelled record at the heap
    front, same-time events scheduled from inside callbacks (three
    scheduler entry points), ties between a parked chain and heap
    records, and timers cancelled mid-run.  All times are exact binary
    fractions, so ties are real ties.  Returns the list the callbacks
    append ``(now, tag)`` to.
    """
    fired = []

    def note(tag):
        fired.append((sim.now, tag))

    def port(name, left):
        note(name)
        if left:
            sim.call_chained(0.25, port, name, left - 1)

    def burst(tag):
        note(tag)
        sim.call(0.0, note, tag + "/call")
        sim.schedule(0.0, note, tag + "/schedule")
        sim.schedule_at(sim.now, note, tag + "/schedule_at")

    sim.schedule(0.0625, note, "cancelled-front").cancel()
    sim.call_chained(0.125, port, "port-a", 5)
    sim.call_chained(0.25, port, "port-b", 1)
    sim.call(0.5, burst, "burst")
    watchdog = sim.schedule(0.9375, note, "watchdog")
    sim.call(0.375, watchdog.cancel)
    boundary = sim.schedule(0.5625, note, "cancelled-before-boundary")
    sim.call(0.5, boundary.cancel)
    sim.call(0.875, note, "before-chain")  # older seq than port-a's link
    sim.call(1.0, note, "tie-a")
    sim.schedule(1.0, burst, "tie-b")
    return fired


def _observe(sim, fired):
    return (fired, sim.now, sim.events_processed, sim.scheduled, sim.cancellations)


@pytest.mark.parametrize("strict", [False, True])
def test_run_and_step_dispatch_the_same_calendar(strict):
    """``run`` (across two ``until`` horizons) and a ``step`` loop agree on
    every observable: fire order, clock, and the engine's counters."""
    by_run = Simulator(strict=strict)
    fired_run = _mixed_calendar(by_run)
    by_run.run(until=0.5625)
    assert by_run.now == 0.5625
    by_run.run(until=1.0)
    assert by_run.now == 1.0
    by_run.run()

    by_step = Simulator(strict=strict)
    fired_step = _mixed_calendar(by_step)
    while by_step.step():
        pass

    assert _observe(by_run, fired_run) == _observe(by_step, fired_step)
    times = [t for t, _ in fired_run]
    assert times == sorted(times)
    tags = [tag for _, tag in fired_run]
    assert "watchdog" not in tags
    assert "cancelled-front" not in tags
    assert "cancelled-before-boundary" not in tags
    assert tags.count("port-a") == 6
    assert tags.count("port-b") == 2
    assert fired_run[tags.index("before-chain") + 1] == (0.875, "port-a")
    assert tags[tags.index("burst"):tags.index("burst") + 5] == [
        "burst", "port-b", "burst/call", "burst/schedule", "burst/schedule_at",
    ]
    assert by_run.cancellations == 3
    assert by_run.events_processed == len(fired_run) + 2  # + 2 cancel timers


@pytest.mark.parametrize("driver", ["run", "step"])
def test_cancel_after_fire_changes_nothing(sim, driver):
    """A handle whose event already fired is inert: cancelling it neither
    reaches a later event nor counts as a cancellation."""
    fired = []
    handle = sim.schedule(1.0, fired.append, "first")
    if driver == "run":
        sim.run()
    else:
        assert sim.step()
    assert not handle.alive
    later = sim.schedule(1.0, fired.append, "later")
    cancellations = sim.cancellations
    handle.cancel()
    assert not handle.alive
    assert later.alive
    sim.run()
    assert fired == ["first", "later"]
    assert sim.cancellations == cancellations
