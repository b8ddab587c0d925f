"""The benchmark bodies timed by ``python -m repro.perf``.

Each benchmark is a function ``(name, rounds, scale) -> BenchResult`` and
exercises one layer of the fast path described in DESIGN.md §11:

* ``engine-events`` — raw timer dispatch through the heap;
* ``packet-chain`` — the packet-transmission chain: an output port
  draining queued backlogs through the engine's chain slot while a few
  thousand background timers keep the calendar deep (the situation of a
  real sweep, where every saved heap operation is O(log n));
* ``cancel-churn`` — schedule/cancel at the ratio a probe-heavy sweep
  produces, exercising lazy cancellation and heap compaction;
* ``scenario-basic`` / ``scenario-high-load-flaky`` — end-to-end runs of
  the two representative scenarios at a small scale;
* ``scenario-basic-traced`` — the basic scenario with the ``repro.obs``
  trace recorder and metrics harvest attached, pinning the price of
  turning observability *on* (the off path is guarded by the
  ``benchmarks/test_obs_overhead.py`` ratio bound instead);
* ``scenario-basic-timeseries`` — the basic scenario with only the
  periodic time-series sampler attached, pinning the sampler's price in
  isolation (its per-tick cost is a pure state read, so it should track
  ``scenario-basic`` closely).

Benchmarks build engines with ``strict=False`` explicitly: the production
configuration whose speed the harness guards.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.net.link import OutputPort
from repro.net.packet import DATA, FlowAccounting
from repro.net.queues import DropTailFifo
from repro.net.sink import Sink
from repro.perf import BenchResult, timed
from repro.sim.engine import Simulator

#: Events in the timer-cascade benchmark.
_ENGINE_EVENTS = 100_000
#: Packets pushed through the transmit-chain benchmark.
_CHAIN_BURSTS = 100
_CHAIN_BURST_SIZE = 500
#: Background timers parked in the calendar during the chain benchmark.
_CHAIN_PRESSURE = 5_000
#: Timers scheduled (and mostly cancelled) in the churn benchmark.
_CHURN_TIMERS = 100_000

#: The representative design for the scenario benchmarks (the paper's
#: drop/in-band/slow-start point, also used by the golden fixtures).
_DESIGN = EndpointDesign(
    CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
)


def bench_engine_events(name: str, rounds: int, scale: float) -> BenchResult:
    """Timer cascade: 100 interleaved chains of pure ``call`` timers."""
    del scale

    def body() -> Simulator:
        sim = Simulator(strict=False)
        remaining = [_ENGINE_EVENTS]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.call(0.001, tick)

        for _ in range(100):
            sim.call(0.0, tick)
        sim.run()
        return sim

    best, median, sim = timed(body, rounds)
    assert isinstance(sim, Simulator)
    return BenchResult(
        name=name,
        rounds=rounds,
        min_s=best,
        median_s=median,
        events_per_s=sim.events_processed / best,
    )


def bench_packet_chain(name: str, rounds: int, scale: float) -> BenchResult:
    """The packet-transmission micro-benchmark (the PR's headline number).

    An output port serializes 100 bursts of 500 packets while 5000
    background timers sit in the calendar; with the self-clocked transmit
    chain each packet costs zero heap operations instead of a push and a
    pop against a deep heap.
    """
    del scale
    total = _CHAIN_BURSTS * _CHAIN_BURST_SIZE

    def body() -> Simulator:
        sim = Simulator(strict=False)
        port = OutputPort(sim, 1e9, DropTailFifo(_CHAIN_BURST_SIZE + 1), 0.0)
        sink = Sink(sim)
        flow = FlowAccounting(1)
        route = [port]
        for i in range(_CHAIN_PRESSURE):
            sim.call(1000.0 + i * 0.01, _noop)
        for _ in range(_CHAIN_BURSTS):
            for i in range(_CHAIN_BURST_SIZE):
                flow.sent += 1
                port.send(flow.acquire(125, DATA, route, sink, seq=i))
            sim.run(until=sim.now + 0.001)
        assert flow.delivered == total, flow.delivered
        return sim

    best, median, sim = timed(body, rounds)
    assert isinstance(sim, Simulator)
    return BenchResult(
        name=name,
        rounds=rounds,
        min_s=best,
        median_s=median,
        events_per_s=sim.events_processed / best,
        packets_per_s=total / best,
    )


def bench_cancel_churn(name: str, rounds: int, scale: float) -> BenchResult:
    """Schedule 100k timers, cancel three quarters, drain the rest."""
    del scale
    peak_garbage = 0.0

    def body() -> Simulator:
        nonlocal peak_garbage
        sim = Simulator(strict=False)
        handles = [
            sim.schedule(1.0 + i * 1e-6, _noop) for i in range(_CHURN_TIMERS)
        ]
        for i, handle in enumerate(handles):
            if i % 4:
                handle.cancel()
        peak_garbage = max(peak_garbage, sim.garbage_ratio)
        sim.run()
        return sim

    best, median, sim = timed(body, rounds)
    assert isinstance(sim, Simulator)
    return BenchResult(
        name=name,
        rounds=rounds,
        min_s=best,
        median_s=median,
        events_per_s=sim.events_processed / best,
        garbage_ratio=peak_garbage,
        compactions=sim.compactions,
    )


def _scenario_bench(
    scenario: str, traced: bool = False, timeseries: bool = False
) -> Callable[[str, int, float], BenchResult]:
    def bench(name: str, rounds: int, scale: float) -> BenchResult:
        from dataclasses import replace

        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import get_scenario
        from repro.obs import ObsConfig

        config = get_scenario(scenario).config(scale=scale, seed=1)
        if traced:
            config = replace(config, obs=ObsConfig())
        elif timeseries:
            config = replace(config, obs=ObsConfig(
                metrics=False, trace=False, timeseries=True,
                timeseries_interval=1.0,
            ))

        def body() -> object:
            return run_scenario(config, _DESIGN)

        best, median, _ = timed(body, max(1, rounds - 1))
        return BenchResult(
            name=name, rounds=max(1, rounds - 1), min_s=best, median_s=median
        )

    return bench


def _noop() -> None:
    return None


#: Registry consumed by :func:`repro.perf.run_suite`, in execution order.
BENCHMARKS: Dict[str, Callable[[str, int, float], BenchResult]] = {
    "engine-events": bench_engine_events,
    "packet-chain": bench_packet_chain,
    "cancel-churn": bench_cancel_churn,
    "scenario-basic": _scenario_bench("basic"),
    "scenario-high-load-flaky": _scenario_bench("high-load-flaky"),
    "scenario-basic-traced": _scenario_bench("basic", traced=True),
    "scenario-basic-timeseries": _scenario_bench("basic", timeseries=True),
}

__all__ = ["BENCHMARKS"]
