"""Unit tests for the ``repro.obs`` building blocks.

Covers the observability config's validation, the trace recorder's
deterministic sampling/filtering/capping contract, the metrics registry's
canonical snapshot, and the engine's trace hooks and work counters.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    KNOWN_CATEGORIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsConfig,
    TraceRecorder,
    parse_lines,
)
from repro.sim.engine import Simulator


class TestObsConfig:
    def test_defaults_enabled(self):
        config = ObsConfig()
        assert config.enabled
        assert config.metrics and config.trace
        assert config.sampling() == {}

    def test_disabled_when_both_off(self):
        assert not ObsConfig(metrics=False, trace=False).enabled

    def test_hashable_for_cache_keys(self):
        a = ObsConfig(sample_every=(("tx", 100),))
        b = ObsConfig(sample_every=(("tx", 100),))
        assert a == b and hash(a) == hash(b)
        assert a != ObsConfig(sample_every=(("tx", 50),))

    def test_known_categories_are_distinct(self):
        assert len(set(KNOWN_CATEGORIES)) == len(KNOWN_CATEGORIES)

    @pytest.mark.parametrize("kwargs", [
        dict(max_records=-1),
        dict(sample_every=(("tx",),)),
        dict(sample_every=(("", 2),)),
        dict(sample_every=((3, 2),)),
        dict(sample_every=(("tx", 0),)),
        dict(sample_every=(("tx", "2"),)),
        dict(sample_every=(("tx", 2), ("tx", 3))),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObsConfig(**kwargs)


class TestTraceRecorder:
    def test_keeps_everything_by_default(self):
        rec = TraceRecorder(ObsConfig())
        for i in range(5):
            rec.emit("tx", float(i), seq=i)
        assert len(rec) == 5
        assert rec.counts() == {"tx": (5, 5)}

    def test_category_filter_does_not_advance_other_counters(self):
        rec = TraceRecorder(ObsConfig(categories=("probe",),
                                      sample_every=(("probe", 2),)))
        # Interleave filtered-out tx events; they must not perturb the
        # probe category's decimation phase.
        for i in range(6):
            rec.emit("tx", float(i), seq=i)
            rec.emit("probe", float(i), seq=i)
        assert rec.counts() == {"probe": (6, 3)}
        kept = [r["seq"] for r in parse_lines(rec.lines())]
        assert kept == [0, 2, 4]

    def test_sampling_is_deterministic_decimation(self):
        rec = TraceRecorder(ObsConfig(sample_every=(("tx", 3),)))
        for i in range(10):
            rec.emit("tx", float(i), seq=i)
        kept = [r["seq"] for r in parse_lines(rec.lines())]
        assert kept == [0, 3, 6, 9]
        assert rec.counts() == {"tx": (10, 4)}

    def test_max_records_cap_counts_drops(self):
        rec = TraceRecorder(ObsConfig(max_records=3))
        for i in range(10):
            rec.emit("tx", float(i), seq=i)
        assert len(rec) == 3
        assert rec.dropped == 7

    def test_reserved_keys_renamed_not_clobbered(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 1.5, t="shadow", cat="shadow", flow=7)
        record = next(parse_lines(rec.lines()))
        assert record["t"] == 1.5
        assert record["cat"] == "probe"
        assert record["x_t"] == "shadow"
        assert record["x_cat"] == "shadow"
        assert record["flow"] == 7

    def test_lines_are_canonical_json(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 2.0, zebra=1, alpha=2)
        (line,) = rec.lines()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        assert line.index('"alpha"') < line.index('"zebra"')

    def test_envelope_v2_carries_recorder_identity(self):
        rec = TraceRecorder(ObsConfig())
        rec.emit("probe", 1.0, flow=1)
        record = next(parse_lines(rec.lines()))
        assert record["v"] == 2
        assert record["recorder"] == "r0"

        named = TraceRecorder(ObsConfig(), recorder_id="drop-in-band/s7")
        named.emit("probe", 1.0, flow=1, recorder="shadow")
        record = next(parse_lines(named.lines()))
        assert record["recorder"] == "drop-in-band/s7"
        assert record["x_recorder"] == "shadow"


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x", port="p0")
        b = reg.counter("x", port="p0")
        assert a is b
        assert reg.counter("x", port="p1") is not a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_instruments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = Gauge()
        g.set(7.0)
        g.set(-1.0)
        assert g.value == -1.0
        h = Histogram(bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.mean == pytest.approx(5.55 / 3)
        assert Histogram().mean == 0.0

    def test_snapshot_is_deterministically_ordered(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(2)
            reg.counter("a", port="p1").inc(1)
            reg.counter("a", port="p0").inc(1)
            reg.gauge("g").set(0.5)
            reg.histogram("h").observe(0.2)
            return reg

        assert build().to_json() == build().to_json()
        names = [e["name"] for e in build().to_dict()["counters"]]
        assert names == ["a", "a", "b"]


class TestEngineObsHooks:
    def test_scheduled_and_cancellation_counters(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.scheduled == 2
        assert sim.cancellations == 1
        sim.run()

    def test_trace_sink_sees_compactions(self):
        class Sink:
            def __init__(self):
                self.records = []

            def emit(self, category, t, **fields):
                self.records.append((category, t, fields))

        sim = Simulator()
        sim.trace = Sink()
        # The live event fires *before* the parked garbage, so the
        # dispatch-time garbage-ratio check sees 2000 dead records.
        sim.schedule(0.5, lambda: None)
        handles = [sim.schedule(1.0 + i * 1e-6, lambda: None)
                   for i in range(2000)]
        for handle in handles:
            handle.cancel()
        sim.run()
        compacts = [r for r in sim.trace.records if r[0] == "sim"]
        assert compacts, "2000 dead records behind a live one must compact"
        category, _t, fields = compacts[0]
        assert fields["event"] == "compact"
        assert fields["freed"] > 0
