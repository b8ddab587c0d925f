"""Output checks and exact work counts for the benchmark's results.

Everything here is a pure function of :class:`ScenarioResult` objects or of
files on disk, so a check reads the same whichever process made the result.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

from repro.experiments.runner import ScenarioConfig, ScenarioResult

#: ScenarioResult fields that carry observability payloads, not physics.
OBS_FIELDS = ("trace", "metrics", "timeseries")


def in_flight_limit(config: ScenarioConfig) -> int:
    """Most packets of one class that can be in the network at one instant.

    Each hop of the longest path holds at most a full buffer, one packet
    in transmission, and a propagating wire's worth of packets (the
    parking lot's access hops are counted at the backbone's rate and
    delay, which over-counts their share of the class's traffic).
    """
    hops = 1 if config.topology == "single" else config.backbone_links + 2
    size = min(c.spec.packet_bytes for c in config.resolve_classes())
    wire = config.link_rate_bps * config.prop_delay / (8 * size)
    return int(hops * (config.buffer_packets + 1 + math.ceil(wire)))


def conservation(result: ScenarioResult, config: ScenarioConfig) -> List[str]:
    """The conservation laws one result must satisfy; returns violations.

    Class packet counters cover the measurement window, so a packet sent
    before the warm-up ended can be delivered inside the window, and one
    sent inside it can still be in flight at the end: per class,
    delivered + dropped + lost equals sent only to within the packets in
    flight at those two instants, bounded by :func:`in_flight_limit`.
    """
    name = f"{result.controller_name} seed {result.seed}"
    problems: List[str] = []
    classes = result.per_class.values()
    if result.offered != sum(c["offered"] for c in classes) or \
            result.admitted != sum(c["admitted"] for c in classes):
        problems.append(f"{name}: per-class flows do not add up to the totals")
    limit = in_flight_limit(config)
    for label, c in sorted(result.per_class.items()):
        if c["offered"] != c["admitted"] + c["blocked"] or c["admitted"] < 0 \
                or c["blocked"] < 0 or not 0 <= c["timed_out"] <= c["blocked"]:
            problems.append(f"{name}: class {label}: offered != admitted + blocked")
        resolved = c["delivered"] + c["dropped"] + c["lost"]
        if abs(resolved - c["sent"]) > limit:
            problems.append(f"{name}: class {label}: delivered + dropped + lost = "
                            f"{resolved} but sent = {c['sent']} (in-flight limit {limit})")
    for what, value in (
        ("utilization", result.utilization),
        ("loss probability", result.loss_probability),
        ("blocking probability", result.blocking_probability),
        *(("link utilization", u) for u in result.per_link_utilization),
    ):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name}: {what} {value!r} outside [0, 1]")
    return problems


def canonical(result: ScenarioResult, physics_only: bool = False) -> str:
    """The result as canonical JSON, optionally without its obs payloads."""
    payload = asdict(result)
    if physics_only:
        for key in OBS_FIELDS:
            payload.pop(key)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def physics_digest(results: Iterable[ScenarioResult]) -> str:
    """SHA-256 over the canonical physics of every result, in order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(canonical(result, physics_only=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def tree_digests(root: Path) -> Dict[str, str]:
    """``{relative path: sha256}`` of every file under ``root``."""
    if not root.is_dir():
        return {}
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def tree_bytes(root: Path) -> int:
    """Total size of the files under ``root`` (0 when it does not exist)."""
    if not root.is_dir():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def differing_runs(
    expected: Sequence[ScenarioResult],
    actual: Sequence[ScenarioResult],
    expected_files: Dict[str, str],
    actual_files: Dict[str, str],
) -> List[str]:
    """Which runs of two sweeps over one task list differ.

    A run differs when its full result (obs payloads included) or one of
    its obs-dir files (named ``NNNN-...`` after its task index) differs.
    A differing manifest, or a file no run owns, is reported on its own.
    """
    bad = {
        i for i, (a, b) in enumerate(zip(expected, actual))
        if canonical(a) != canonical(b)
    }
    bad.update(range(min(len(expected), len(actual)), max(len(expected), len(actual))))
    other: List[str] = []
    for path in sorted(set(expected_files) | set(actual_files)):
        if expected_files.get(path) == actual_files.get(path):
            continue
        prefix = path.split("-", 1)[0]
        if prefix.isdigit():
            bad.add(int(prefix))
        else:
            other.append(path)
    return [f"task {i}" for i in sorted(bad)] + other


def _counter(results: Iterable[ScenarioResult], name: str, **labels: str) -> int:
    """Sum of one metrics-harvest counter over results (label-filtered)."""
    total = 0
    for result in results:
        for counter in (result.metrics or {}).get("counters", ()):
            if counter["name"] == name and all(
                counter["labels"].get(k) == v for k, v in labels.items()
            ):
                total += counter["value"]
    return total


def work_counts(results: Sequence[ScenarioResult], obs_on: bool) -> Dict[str, Any]:
    """Exact per-layer work counts of a unit, from its results and harvest.

    The results must carry a metrics harvest and a trace that counted the
    ``tx`` and ``port`` categories.  Windows differ by source: engine
    totals and trace emissions cover the whole run; class and port
    statistics cover the measurement window after warm-up.  ``obs_on``
    is False when the workload itself runs with obs off and the trace was
    only the benchmark's counter: its obs counts are then 0.
    """
    rs = list(results)

    def per_class(key: str) -> int:
        return sum(c[key] for r in rs for c in r.per_class.values())

    events = sum(r.events for r in rs)
    pkts_tx = _counter(rs, "trace_emitted", category="tx")
    decisions = per_class("offered")
    probe_pkts = _counter(rs, "port_probe_packets")
    series = [r.timeseries for r in rs if r.timeseries is not None]
    return {
        "sim.events": events,
        "sim.scheduled": _counter(rs, "sim_events_scheduled"),
        "sim.cancelled": _counter(rs, "sim_events_cancelled"),
        "sim.compactions": _counter(rs, "sim_compactions"),
        "sim.events_per_pkt": events / pkts_tx if pkts_tx else 0.0,
        "sim.seconds": sum(r.sim_seconds for r in rs),
        "net.pkts_tx": pkts_tx,
        "net.probe_pkts": probe_pkts,
        "net.queue_drops": _counter(rs, "trace_emitted", category="port"),
        "net.marked": per_class("marked"),
        "traffic.flows": per_class("admitted"),
        "traffic.pkts_emitted": per_class("sent"),
        "core.decisions": decisions,
        "core.admit_ratio": per_class("admitted") / decisions if decisions else 0.0,
        "core.timed_out": per_class("timed_out"),
        "core.retries": per_class("retries"),
        "core.probe_pkts_per_decision": probe_pkts / decisions if decisions else 0.0,
        "mbac.samples": _counter(rs, "mbac_samples"),
        "obs.trace_emitted": _counter(rs, "trace_emitted") if obs_on else 0,
        "obs.trace_kept": _counter(rs, "trace_kept") if obs_on else 0,
        "obs.ts_samples": sum(len(s.get("t", ())) for s in series),
    }
