"""Golden byte-identity: the fast path must be behaviour-invisible.

The fixture ``tests/fixtures/golden_scenarios.json`` pins, for a small
matrix of (scenario, seed) points, the exact ScenarioResult payload and
the cache ``run_key`` produced by the reference implementation (with the
code fingerprint pinned to a constant so the key checks config/schema
stability rather than source bytes).  These tests replay every point on
the current code and assert equality — the contract that lets hot-path
optimisations (the self-clocked transmit chain, packet free lists) land
without any behavioural review: if a single counter, float, or key
moves, the optimisation is not an optimisation.
The ``video`` point is the one scenario that schedules events at exactly
the current time (each frame's first packet), so it pins same-time FIFO
order through the calendar.

The full matrix replays with ``strict=False`` engines — the production
fast path the optimisations target.  One point additionally replays
under ``strict=True`` to pin that the checked engine agrees bit-for-bit
with the fast one.  Regenerate the fixture (only when behaviour is
*meant* to change) with ``PYTHONPATH=src python
tests/fixtures/generate_golden.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Tuple
from unittest import mock

import pytest

from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
)
from repro.experiments import cache
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.experiments.scenarios import get_scenario
from repro.sim.engine import set_strict_default

_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "golden_scenarios.json"
_GOLDEN: Dict[str, Any] = json.loads(_FIXTURE.read_text())

_DESIGN = EndpointDesign(
    CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
)

_POINTS = [
    pytest.param(point, id=f"{point['scenario']}-seed{point['seed']}")
    for point in _GOLDEN["points"]
]


def _canonical(result: ScenarioResult) -> Dict[str, Any]:
    """The result as it appears in the fixture (JSON round-trip normalizes
    tuples to lists and non-string dict keys to strings)."""
    payload: Dict[str, Any] = json.loads(json.dumps(asdict(result)))
    return payload


def _replay(point: Dict[str, Any]) -> Tuple[ScenarioResult, str]:
    config = get_scenario(point["scenario"]).config(
        scale=_GOLDEN["scale"], seed=point["seed"]
    )
    result = run_scenario(config, _DESIGN)
    with mock.patch.object(
        cache, "code_fingerprint", return_value=_GOLDEN["pinned_fingerprint"]
    ):
        key = cache.run_key(config, _DESIGN)
    return result, key


def test_fixture_is_well_formed() -> None:
    assert _GOLDEN["design"] == "drop/in-band/slow-start"
    assert len(_GOLDEN["points"]) == 7
    points = {(p["scenario"], p["seed"]) for p in _GOLDEN["points"]}
    assert points == {
        (name, seed)
        for name in ("basic", "high-load-flaky")
        for seed in (1, 2, 3)
    } | {("video", 1)}
    assert len({p["run_key"] for p in _GOLDEN["points"]}) == 7


@pytest.mark.parametrize("point", _POINTS)
def test_fast_path_matches_golden(point: Dict[str, Any]) -> None:
    """Non-strict (production) engines reproduce the fixture exactly."""
    previous = set_strict_default(False)
    try:
        result, key = _replay(point)
    finally:
        set_strict_default(previous)
    assert _canonical(result) == point["result"]
    assert key == point["run_key"]


def test_strict_engine_matches_golden() -> None:
    """The strict engine agrees bit-for-bit with the fast path.

    One point suffices: divergence between the strict and fast dispatch
    orders would corrupt every downstream counter, not a single seed.
    (conftest arms ``set_strict_default(True)`` session-wide, so this
    replay runs strict without further setup.)
    """
    point = _GOLDEN["points"][0]
    result, key = _replay(point)
    assert _canonical(result) == point["result"]
    assert key == point["run_key"]
