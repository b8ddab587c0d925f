"""Regenerate the golden byte-identity fixtures (tests/fixtures/golden_scenarios.json).

Run from the repo root with the *reference* implementation checked out:

    PYTHONPATH=src python tests/fixtures/generate_golden.py

The fixture pins, for a small deterministic matrix of (scenario, seed)
points, the exact :class:`~repro.experiments.runner.ScenarioResult` payload
and the cache ``run_key`` computed with the code fingerprint pinned to a
constant.  ``tests/unit/test_golden_identity.py`` replays the same runs on
the current code and asserts byte-for-byte equality, which is what lets
hot-path optimisations (pooled events, self-clocked links, packet free
lists) prove they are behaviour-invisible.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from unittest import mock

from repro.core.design import CongestionSignal, EndpointDesign, ProbeBand, ProbingScheme
from repro.experiments import cache
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import get_scenario

#: Small but non-trivial scale: 120 s warm-up + 48 s measured window.
SCALE = 0.004
SEEDS = (1, 2, 3)
SCENARIOS = ("basic", "high-load-flaky")
#: Extra single-seed points: ``video`` is the one scenario that schedules
#: events at exactly the current time (the first packet of each frame), so
#: it pins same-time FIFO order through the calendar.
EXTRA_POINTS = (("video", 1),)
#: Code fingerprint is pinned so the key checks config/schema stability,
#: not source bytes (any commit changes the real fingerprint by design).
PINNED_FINGERPRINT = "golden-fixture"

DESIGN = EndpointDesign(
    CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START
)


def build() -> dict:
    points = []
    matrix = [(name, seed) for name in SCENARIOS for seed in SEEDS]
    for name, seed in matrix + list(EXTRA_POINTS):
        config = get_scenario(name).config(scale=SCALE, seed=seed)
        result = run_scenario(config, DESIGN)
        with mock.patch.object(
            cache, "code_fingerprint", return_value=PINNED_FINGERPRINT
        ):
            key = cache.run_key(config, DESIGN)
        points.append({
            "scenario": name,
            "seed": seed,
            "run_key": key,
            "result": asdict(result),
        })
    return {
        "scale": SCALE,
        "design": "drop/in-band/slow-start",
        "pinned_fingerprint": PINNED_FINGERPRINT,
        "points": points,
    }


if __name__ == "__main__":
    out = Path(__file__).with_name("golden_scenarios.json")
    out.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(json.loads(out.read_text())['points'])} points)")
