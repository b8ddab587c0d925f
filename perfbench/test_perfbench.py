"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark's command line in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    """The JSON object on the last line of standard output."""
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace: int, declared: Any) -> None:
    proc = bench("--workload", "single-link", "--seed", "3", "--seconds", "0",
                 "--scale", str(TINY), "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(declared)
    for name, unit in declared:
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name
    assert "fail_frac = 0.0 fraction" in proc.stdout
    assert "physics digest: " in proc.stdout and "host: " in proc.stdout


def test_benchmark_json_declares_the_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def tamper(cache_dir: Path) -> None:
    """Rewrite one cached result so that it stays readable but is wrong."""
    entry = sorted(cache_dir.glob("*.json"))[0]
    payload = json.loads(entry.read_text())
    payload["result"]["utilization"] /= 2
    entry.write_text(json.dumps(payload, sort_keys=True))


def test_tampered_cache_entry_counts_as_failed_run(tmp_path: Path) -> None:
    inputs = workloads.build_inputs("traced-sweep", 1, scale=TINY)
    clean = workloads.sweep_unit(inputs, tmp_path, jobs=1)
    assert clean.failed == 0, clean.problems
    tampered = workloads.sweep_unit(inputs, tmp_path, jobs=1, between_passes=tamper)
    assert tampered.failed == 1, tampered.problems
    assert tampered.failed / tampered.attempted > 0
    assert any("warm pass differs" in p for p in tampered.problems)


def test_pool_and_serial_sweeps_agree(tmp_path: Path) -> None:
    inputs = workloads.build_inputs("traced-sweep", 2, scale=TINY)
    pooled = workloads.sweep_unit(inputs, tmp_path, jobs=2)
    serial = workloads.sweep_unit(inputs, tmp_path, jobs=1)
    assert pooled.failed == serial.failed == 0
    assert checks.differing_runs(
        pooled.results, serial.results, pooled.obs_files, serial.obs_files) == []
    assert [e.source for e in pooled.warm_events] == ["disk"] * len(inputs.tasks)


def test_seed_reaches_the_generated_inputs() -> None:
    one = workloads.build_inputs("single-link", 1, scale=TINY)
    again = workloads.build_inputs("single-link", 1, scale=TINY)
    two = workloads.build_inputs("single-link", 2, scale=TINY)
    assert one == again
    assert [c.seed for c, _ in one.tasks] != [c.seed for c, _ in two.tasks]
    digests: List[str] = [
        checks.physics_digest(workloads.serial_unit(inputs).results)
        for inputs in (one, again, two)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_rescale_divides_each_time_by_its_neighbouring_samples() -> None:
    ref = calibrate.REFERENCE_S
    assert calibrate.rescale([1.0, 2.0], [ref, ref, 2 * ref]) == pytest.approx(1.0 + 2.0 / 1.5)
    with pytest.raises(ValueError):
        calibrate.rescale([1.0, 2.0], [ref, ref])


@pytest.mark.parametrize("workload", ["parking-lot", "traced-sweep"])
def test_calibrated_unit_samples_around_each_task(workload: str, tmp_path: Path) -> None:
    inputs = workloads.build_inputs(workload, 1, scale=TINY)
    unit = workloads.run_unit(inputs, tmp_path, jobs=1, calibrated=True)
    assert unit.failed == 0, unit.problems
    # The sweep: one sample per computed task plus two per pass.
    assert len(unit.speed) == len(inputs.tasks) + (4 if inputs.sweep else 1)
    assert unit.ref_s > 0 and unit.wall_s > 0
    if inputs.sweep:
        with pytest.raises(ValueError):
            workloads.run_unit(inputs, tmp_path, jobs=2, calibrated=True)


def test_conservation_catches_a_broken_result() -> None:
    inputs = workloads.build_inputs("parking-lot", 1, scale=TINY)
    report = workloads.serial_unit(inputs)
    assert report.failed == 0, report.problems
    config = inputs.tasks[0][0]
    result = report.results[0]
    assert checks.conservation(result, config) == []
    label = sorted(result.per_class)[0]
    broken = replace(result, per_class={
        **result.per_class,
        label: {**result.per_class[label],
                "delivered": result.per_class[label]["sent"]
                + checks.in_flight_limit(config) + 1},
    })
    assert checks.conservation(broken, config)
    assert checks.conservation(replace(result, utilization=1.5), config)


def test_fails_without_a_result_outside_a_full_checkout(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "single-link", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
