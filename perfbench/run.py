"""End-to-end and per-layer benchmark of the admission-control simulator.

Run from the repository root::

    python3 perfbench/run.py --workload single-link --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 only when
every output check passed.  ``--steadiness K`` runs the workload K times
with consecutive seeds and prints the quartiles of each end-to-end metric.
See README.md beside this file.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: before anything of the repository is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: (name, unit).  The ``ref_`` times are at reference
#: host speed (:mod:`calibrate`); the plain ``wall_s``, ``sim_rate`` and
#: ``pkts_per_s`` are printed beside them but drift with the host.
#: ``fail_frac`` is printed too but travels in the result line's
#: ``attempted``/``failed`` fields.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("ref_wall_s", "s"),
    ("ref_sim_rate", "s/s"),
    ("ref_pkts_per_s", "pkt/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Host-time metrics printed with ``--trace 0`` but not in the result line.
RAW: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("sim_rate", "s/s"),
    ("pkts_per_s", "pkt/s"),
    ("calib_s", "s"),
)

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.cancelled", "count"),
    ("sim.compactions", "count"),
    ("sim.heap_ops", "count"),
    ("sim.events_per_pkt", "events/pkt"),
    ("sim.self_s", "s"),
    ("sim.share", "fraction"),
    ("net.pkts_tx", "count"),
    ("net.probe_pkts", "count"),
    ("net.queue_drops", "count"),
    ("net.marked", "count"),
    ("net.calls", "count"),
    ("net.self_s", "s"),
    ("net.self_ns_per_pkt", "ns/pkt"),
    ("net.share", "fraction"),
    ("traffic.flows", "count"),
    ("traffic.pkts_emitted", "count"),
    ("traffic.calls", "count"),
    ("traffic.self_s", "s"),
    ("traffic.share", "fraction"),
    ("core.decisions", "count"),
    ("core.admit_ratio", "fraction"),
    ("core.timed_out", "count"),
    ("core.retries", "count"),
    ("core.probe_pkts_per_decision", "pkt/decision"),
    ("core.self_s", "s"),
    ("mbac.samples", "count"),
    ("mbac.self_s", "s"),
    ("obs.trace_emitted", "count"),
    ("obs.trace_kept", "count"),
    ("obs.ts_samples", "count"),
    ("obs.export_bytes", "bytes"),
    ("obs.export_s", "s"),
    ("obs.self_s", "s"),
    ("obs.share", "fraction"),
    ("experiments.tasks", "count"),
    ("experiments.disk_hits", "count"),
    ("experiments.task_p50_s", "s"),
    ("experiments.task_max_s", "s"),
    ("experiments.worker_busy_frac", "fraction"),
    ("experiments.idle_s", "s"),
    ("experiments.store_s", "s"),
    ("experiments.lookup_s", "s"),
    ("experiments.cache_bytes", "bytes"),
    ("experiments.replay_s", "s"),
    ("trace_overhead", "ratio"),
)

#: Timed units per run, at least; more while ``--seconds`` lasts.
MIN_UNITS = 3
#: Set-up samples per run (this process plus fresh ones), median reported.
SETUP_SAMPLES = 5
#: Where the traced run writes its spans (ignored by git).
SPANS_DIR = ROOT / ".perfbench_out"
#: Scratch space for caches and obs directories, removed after each run.
WORK_DIR = ROOT / ".perfbench_work"

CAVEAT = ("note: per-layer times come from cProfile, which inflates "
          "call-heavy code; cross-check a share against an A/B wall-time "
          "run with tracing off before resting a claim on it")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("single-link", "parking-lot", "traced-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating timed units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, printing per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the simulated windows (tests use ~0.05)")
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K times with seeds seed..seed+K-1 and print quartiles")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print the set-up time")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the benchmark; returns the exit status."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    load_before = os.getloadavg()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, args.scale)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.trace:
            outcome = traced_run(inputs, workdir)
        else:
            outcome = timed_run(inputs, workdir, args.seconds)
            outcome.metrics["setup_s"] = statistics.median(
                [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)])
    finally:
        workloads.reap_workers()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    return report(args, outcome, load_before)


@dataclass
class Outcome:
    """What a run measured and how its checks went."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Untraced runs: host-time figures printed beside the metrics.
    raw: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    def add(self, unit: Any) -> None:
        """Fold one unit's attempts, failures and problems in."""
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)

    def expect_same(self, unit: Any, reference: Any, what: str, full: bool = False) -> None:
        """Count each result of ``unit`` that differs from ``reference``.

        Physics only, unless ``full``: then obs payloads and the obs
        directories (sweep) must match too.
        """
        import checks

        if len(unit.results) != len(reference.results):
            return  # a unit that lost runs has counted them as failed already
        if full:
            differing = checks.differing_runs(
                reference.results, unit.results, reference.obs_files, unit.obs_files)
        else:
            differing = [
                f"task {i}" for i, (a, b) in enumerate(zip(unit.results, reference.results))
                if checks.canonical(a, physics_only=True) != checks.canonical(b, physics_only=True)
            ]
        if differing:
            self.failed += len(differing)
            self.problems.append(f"{what}: {', '.join(differing)} differ")


def timed_run(inputs: Any, workdir: Path, seconds: float) -> Outcome:
    """Untimed reference unit, then timed units while ``seconds`` last.

    Each timed unit is calibrated: its time at reference host speed is
    what the ``ref_`` metrics take the median of.  The sweep's timed units
    run at ``jobs=1`` (see :mod:`calibrate`) and must reproduce its
    ``jobs=2`` reference unit exactly, obs directories included.
    """
    import checks
    import workloads

    outcome = Outcome()
    reference = workloads.run_unit(inputs, workdir, counting=True)
    outcome.add(reference)
    outcome.counts = checks.work_counts(reference.results, obs_on=inputs.sweep)
    outcome.digest = checks.physics_digest(reference.results)
    pkts = outcome.counts["net.pkts_tx"]
    sim_s = reference.computed_sim_s
    walls: List[float] = []
    refs: List[float] = []
    speed: List[float] = []
    unit_s: List[float] = []
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or \
            time.perf_counter() - start + statistics.median(unit_s) <= seconds:
        began = time.perf_counter()
        unit = workloads.run_unit(inputs, workdir, jobs=1, calibrated=True)
        unit_s.append(time.perf_counter() - began)
        outcome.add(unit)
        outcome.expect_same(unit, reference, f"timed unit {len(walls) + 1}", full=inputs.sweep)
        walls.append(unit.wall_s)
        refs.append(unit.ref_s)
        speed.extend(unit.speed)
    outcome.metrics.update(
        ref_wall_s=statistics.median(refs),
        ref_sim_rate=sim_s / statistics.median(refs),
        ref_pkts_per_s=pkts / statistics.median(refs),
        peak_rss_mb=peak_rss_mb(),
    )
    outcome.raw.update(
        wall_s=statistics.median(walls),
        sim_rate=sim_s / statistics.median(walls),
        pkts_per_s=pkts / statistics.median(walls),
        calib_s=statistics.median(speed),
    )
    outcome.lines.append(f"timed units: {len(walls)}, wall_s each: "
                         + " ".join(f"{w:.4f}" for w in walls))
    outcome.lines.append("ref_wall_s each: " + " ".join(f"{r:.4f}" for r in refs))
    return outcome


def traced_run(inputs: Any, workdir: Path) -> Outcome:
    """Reference, untraced and traced units; per-layer metrics.

    Serial workloads: a counting reference unit, an untraced unit and a
    unit under cProfile with spans.  The sweep: an untraced unit at its
    own ``jobs`` (harness timings), an untraced and a traced unit at
    ``jobs=1`` (so every layer runs in the profiled process).  Every unit
    must reproduce the first exactly.
    """
    import checks
    import layers
    import workloads

    outcome = Outcome()
    reference = workloads.run_unit(inputs, workdir, counting=True)
    outcome.add(reference)
    counts = checks.work_counts(reference.results, obs_on=inputs.sweep)
    outcome.counts = counts
    outcome.digest = checks.physics_digest(reference.results)
    untraced = workloads.run_unit(inputs, workdir, jobs=1)
    outcome.add(untraced)
    outcome.expect_same(untraced, reference, "untraced unit", full=inputs.sweep)

    spans = layers.SpanRecorder()
    profile = cProfile.Profile()
    with spans.span("unit"), layers.harness_spans(spans):
        profile.enable()
        try:
            traced = workloads.run_unit(inputs, workdir, jobs=1, spans=spans)
        finally:
            profile.disable()
    outcome.add(traced)
    outcome.expect_same(traced, reference, "traced unit", full=inputs.sweep)
    cost = layers.summarize(profile, SRC)

    pkts = counts["net.pkts_tx"]
    m: Dict[str, float] = {k: counts[k] for k, _ in PER_LAYER if k in counts}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = cost.cost(layer).self_s
        m[f"{layer}.share"] = cost.share(layer)
        m[f"{layer}.calls"] = cost.cost(layer).calls
    m["sim.heap_ops"] = cost.heap_ops
    m["net.self_ns_per_pkt"] = cost.cost("net").self_s / pkts * 1e9 if pkts else 0.0
    m["trace_overhead"] = traced.wall_s / untraced.wall_s
    m.update(harness_metrics(reference if inputs.sweep else None, spans))
    outcome.metrics = m

    spans_path = SPANS_DIR / f"spans-{inputs.workload}-s{inputs.seed}.json"
    spans.write(spans_path)
    outcome.lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, row in spans.totals().items():
        outcome.lines.append(f"span {name}: count {row['count']}, "
                             f"total {row['total_s']:.4f} s, self {row['self_s']:.4f} s")
    outcome.lines.append(
        f"profiled self time {cost.total_s:.4f} s; by package: " + ", ".join(
            f"{name} {c.self_s:.3f} s" for name, c in
            sorted(cost.layers.items(), key=lambda kv: -kv[1].self_s)))
    outcome.lines.append(CAVEAT)
    return outcome


def harness_metrics(sweep: Any, spans: Any) -> Dict[str, float]:
    """``experiments.*`` and obs export metrics (all 0 without a sweep).

    Pool timings come from ``sweep``, an untraced unit at the sweep's own
    ``jobs``; cache and export times from the traced unit's spans.
    """
    import workloads

    out: Dict[str, float] = {
        name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER
        if name.startswith(("experiments.", "obs.export_"))
    }
    if sweep is None:
        return out
    task_s = [e.seconds for e in sweep.cold_events if e.source == "run"]
    capacity = workloads.SWEEP_JOBS * sweep.cold_s
    out.update({
        "experiments.tasks": len(sweep.results),
        "experiments.disk_hits": sum(1 for e in sweep.warm_events if e.source == "disk"),
        "experiments.task_p50_s": statistics.median(task_s) if task_s else 0.0,
        "experiments.task_max_s": max(task_s, default=0.0),
        "experiments.worker_busy_frac": sum(task_s) / capacity if capacity else 0.0,
        "experiments.idle_s": capacity - sum(task_s),
        "experiments.store_s": spans.total_s("cache.store"),
        "experiments.lookup_s": spans.total_s("cache.lookup"),
        "experiments.cache_bytes": sweep.cache_bytes,
        "experiments.replay_s": sweep.warm_s,
        "obs.export_bytes": sweep.obs_bytes,
        "obs.export_s": spans.total_s("ObsDirWriter.write_run",
                                      "ObsDirWriter.write_manifest"),
    })
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter: imports plus input generation."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--scale", repr(args.scale), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def host_facts(load_before: Tuple[float, float, float]) -> Dict[str, Any]:
    """Facts about the machine that make a noisy run recognisable."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args: argparse.Namespace, outcome: Outcome,
           load_before: Tuple[float, float, float]) -> int:
    """Print the human-readable report and the result line."""
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: (outcome.metrics[name], unit) for name, unit in declared}
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    print(f"physics digest: {outcome.digest}")
    print("work counts: " + json.dumps(outcome.counts, sort_keys=True))
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, unit in RAW:
        if name in outcome.raw:
            print(f"{name} = {outcome.raw[name]!r} {unit} (host time, not normalised)")
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"fail_frac = {fail_frac!r} fraction ({outcome.failed} of {outcome.attempted} runs)")
    print("host: " + json.dumps(host_facts(load_before), sort_keys=True))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def steadiness(args: argparse.Namespace) -> int:
    """Run the workload K times, seeds seed..seed+K-1; print quartiles.

    The host-time figures printed beside the metrics are summarised too,
    so that the spread with and without calibration can be compared.
    """
    values: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END + RAW}
    status = 0
    for seed in range(args.seed, args.seed + args.steadiness):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds),
             "--scale", repr(args.scale), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        raw = dict(line.split(" = ", 1) for line in proc.stdout.splitlines()
                   if line.endswith("(host time, not normalised)"))
        for name in values:
            values[name].append(result["metrics"][name]["value"] if name in result["metrics"]
                                else float(raw[name].split()[0]))
        print(f"seed {seed}: " + " ".join(
            f"{name}={series[-1]:.4f}" for name, series in values.items()), flush=True)
    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": series}
        print(f"{name}: median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {(q3 - q1) / median:.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.steadiness,
                      "metrics": summary}))
    return status


if __name__ == "__main__":
    sys.exit(main())
