"""The benchmark's workloads: inputs made from a seed, and the unit each run repeats.

A *unit* is one closed-loop batch job over a workload's task list:

* ``single-link`` and ``parking-lot`` call :func:`run_scenario` once per
  task, in order, in this process (the sweep harness is bypassed);
* ``traced-sweep`` submits its whole task list to
  :func:`repro.experiments.parallel.run_many` at once: a cold pass into a
  fresh disk cache, then (memory tier cleared) a warm pass that reads every
  result back from disk and exports the obs directory again.

Every unit returns a :class:`UnitReport` holding the results, the wall time
and the outcome of the output checks (:mod:`checks`).  A timed unit also
samples the host's speed (:mod:`calibrate`) before and after each task,
outside the timed spans; a calibrated sweep unit runs its passes at
``jobs=1`` so that the kernel never competes with a worker.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

import calibrate
import checks
from layers import SpanRecorder
from repro.core.design import (
    CongestionSignal,
    EndpointDesign,
    ProbeBand,
    ProbingScheme,
    all_designs,
)
from repro.experiments import cache, parallel
from repro.experiments.figures import multihop_config
from repro.experiments.runner import (
    ControllerSpec,
    MbacConfig,
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
)
from repro.experiments.scenarios import get_scenario
from repro.obs import ObsConfig

Task = Tuple[ScenarioConfig, ControllerSpec]

WORKLOADS = ("single-link", "parking-lot", "traced-sweep")

#: Worker processes of the sweep: enough for a real pool, and no more
#: than the two cores of the smallest host the benchmark is meant for.
SWEEP_JOBS = 2

#: Obs settings of the sweep, as README/EXPERIMENTS.md document them for
#: ``--obs-dir``: trace (``tx`` kept 1 in 100), metrics and time series.
SWEEP_OBS = ObsConfig(timeseries=True, sample_every=(("tx", 100),))

#: Obs settings of the untimed reference unit of the serial workloads.
#: Nothing is kept (``max_records=0``) but the trace's emission counters
#: still count every ``tx`` (one per packet per hop, whole run) and every
#: ``port`` drop, and the metrics harvest gives the engine totals.  The
#: recorder schedules nothing, so the physics equals the obs-off run.
COUNT_OBS = ObsConfig(categories=("tx", "port"), max_records=0)


@dataclass(frozen=True)
class Shape:
    """How many tasks a workload has and how long each simulates."""

    tasks: int
    warmup: float
    duration: float


#: Sizes at ``scale=1``.  The simulated windows are much shorter than the
#: paper's so that one run holds several units and reports a median; the
#: per-simulated-second work mix of each scenario is unchanged.  Several
#: tasks with independent seeds per unit average out the traffic each
#: seed draws, which keeps host-time figures steady across seeds.
SHAPES: Dict[str, Shape] = {
    "single-link": Shape(tasks=4, warmup=5.0, duration=20.0),
    "parking-lot": Shape(tasks=4, warmup=3.0, duration=8.0),
    "traced-sweep": Shape(tasks=2, warmup=5.0, duration=20.0),
}


@dataclass(frozen=True)
class Inputs:
    """Everything a unit needs, generated from the workload seed."""

    workload: str
    seed: int
    tasks: Tuple[Task, ...]

    @property
    def sweep(self) -> bool:
        """True when the unit goes through the sweep harness."""
        return self.workload == "traced-sweep"


def build_inputs(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """The task list of ``workload`` for ``seed``.

    The seed only picks the simulation seeds (through a private RNG), so
    the same seed always gives the same inputs and a different seed a
    different traffic realisation.  ``scale`` shrinks the simulated
    windows (the tests run at a tiny scale).
    """
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    seeds = [rng.randrange(1, 2**31) for _ in range(shape.tasks)]
    if workload == "single-link":
        # Table 2 "basic": EXP1, tau=3.5 s, 10 Mbps, 200-packet drop-tail.
        base = get_scenario("basic").config(scale=0.002)
        specs: List[ControllerSpec] = [EndpointDesign(
            CongestionSignal.DROP, ProbeBand.IN_BAND, ProbingScheme.SLOW_START,
        )]
    elif workload == "parking-lot":
        # Figure 10 / Tables 5-6: 3 backbone links, long + 3 cross classes.
        base = multihop_config(scale=0.002)
        specs = [EndpointDesign(
            CongestionSignal.MARK, ProbeBand.OUT_OF_BAND, ProbingScheme.SLOW_START,
        )]
    else:
        # Table 2 "high-load" (tau=1.0 s, ~400% offered) under the four
        # designs and MBAC: the overload regime where admission works.
        base = replace(get_scenario("high-load").config(scale=0.002), obs=SWEEP_OBS)
        specs = [*all_designs(), MbacConfig(0.9)]
    base = replace(base, warmup=shape.warmup * scale, duration=shape.duration * scale)
    tasks = tuple((base.with_seed(s), spec) for s in seeds for spec in specs)
    return Inputs(workload=workload, seed=seed, tasks=tasks)


@dataclass
class UnitReport:
    """What one unit did: results, timing, and check outcomes."""

    results: List[ScenarioResult]
    wall_s: float
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: With calibration: the kernel times around the tasks, and the wall
    #: time rescaled by them to reference host speed.
    speed: List[float] = field(default_factory=list)
    ref_s: float = 0.0
    #: Sweep only: progress events of the cold and warm passes.
    cold_events: List[parallel.RunEvent] = field(default_factory=list)
    warm_events: List[parallel.RunEvent] = field(default_factory=list)
    cold_s: float = 0.0
    warm_s: float = 0.0
    #: Sweep only: ``{relative path: sha256}`` of the cold pass's obs dir,
    #: and the byte sizes of the cache and obs directories.
    obs_files: Dict[str, str] = field(default_factory=dict)
    obs_bytes: int = 0
    cache_bytes: int = 0

    def fail(self, problem: str, count: int = 1) -> None:
        """Record ``count`` failed runs and why."""
        self.failed += count
        self.problems.append(problem)

    @property
    def computed_sim_s(self) -> float:
        """Simulated seconds computed (cache hits excluded)."""
        return sum(r.sim_seconds for r in self.results)


def run_unit(
    inputs: Inputs,
    workdir: Path,
    counting: bool = False,
    jobs: int = SWEEP_JOBS,
    spans: Optional[SpanRecorder] = None,
    calibrated: bool = False,
) -> UnitReport:
    """One unit of ``inputs``' workload.

    ``counting`` runs the serial workloads with :data:`COUNT_OBS` (the
    sweep's own obs settings already count); ``spans`` records spans;
    ``calibrated`` samples host speed around each task and sets ``ref_s``.
    """
    if inputs.sweep:
        return sweep_unit(inputs, workdir, jobs=jobs, spans=spans, calibrated=calibrated)
    return serial_unit(inputs, COUNT_OBS if counting else None, spans=spans,
                       calibrated=calibrated)


def serial_unit(
    inputs: Inputs,
    obs: Optional[ObsConfig] = None,
    spans: Optional[SpanRecorder] = None,
    calibrated: bool = False,
) -> UnitReport:
    """Run every task with :func:`run_scenario`, one after another.

    ``obs`` replaces each task's obs settings (the reference unit counts
    work with :data:`COUNT_OBS`).  ``wall_s`` is the sum of the task times.
    """
    run: Callable[..., ScenarioResult] = run_scenario
    if spans is not None:
        run = spans.wrap("run_scenario", run_scenario)
    results: List[ScenarioResult] = []
    report = UnitReport(results=results, wall_s=0.0, attempted=len(inputs.tasks))
    watch = calibrate.Stopwatch(calibrated)
    for config, spec in inputs.tasks:
        if obs is not None:
            config = replace(config, obs=obs)
        try:
            result = run(config, spec)
        except Exception as exc:  # a failed run is counted, the unit goes on
            report.fail(f"{spec!r} seed {config.seed} raised {exc!r}")
            continue
        finally:
            watch.split()
        results.append(result)
    report.wall_s, report.ref_s, report.speed = watch.total_s, watch.reference_s, watch.samples
    check_conservation(report, inputs, results)
    return report


def check_conservation(
    report: UnitReport, inputs: Inputs, results: List[ScenarioResult],
) -> None:
    """Count every result that breaks a conservation law as a failed run."""
    configs = {config.seed: config for config, _ in inputs.tasks}
    for result in results:
        problems = checks.conservation(result, configs[result.seed])
        if problems:
            report.fail("; ".join(problems))


@contextmanager
def sweep_dirs(cache_dir: Path, obs_dir: Path) -> Iterator[None]:
    """Point the sweep harness's disk cache and obs export at two directories.

    This is the benchmark's only use of the harness's module-global
    setters; when they become explicit options, only this function changes.
    """
    cache.set_cache_dir(str(cache_dir))
    parallel.set_obs_dir(str(obs_dir))
    try:
        yield
    finally:
        cache.set_cache_dir(None)
        parallel.set_obs_dir(None)


def _sweep_pass(
    tasks: Sequence[Task], jobs: int, cache_dir: Path, obs_dir: Path, calibrated: bool,
) -> Tuple[Optional[List[ScenarioResult]], List[parallel.RunEvent], calibrate.Stopwatch, str]:
    """One ``run_many`` pass; returns (results or None, events, its stopwatch, error).

    The stopwatch splits at each computed task (a cache hit takes too
    little time to be worth a calibration sample) and at the end.
    """
    events: List[parallel.RunEvent] = []

    def progress(event: parallel.RunEvent) -> None:
        events.append(event)
        if event.source == "run":
            watch.split()

    watch = calibrate.Stopwatch(calibrated)
    try:
        with sweep_dirs(cache_dir, obs_dir):
            results = parallel.run_many(tasks, jobs=jobs, progress=progress)
    except Exception as exc:  # counted against the pass, the run goes on
        return None, events, watch, repr(exc)
    finally:
        reap_workers()
        watch.split()
    return results, events, watch, ""


def sweep_unit(
    inputs: Inputs,
    workdir: Path,
    jobs: int = SWEEP_JOBS,
    spans: Optional[SpanRecorder] = None,
    between_passes: Optional[Callable[[Path], None]] = None,
    calibrated: bool = False,
) -> UnitReport:
    """Cold pass into a fresh disk cache, then a warm pass from disk.

    The warm pass must reproduce the cold pass exactly: every result, and
    every byte of the obs directory, manifest included.  Each task of each
    pass is one attempted run.  The cache and obs directories live in a
    fresh directory under ``workdir``, removed at the end.
    ``between_passes`` receives the cache directory after the cold pass
    (the tests tamper with it there).  ``wall_s`` is the sum of the two
    passes' times.  ``calibrated`` needs ``jobs=1``.
    """
    if calibrated and jobs != 1:
        raise ValueError("a calibrated sweep unit runs at jobs=1; the kernel would share the CPUs")
    unit_dir = Path(tempfile.mkdtemp(prefix="unit-", dir=workdir))
    try:
        return _sweep_unit(inputs, unit_dir, jobs, spans, between_passes, calibrated)
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)


def _sweep_unit(
    inputs: Inputs,
    workdir: Path,
    jobs: int,
    spans: Optional[SpanRecorder],
    between_passes: Optional[Callable[[Path], None]],
    calibrated: bool,
) -> UnitReport:
    def span(name: str) -> ContextManager[None]:
        return nullcontext() if spans is None else spans.span(name)

    tasks = list(inputs.tasks)
    cache_dir, cold_obs, warm_obs = (workdir / n for n in ("cache", "obs-cold", "obs-warm"))
    cache.clear_cache(disk=False)
    report = UnitReport(results=[], wall_s=0.0, attempted=2 * len(tasks))
    with span("cold pass"):
        cold, report.cold_events, watch, error = _sweep_pass(
            tasks, jobs, cache_dir, cold_obs, calibrated)
    report.cold_s = report.wall_s = watch.total_s
    report.ref_s, report.speed = watch.reference_s, list(watch.samples)
    if cold is None:
        report.fail(f"cold pass raised {error}", count=report.attempted)
        return report
    if between_passes is not None:
        between_passes(cache_dir)
    cache.clear_cache(disk=False)
    with span("warm pass"):
        warm, report.warm_events, watch, error = _sweep_pass(
            tasks, jobs, cache_dir, warm_obs, calibrated)
    report.warm_s = watch.total_s
    report.wall_s += report.warm_s
    report.ref_s += watch.reference_s
    report.speed += watch.samples
    cache.clear_cache(disk=False)
    report.results = cold
    report.cache_bytes = checks.tree_bytes(cache_dir)
    report.obs_files = checks.tree_digests(cold_obs)
    report.obs_bytes = checks.tree_bytes(cold_obs)
    check_conservation(report, inputs, cold)
    if warm is None:
        report.fail(f"warm pass raised {error}", count=len(tasks))
        return report
    for what in checks.differing_runs(cold, warm, report.obs_files, checks.tree_digests(warm_obs)):
        report.fail(f"warm pass differs from the cold pass: {what}")
    return report


def reap_workers(timeout: float = 30.0) -> None:
    """Wait until every worker process of this process has exited.

    The harness shuts its pool down without waiting; joining here keeps the
    benchmark from leaving processes behind and lets ``RUSAGE_CHILDREN``
    see the workers' peak memory.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            return
        time.sleep(0.01)
