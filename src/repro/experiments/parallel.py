"""Process-pool fan-out of independent scenario runs.

Every point of a figure sweep is an independent ``(ScenarioConfig,
ControllerSpec)`` simulation — the paper's own evaluation averages 7 seeds
per point and sweeps epsilon per design, so a single figure is dozens of
runs with no data dependencies between them.  This module executes such a
task list concurrently on a :class:`~concurrent.futures.ProcessPoolExecutor`
while preserving bit-for-bit determinism:

* each run is hermetic — :func:`~repro.experiments.runner.run_scenario`
  builds its own :class:`~repro.sim.engine.Simulator` and seeds its own
  :class:`~repro.sim.rng.RandomStreams` from ``config.seed``, so a worker
  process computes exactly the bytes the serial path would;
* results are keyed and yielded in **task order**, never completion
  order, so aggregation sees the same sequence regardless of scheduling;
* both cache tiers (:mod:`repro.experiments.cache`) are consulted before
  any process is spawned and filled as results arrive, so a parallel
  sweep and a serial sweep leave identical cache contents.

The harness is crash-tolerant (DESIGN.md §10): a worker process dying
(OOM kill, segfault, ``os._exit``) breaks the pool, but never the sweep —
results completed before the crash are harvested, the pool is respawned,
and only the unfinished tasks are resubmitted, with capped exponential
backoff between rounds and a bounded per-task retry budget.  Because each
run is a pure function of its task, a retried task recomputes exactly the
bytes the first attempt would have produced, so the yielded sequence stays
byte-identical to the serial path even through injected crashes.  Tasks
that raise *deterministically* (the same exception every attempt) are
never retried: the sweep aborts with a :class:`~repro.errors.SweepTaskError`
carrying the failing task's cache ``run_key``, so the failure is
reproducible in isolation.

Wall-clock timing of runs lives here (and only here) by design: the
module is on the determinism linter's explicit DET002 exemption list,
next to ``benchmarks/`` — see DESIGN.md §9.

The worker count resolves, in order: an explicit ``jobs=`` argument, the
process-wide :func:`set_jobs` value (the CLI's ``--jobs`` flag), the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=0`` means
"one worker per CPU".
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.errors import ConfigurationError, SweepTaskError, SweepWorkerError
from repro.experiments import cache
from repro.experiments.report import format_progress, format_sweep_summary
from repro.obs.export import ObsDirWriter
from repro.experiments.runner import (
    ControllerSpec,
    ReplicatedResult,
    ScenarioConfig,
    ScenarioResult,
    _controller_name,
    run_scenario,
)

#: One unit of work: a fully-seeded scenario under one controller.
RunTask = Tuple[ScenarioConfig, ControllerSpec]

#: Functions that execute inside pool worker processes.  ``pool.submit``
#: sites are discovered syntactically by the cross-module linter; this
#: declaration is the explicit contract for entries that reach workers
#: some other way (fork-inherited hooks), and it keeps the XMOD001
#: reachability analysis anchored even if the submit sites move.
__worker_entry_points__ = ("_compute",)


@dataclass(frozen=True)
class RunEvent:
    """Progress record for one observed event of a sweep.

    ``source`` is ``"run"`` for a fresh simulation, ``"memo"``/``"disk"``
    for a cache hit, ``"failed"`` for a task that raised deterministically
    (the sweep aborts right after emitting it), and ``"retry"`` for a task
    being resubmitted after a worker crash or stall.  ``seconds`` is the
    wall-clock compute time (0 for everything but ``"run"``); ``error``
    carries the exception repr for ``"failed"`` and the attempt counter
    for ``"retry"``, and is empty otherwise.
    """

    index: int
    total: int
    controller: str
    seed: int
    seconds: float
    source: str
    error: str = ""


ProgressCallback = Callable[[RunEvent], None]

_progress_hook: Optional[ProgressCallback] = None
_configured_jobs: Optional[int] = None
_configured_task_timeout: Optional[float] = None
#: Test/drill seam: called with the task at the top of every ``_compute``.
#: Installed in the parent before the pool spawns, it reaches workers via
#: fork — a hook that crashes the process exercises the recovery path.
_task_hook: Optional[Callable[[RunTask], None]] = None
#: Directory for per-run observability artifacts (the CLI's ``--obs-dir``
#: flag); ``None`` disables export.  Artifacts are written in the parent
#: at yield time — task order — so serial and parallel sweeps produce
#: byte-identical directories, and cache hits export too (trace/metrics/
#: timeseries ride the cached ScenarioResult).
_configured_obs_dir: Optional[str] = None

#: Per-task resubmission budget after worker crashes or stalls.
DEFAULT_TASK_RETRIES = 2
#: First inter-round backoff (seconds); doubles per round, capped below.
_RETRY_BACKOFF = 0.25
_RETRY_BACKOFF_CAP = 2.0


def set_progress(callback: Optional[ProgressCallback]) -> None:
    """Install a process-wide progress hook (``None`` to remove it).

    Called once per completed run of every sweep that does not pass its
    own ``progress=`` callback; the CLI installs a stderr printer here.
    """
    global _progress_hook
    _progress_hook = callback


def set_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` to unset)."""
    global _configured_jobs
    if jobs is not None and jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    _configured_jobs = jobs


def set_task_timeout(seconds: Optional[float]) -> None:
    """Set the process-wide no-progress deadline (``None`` to unset).

    When set, a parallel sweep in which *no* task completes for this many
    seconds presumes the workers are hung, recycles the pool, and retries
    the unfinished tasks (within the retry budget).
    """
    global _configured_task_timeout
    if seconds is not None and seconds <= 0:
        raise ConfigurationError(
            f"task timeout must be positive, got {seconds!r}"
        )
    _configured_task_timeout = seconds


def set_obs_dir(path: Optional[str]) -> None:
    """Export per-run obs artifacts of every sweep to ``path`` (None: off).

    The CLI's ``--obs-dir`` flag calls this.  Each sweep writes one
    trace/metrics/timeseries file per run (whichever the run's ObsConfig
    produced) plus a canonical ``manifest.json`` — see
    :class:`repro.obs.export.ObsDirWriter`.
    """
    global _configured_obs_dir
    _configured_obs_dir = path


def set_task_hook(hook: Optional[Callable[[RunTask], None]]) -> None:
    """Install the per-task worker hook (``None`` to remove it).

    Fault-injection seam for tests and the CI crash drill: the hook runs
    inside the worker at the top of every task computation.  Install it
    *before* the sweep starts so forked workers inherit it.
    """
    global _task_hook
    _task_hook = hook


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument > set_jobs() > $REPRO_JOBS > 1.

    ``0`` at any level resolves to the machine's CPU count.
    """
    if jobs is None:
        jobs = _configured_jobs
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"REPRO_JOBS={raw!r} is not an integer") from exc
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def _compute(task: RunTask) -> Tuple[ScenarioResult, float]:
    """Worker entry point: run one task, timing it (picklable top-level)."""
    hook = _task_hook
    if hook is not None:
        hook(task)
    start = time.perf_counter()
    result = run_scenario(task[0], task[1])
    return result, time.perf_counter() - start


def _emit(
    progress: Optional[ProgressCallback],
    index: int,
    total: int,
    task: RunTask,
    seconds: float,
    source: str,
    error: str = "",
) -> None:
    if progress is not None:
        progress(RunEvent(
            index=index,
            total=total,
            controller=_controller_name(task[1]),
            seed=task[0].seed,
            seconds=seconds,
            source=source,
            error=error,
        ))


def _task_error(
    progress: Optional[ProgressCallback],
    index: int,
    total: int,
    task: RunTask,
    exc: BaseException,
) -> SweepTaskError:
    """A ``"failed"`` event plus the :class:`SweepTaskError` to raise.

    The error message carries the task's cache ``run_key`` so the failing
    run can be reproduced in isolation (``cached_run`` on the same config
    recomputes exactly this task).
    """
    _emit(progress, index, total, task, 0.0, "failed", error=repr(exc))
    key = cache.run_key(task[0], task[1])
    return SweepTaskError(
        f"sweep task {index} ({_controller_name(task[1])}, seed "
        f"{task[0].seed}) failed deterministically: {exc!r} [run_key {key}]",
        task_index=index,
        run_key=key,
    )


def iter_run_results(
    tasks: Iterable[RunTask],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    task_timeout: Optional[float] = None,
    task_retries: Optional[int] = None,
) -> Iterator[ScenarioResult]:
    """Yield one :class:`ScenarioResult` per task, in task order.

    The determinism contract: the yielded sequence is a pure function of
    the task list — identical for ``jobs=1`` and ``jobs=N``, with or
    without cache hits, and with or without worker crashes along the way.
    Workers only ever *compute*; ordering, caching, and aggregation stay
    in the parent, so completion order (the one nondeterministic
    ingredient of a pool) never reaches a result stream.

    Cache misses are fanned out over ``resolve_jobs(jobs)`` worker
    processes when there is more than one of them; results are stored
    into both cache tiers as they complete (a killed sweep keeps its
    finished work and resumes from the disk tier).  Consumed lazily, the
    serial path holds one uncached result at a time.

    ``task_timeout`` is a no-progress deadline for the parallel path (see
    :func:`set_task_timeout`); ``task_retries`` bounds per-task
    resubmissions after crashes/stalls (default
    :data:`DEFAULT_TASK_RETRIES`).  A task that *raises* is never
    retried — that failure is deterministic, and the sweep aborts with a
    :class:`~repro.errors.SweepTaskError` naming the task's ``run_key``.

    With :func:`set_obs_dir` configured, each run's observability
    artifacts are exported (in the parent, in task order) as results are
    yielded, and a canonical manifest is written once the sweep is fully
    consumed — byte-identical between serial and parallel sweeps.
    """
    task_list = list(tasks)
    results = _iter_task_results(
        task_list, jobs=jobs, progress=progress,
        task_timeout=task_timeout, task_retries=task_retries,
    )
    obs_dir = _configured_obs_dir
    if obs_dir is None:
        yield from results
        return
    writer = ObsDirWriter(obs_dir)
    for i, result in enumerate(results):
        if result.trace is not None or result.metrics is not None \
                or result.timeseries is not None:
            writer.write_run(
                i, result.controller_name, result.seed,
                trace=result.trace, metrics=result.metrics,
                timeseries=result.timeseries,
            )
        yield result
    writer.write_manifest()


def _iter_task_results(
    task_list: List[RunTask],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    task_timeout: Optional[float] = None,
    task_retries: Optional[int] = None,
) -> Iterator[ScenarioResult]:
    """The cache/pool machinery behind :func:`iter_run_results`."""
    total = len(task_list)
    if progress is None:
        progress = _progress_hook
    if task_timeout is None:
        task_timeout = _configured_task_timeout
    if task_retries is None:
        task_retries = DEFAULT_TASK_RETRIES
    ready: Dict[int, ScenarioResult] = {}
    misses: List[int] = []
    for i, task in enumerate(task_list):
        hit, tier = cache.lookup(task[0], task[1])
        if hit is None:
            misses.append(i)
        else:
            ready[i] = hit
            _emit(progress, i, total, task, 0.0, tier)

    workers = min(resolve_jobs(jobs), len(misses))
    if workers > 1:
        yield from _pool_results(
            task_list, misses, ready, workers, progress,
            task_timeout, task_retries,
        )
        return
    for i in range(total):
        result = ready.pop(i, None)
        if result is None:
            task = task_list[i]
            try:
                result, seconds = _compute(task)
            except Exception as exc:
                raise _task_error(progress, i, total, task, exc) from exc
            cache.store(task[0], task[1], result)
            _emit(progress, i, total, task, seconds, "run")
        yield result


def _serial_fill(
    task_list: List[RunTask],
    indices: Sequence[int],
    ready: Dict[int, ScenarioResult],
    progress: Optional[ProgressCallback],
    total: int,
) -> None:
    """Compute ``indices`` in the parent process (no-pool fallback)."""
    for i in indices:
        task = task_list[i]
        try:
            result, seconds = _compute(task)
        except Exception as exc:
            raise _task_error(progress, i, total, task, exc) from exc
        cache.store(task[0], task[1], result)
        _emit(progress, i, total, task, seconds, "run")
        ready[i] = result


def _new_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """A fresh pool, or ``None`` when the platform can't provide one."""
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (NotImplementedError, OSError):
        return None


def _pool_results(
    task_list: List[RunTask],
    misses: List[int],
    ready: Dict[int, ScenarioResult],
    workers: int,
    progress: Optional[ProgressCallback],
    task_timeout: Optional[float],
    task_retries: int,
) -> Iterator[ScenarioResult]:
    """Fan the missing indices out over a process pool; yield in task order.

    Completed results are cached immediately (a crashed sweep keeps its
    finished work) and buffered until every earlier index is available, so
    the output order is the task order regardless of completion order.

    Crash recovery: a dead worker poisons every unfinished future of its
    pool with :class:`BrokenExecutor`, but futures that completed *before*
    the crash still hold their results — those are harvested, the broken
    pool is discarded, and only the still-outstanding indices are
    resubmitted to a fresh pool after a capped exponential backoff.  Each
    resubmission round charges one attempt to every outstanding task; a
    task over ``task_retries`` attempts aborts the sweep with
    :class:`SweepWorkerError`.  A ``task_timeout`` with no completion is
    treated the same way (hung workers), except the stalled pool is
    abandoned without waiting for it.
    """
    total = len(task_list)
    outstanding = sorted(misses)
    attempts = dict.fromkeys(outstanding, 0)
    next_index = 0
    pool = _new_pool(workers)
    if pool is None:
        # No usable process support (restricted sandbox): degrade to serial.
        _serial_fill(task_list, outstanding, ready, progress, total)
        outstanding = []
    try:
        while outstanding:
            futures: Dict[Future, int] = {
                pool.submit(_compute, task_list[i]): i for i in outstanding
            }
            pending = set(futures)
            broken = False
            while pending and not broken:
                done, pending = wait(
                    pending, timeout=task_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    broken = True  # no-progress deadline: presume hung
                    break
                for future in done:
                    i = futures[future]
                    task = task_list[i]
                    try:
                        result, seconds = future.result()
                    except BrokenExecutor:
                        broken = True
                        continue  # keep harvesting this batch's successes
                    except Exception as exc:
                        raise _task_error(progress, i, total, task, exc) from exc
                    cache.store(task[0], task[1], result)
                    _emit(progress, i, total, task, seconds, "run")
                    ready[i] = result
                while next_index < total and next_index in ready:
                    yield ready.pop(next_index)
                    next_index += 1
            # Yielded indices have been popped from ``ready`` already, so
            # "complete" means either buffered or behind the yield cursor.
            outstanding = sorted(
                i for i in outstanding if i >= next_index and i not in ready
            )
            if not outstanding:
                break
            worst = 0
            for i in outstanding:
                attempts[i] += 1
                worst = max(worst, attempts[i])
            if worst > task_retries:
                over = [i for i in outstanding if attempts[i] > task_retries]
                raise SweepWorkerError(
                    f"worker pool kept failing: tasks {over} exceeded the "
                    f"retry budget of {task_retries}"
                )
            for i in outstanding:
                _emit(
                    progress, i, total, task_list[i], 0.0, "retry",
                    error=f"attempt {attempts[i] + 1} of {task_retries + 1}",
                )
            pool.shutdown(wait=False, cancel_futures=True)
            time.sleep(min(_RETRY_BACKOFF * 2.0 ** (worst - 1), _RETRY_BACKOFF_CAP))
            pool = _new_pool(workers)
            if pool is None:
                _serial_fill(task_list, outstanding, ready, progress, total)
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    while next_index < total:
        yield ready.pop(next_index)
        next_index += 1


def run_many(
    tasks: Iterable[RunTask],
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    task_timeout: Optional[float] = None,
    task_retries: Optional[int] = None,
) -> List[ScenarioResult]:
    """Materialized form of :func:`iter_run_results` (task-ordered list)."""
    return list(iter_run_results(
        tasks, jobs=jobs, progress=progress,
        task_timeout=task_timeout, task_retries=task_retries,
    ))


def replicate_many(
    pairs: Sequence[Tuple[ScenarioConfig, ControllerSpec]],
    seeds: Sequence[int] = (1,),
    jobs: Optional[int] = None,
    keep_runs: bool = False,
) -> List[ReplicatedResult]:
    """Multi-seed replications of many (config, spec) pairs, fanned out flat.

    The full ``len(pairs) × len(seeds)`` task grid goes through one
    :func:`iter_run_results` pass — a sweep with one seed per point still
    parallelizes across its points.  Results aggregate streamingly per
    pair, in pair order.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    tasks: List[RunTask] = [
        (config.with_seed(seed), spec)
        for config, spec in pairs
        for seed in seeds
    ]
    results = iter_run_results(tasks, jobs=jobs)
    out: List[ReplicatedResult] = []
    per_pair = len(seeds)
    for _ in pairs:
        chunk = (next(results) for _ in range(per_pair))
        out.append(ReplicatedResult.aggregate(chunk, keep_runs=keep_runs))
    return out


def cached_replications(
    config: ScenarioConfig,
    design: ControllerSpec = None,
    seeds: Sequence[int] = (1,),
    jobs: Optional[int] = None,
    keep_runs: bool = False,
) -> ReplicatedResult:
    """Cached, parallel multi-seed run (each seed cached individually).

    The successor of the old serial ``cache.cached_replications``: seeds
    stream through :func:`iter_run_results` and fold into the aggregate
    one at a time instead of being built up as an eager result list, and
    per-seed :class:`ScenarioResult` objects are dropped once aggregated
    unless ``keep_runs=True``.
    """
    return replicate_many([(config, design)], seeds, jobs=jobs, keep_runs=keep_runs)[0]


class ProgressTracker:
    """Progress printer + timing accumulator for the CLI.

    Install with ``parallel.set_progress(tracker)``; each finished run
    prints one :func:`~repro.experiments.report.format_progress` line to
    ``stream`` (``None`` keeps it silent), and :meth:`summary` renders the
    totals — runs computed, hits per tier, compute vs. elapsed wall time.
    Lives in this module so that every wall-clock read stays on the
    DET002-exempt path.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream
        self.computed = 0
        self.memo_hits = 0
        self.disk_hits = 0
        self.failures = 0
        self.retries = 0
        self.run_seconds = 0.0
        self._started = time.perf_counter()

    def __call__(self, event: RunEvent) -> None:
        if event.source == "run":
            self.computed += 1
            self.run_seconds += event.seconds
        elif event.source == "memo":
            self.memo_hits += 1
        elif event.source == "disk":
            self.disk_hits += 1
        elif event.source == "failed":
            self.failures += 1
        elif event.source == "retry":
            self.retries += 1
        if self.stream is not None:
            detail = f"{event.controller} seed {event.seed}"
            if event.error:
                detail = f"{detail}: {event.error}"
            line = format_progress(
                event.index, event.total, detail, event.seconds, event.source,
            )
            print(line, file=self.stream, flush=True)

    def summary(self) -> str:
        """One-line totals for everything observed since construction."""
        line = format_sweep_summary(
            computed=self.computed,
            memo_hits=self.memo_hits,
            disk_hits=self.disk_hits,
            run_seconds=self.run_seconds,
            elapsed_seconds=time.perf_counter() - self._started,
        )
        if self.retries or self.failures:
            line += f" ({self.retries} retries, {self.failures} failures)"
        return line


def stderr_tracker() -> ProgressTracker:
    """A :class:`ProgressTracker` printing to stderr (the CLI default)."""
    return ProgressTracker(stream=sys.stderr)
