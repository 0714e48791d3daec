"""Process-pool experiment runner with caching and crash isolation.

Every simulator run is a pure function of its configuration, so a sweep is
embarrassingly parallel and perfectly cacheable.  :class:`ExperimentRunner`
takes a list of tasks, answers what it can from the on-disk
:class:`~repro.runner.cache.ResultCache`, and fans the misses out over a
``ProcessPoolExecutor``.  A task is any picklable callable with a
``digest()`` (its identity: cache key, in-batch dedup, failure record and
``run-result`` record) and a ``describe()`` label: a campaign point
(:class:`~repro.campaign.spec.SimulationSpec`) is one, and :class:`Task`
wraps any top-level function and argument as one.

* **chunked submission** — at most ``workers × 4`` runs are in flight at a
  time, so a 10 000-cell sweep does not materialize 10 000 pickled configs
  and results at once;
* **per-run timeout** — enforced *inside* the worker with ``SIGALRM``, so a
  wedged run dies on its own without poisoning the pool;
* **crash isolation** — a run that raises (or times out) is recorded as a
  :class:`RunFailure` in the runner's tally and the sweep continues; if a
  worker process dies outright the pool is rebuilt and the remaining runs
  proceed.  A failed task's result slot is ``None``.

With ``workers <= 1`` tasks execute serially in-process; the equivalence
tests in ``tests/runner/`` pin serial and pooled results to each other.

**Worker memory.**  A finished run's network is one cyclic object graph
(bound-method callbacks, engine handles, medium ↔ participant links) that
reference counting never frees, and CPython's generation-2 collection
waits until the survivors grow by 25%, so a worker would carry several
dead networks into each new run.  Each pool worker therefore freezes the
heap it inherits once (:func:`_init_worker`, the pool's initializer, also
for a pool rebuilt after a worker died) and collects before every run
(:func:`_call_with_timeout`): the freeze keeps that collection to the
objects made since, and collecting *before* the run keeps it off the
path from a run's end to its result reaching the parent.  Serial runs
share the caller's process and leave its GC state as they found it.
"""

from __future__ import annotations

import gc
import math
import signal
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.cache import MISS, ResultCache

from repro.runner.hashing import config_digest


class RunTimeout(Exception):
    """Raised inside a worker when a run exceeds its time budget."""


def _on_alarm(signum, frame):  # pragma: no cover - fires only on timeout
    raise RunTimeout()


def _init_worker() -> None:
    """Pool initializer: take the inherited heap (modules, numpy, the
    parent's objects) out of every later collection in this worker, so
    the collection before each run walks only what the runs made."""
    gc.freeze()


def _call_with_timeout(
    task: Callable[[], Any],
    timeout_s: Optional[float],
    cache_info: Optional[Tuple[str, str]] = None,
    collect_first: bool = False,
) -> Any:
    """Worker entry point: run ``task()`` under an optional SIGALRM budget.

    Also captures the run's wall/CPU/max-RSS deltas and attaches them to
    the result when it has a ``resources`` slot (``CollectionResult`` does)
    — measured *inside* the worker process, so pool runs report the CPU
    that actually executed them.

    When ``cache_info`` (``(cache_root, digest)``) is given, the completed
    result is written to the on-disk cache *here*, before it travels back
    to the parent.  That makes every completed run durable the moment it
    finishes: a sweep killed while results are in flight — the campaign
    queue's interruption path — loses nothing, and a resume replays those
    runs as cache hits instead of re-executing them.

    With ``collect_first`` (pool workers only, whose heap
    :func:`_init_worker` froze) the previous run's object graph is
    collected before the timeout and the resource probe start, so it
    neither counts against this run's budget nor lingers into its peak
    RSS.  Serial runs (the caller's own process) touch no GC state.
    """
    from repro.obs.resources import ResourceProbe, attach_resources

    if collect_first:
        gc.collect()
    use_alarm = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    probe = ResourceProbe()
    try:
        result = task()
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    attach_resources(result, probe.stop())
    if cache_info is not None:
        root, digest = cache_info
        ResultCache(root).put(digest, result)
    return result


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(arg)`` with a cache identity.

    ``fn`` must be a module-level function (pickled by reference for the
    worker processes) and ``arg`` must be canonically hashable — plain data
    or frozen dataclasses.  The cache key covers both.
    """

    fn: Callable[[Any], Any]
    arg: Any
    label: str = ""

    def __call__(self) -> Any:
        return self.fn(self.arg)

    def digest(self) -> str:
        return config_digest((self.fn.__module__, self.fn.__qualname__, self.arg))

    def describe(self) -> str:
        return self.label or f"{self.fn.__qualname__}({self.arg!r})"


@dataclass
class RunFailure:
    """One run that raised, timed out, or lost its worker."""

    label: str
    digest: str
    error: str


class RunnerError(RuntimeError):
    """Some runs failed; raised by callers that cannot go on without them
    (the figure renderers of :func:`repro.experiments.run`)."""

    def __init__(self, failures: List[RunFailure]):
        self.failures = failures
        lines = "\n".join(f"  - {f.label}: {f.error}" for f in failures[:20])
        more = "" if len(failures) <= 20 else f"\n  … and {len(failures) - 20} more"
        super().__init__(f"{len(failures)} run(s) failed:\n{lines}{more}")


@dataclass
class RunnerStats:
    """Progress/throughput accounting: the runner's one tally, across
    every batch it has run."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: List[RunFailure] = field(default_factory=list)
    #: Simulator events of the runs, executed or served from the cache
    #: (from ``SimulationResult.events_run``).
    events_run: int = 0
    wall_s: float = 0.0
    #: Merged engine profile across runs that carried one
    #: (``SimConfig(profile_events=True)``), cache hits included; see
    #: ``repro.obs.profile``.
    profile: Optional[Dict[str, object]] = None
    #: Aggregated run resources (``repro.obs.resources`` keys): CPU and
    #: wall seconds add across runs, ``max_rss_kb`` takes the max.
    resources: Dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return len(self.failed)

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits + self.failures

    @property
    def hit_rate(self) -> float:
        done = self.completed
        return self.cache_hits / done if done else 0.0

    def runs_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def events_per_s(self) -> float:
        return self.events_run / self.wall_s if self.wall_s > 0 else 0.0

    def absorb_profile(self, profile: Optional[Dict[str, object]]) -> None:
        """Fold one run's (or batch's) engine profile into this stats object."""
        if not profile:
            return
        from repro.obs.profile import merge_profiles

        runs = sum(int(p.get("runs", 1)) for p in (self.profile, profile) if p)
        self.profile = merge_profiles([self.profile, profile])
        if self.profile is not None:
            self.profile["runs"] = runs

    def profile_report(self, limit: int = 10) -> str:
        """Terminal-friendly where-does-the-time-go table for the sweep."""
        p = self.profile
        if not p:
            return "[profile] no profile data (runs need profile_events=True)"
        wall = float(p.get("wall_s", 0.0))
        lines = [
            f"[profile] {p.get('events', 0)} events over {p.get('runs', 1)} run(s), "
            f"{wall:.2f}s in-loop ({float(p.get('events_per_s', 0.0)) / 1000:.0f}k events/s)"
        ]
        by_kind = list(p.get("by_kind", {}).items())
        for kind, row in by_kind[:limit]:
            share = row["wall_s"] / wall * 100 if wall > 0 else 0.0
            lines.append(
                f"  {kind:<40} {row['count']:>9} ev  {row['wall_s']:7.3f}s  {share:5.1f}%"
            )
        if len(by_kind) > limit:
            lines.append(f"  … and {len(by_kind) - limit} more kinds")
        return "\n".join(lines)

    def absorb_resources(self, resources: Optional[Dict[str, Any]]) -> None:
        """Fold one run's (or batch's) resource deltas into this stats object."""
        if not resources:
            return
        from repro.obs.resources import merge_resources

        merge_resources(self.resources, resources)

    def summary(self) -> str:
        parts = [
            f"{self.completed}/{self.total} runs",
            f"{self.cache_hits} cached ({self.hit_rate * 100:.0f}%)",
            f"{self.runs_per_s():.2f} runs/s",
            f"{self.events_per_s() / 1000:.0f}k events/s",
        ]
        if self.resources:
            from repro.obs.resources import format_resources

            parts.append(format_resources(self.resources))
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        return "[runner] " + ", ".join(parts) + f", {self.wall_s:.1f}s wall"


def check_run_limits(workers: Optional[int], timeout_s: Optional[float]) -> None:
    """Reject a process count below 1 and a per-run timeout that is not a
    finite number of seconds > 0 (``None`` means serial / no timeout)."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ValueError(f"timeout_s must be a finite number > 0, got {timeout_s!r}")


class ExperimentRunner:
    """Fan experiment tasks out across processes, memoizing results on disk.

    Parameters
    ----------
    workers:
        Process count (``>= 1``); ``None`` or ``1`` runs serially in-process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    timeout_s:
        Per-run wall-clock budget in seconds (finite, ``> 0``), enforced in
        the worker via ``SIGALRM``; ``None`` for no budget.
    chunk_size:
        Maximum in-flight submissions (default ``workers × 4``).
    progress:
        When true, print throughput lines to stderr (≤ 1/s).
    telemetry:
        Optional :class:`~repro.obs.stream.RecordLog` (or anything with
        an ``emit(record)`` method): the runner emits sweep-scoped stream
        records (``sweep-start`` / one ``run-result`` per task as its
        result arrives / ``sweep-end``) so a tail can follow sweep
        progress live; a caller adds its own records through :meth:`emit`
        into the same ``seq``.  The log is *not* closed by the runner;
        its owner closes it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        chunk_size: Optional[int] = None,
        progress: bool = False,
        telemetry: Any = None,
    ) -> None:
        check_run_limits(workers, timeout_s)
        self.workers = int(workers) if workers else 1
        self.cache = cache
        self.timeout_s = timeout_s
        self.chunk_size = chunk_size or max(self.workers * 4, 4)
        self.progress = progress
        #: Every batch's runs, counted once.
        self.stats = RunnerStats()
        self.telemetry = telemetry
        self._seq = 0
        self._t0 = 0.0
        self._last_report = 0.0

    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one sweep- or campaign-scoped stream record (``t`` is
        null: wall time), numbered in this runner's one ``seq``."""
        if self.telemetry is None:
            return
        record: Dict[str, Any] = {"rec": kind, "seq": self._seq, "t": None}
        record.update(fields)
        self._seq += 1
        self.telemetry.emit(record)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any]) -> List[Any]:
        """Execute ``tasks`` and return their results in submission order.

        Duplicate tasks (same digest) execute once.  A failed run occupies
        its slot with ``None`` and its :class:`RunFailure` joins
        ``stats.failed``; the sweep always runs to completion.
        """
        stats = self.stats
        # Wall time accumulates across batches: ``stats.wall_s`` is
        # ``now - _t0`` throughout this one.
        self._t0 = time.monotonic() - stats.wall_s
        stats.total += len(tasks)
        self._last_report = 0.0

        digests = [task.digest() for task in tasks]
        outcomes: Dict[str, Any] = {}
        self.emit("sweep-start", total=len(tasks))

        # Cache pass + in-batch dedup: `todo` keeps first occurrence order.
        todo: List[Tuple[Any, str]] = []
        seen = set()
        for task, digest in zip(tasks, digests):
            if digest in seen:
                continue
            seen.add(digest)
            if self.cache is not None:
                hit = self.cache.get(digest)
                if hit is not MISS:
                    outcomes[digest] = hit
                    stats.cache_hits += 1
                    # A hit reports the work it stands for, as an executed
                    # run does: a warm sweep profiles like a cold one.
                    stats.events_run += int(getattr(hit, "events_run", 0) or 0)
                    stats.absorb_profile(getattr(hit, "profile", None))
                    self.emit(
                        "run-result", label=task.describe(), digest=digest,
                        status="cached",
                    )
                    continue
            todo.append((task, digest))
        self._report()

        if todo:
            if self.workers <= 1:
                self._run_serial(todo, outcomes)
            else:
                self._run_pool(todo, outcomes)

        self._report(force=True)
        self.emit(
            "sweep-end",
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            failures=stats.failures,
            wall_s=stats.wall_s,
            cpu_s=stats.resources.get("cpu_s", 0.0),
            max_rss_kb=stats.resources.get("max_rss_kb", 0.0),
        )
        return [outcomes.get(d) for d in digests]

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _record_ok(self, task: Any, digest: str, result: Any) -> None:
        stats = self.stats
        events = int(getattr(result, "events_run", 0) or 0)
        stats.executed += 1
        stats.events_run += events
        stats.absorb_profile(getattr(result, "profile", None))
        resources = getattr(result, "resources", None)
        stats.absorb_resources(resources)
        extra: Dict[str, Any] = {}
        if resources:
            extra["resources"] = dict(resources)
        # No cache.put here: the worker already persisted the result before
        # returning it (see _call_with_timeout), so completions are durable
        # even if telemetry below — the campaign interruption point — raises.
        self.emit(
            "run-result", label=task.describe(), digest=digest, status="ok",
            events_run=events, **extra,
        )

    def _cache_info(self, digest: str) -> Optional[Tuple[str, str]]:
        """Worker-side durable-write instructions for one task (picklable)."""
        if self.cache is None:
            return None
        return (str(self.cache.root), digest)

    def _run_serial(self, todo, outcomes) -> None:
        for task, digest in todo:
            try:
                result = _call_with_timeout(task, self.timeout_s, self._cache_info(digest))
            except Exception as exc:
                self._failure(task, digest, exc)
            else:
                outcomes[digest] = result
                self._record_ok(task, digest, result)
            self._report()

    def _run_pool(self, todo, outcomes) -> None:
        remaining = list(todo)
        while remaining:
            remaining = self._pool_round(remaining, outcomes)

    def _pool_round(self, todo, outcomes) -> List[Tuple[Any, str]]:
        """One pool lifetime; returns tasks left unsubmitted if it breaks."""
        submitted = 0
        in_flight: Dict[Any, Tuple[Any, str]] = {}
        with ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker
        ) as pool:

            def top_up() -> None:
                nonlocal submitted
                while len(in_flight) < self.chunk_size and submitted < len(todo):
                    task, digest = todo[submitted]
                    submitted += 1
                    future = pool.submit(
                        _call_with_timeout, task, self.timeout_s,
                        self._cache_info(digest), collect_first=True,
                    )
                    in_flight[future] = (task, digest)

            top_up()
            while in_flight:
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    task, digest = in_flight.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        broken = broken or isinstance(exc, BrokenProcessPool)
                        self._failure(task, digest, exc)
                    else:
                        outcomes[digest] = result
                        self._record_ok(task, digest, result)
                    self._report()
                if broken:
                    # The pool is dead: everything still in flight fails with
                    # it, but unsubmitted runs continue in a fresh pool.
                    for task, digest in in_flight.values():
                        self._failure(task, digest, RuntimeError("worker pool died"))
                    self._report()
                    return todo[submitted:]
                top_up()
        return []

    def _failure(self, task: Any, digest: str, exc: BaseException) -> None:
        if isinstance(exc, RunTimeout):
            message = f"timed out after {self.timeout_s}s"
        else:
            message = f"{type(exc).__name__}: {exc}"
        self.stats.failed.append(RunFailure(label=task.describe(), digest=digest, error=message))
        self.emit(
            "run-result", label=task.describe(), digest=digest, status="failed",
            error=message,
        )

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def _report(self, force: bool = False) -> None:
        now = time.monotonic()
        self.stats.wall_s = now - self._t0
        if not self.progress or (not force and now - self._last_report < 1.0):
            return
        self._last_report = now
        print(self.stats.summary(), file=sys.stderr, flush=True)

