"""Process-pool experiment runner with caching and crash isolation.

Every simulator run is a pure function of its configuration, so a sweep is
embarrassingly parallel and perfectly cacheable.  :class:`ExperimentRunner`
takes a list of :class:`Task`\\ s (a picklable top-level function plus a
canonically-hashable argument), answers what it can from the on-disk
:class:`~repro.runner.cache.ResultCache`, and fans the misses out over a
``ProcessPoolExecutor``:

* **chunked submission** — at most ``workers × 4`` runs are in flight at a
  time, so a 10 000-cell sweep does not materialize 10 000 pickled configs
  and results at once;
* **per-run timeout** — enforced *inside* the worker with ``SIGALRM``, so a
  wedged run dies on its own without poisoning the pool;
* **crash isolation** — a run that raises (or times out) is recorded as a
  :class:`RunFailure` and the sweep continues; if a worker process dies
  outright the pool is rebuilt and the remaining runs proceed.  Failures
  surface at the *end* of the sweep as a :class:`RunnerError` (or as
  ``None`` results with ``strict=False``).

With ``workers <= 1`` tasks execute serially in-process; the equivalence
tests in ``tests/runner/`` pin serial and pooled results to each other.
"""

from __future__ import annotations

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


def _call_with_timeout(
    fn: Callable[[Any], Any],
    arg: Any,
    timeout_s: Optional[float],
    cache_info: Optional[Tuple[str, str]] = None,
) -> Any:
    """Worker entry point: run ``fn(arg)`` under an optional SIGALRM budget.

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
    """
    from repro.obs.resources import ResourceProbe, attach_resources

    use_alarm = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    probe = ResourceProbe()
    try:
        result = fn(arg)
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
    or frozen dataclasses.  The cache key covers both, so two figures
    sharing the exact same run (Figure 6's 4B cell is Figure 7's at 0 dBm)
    deduplicate.
    """

    fn: Callable[[Any], Any]
    arg: Any
    label: str = ""

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
    """Raised after a sweep completes when some runs failed (strict mode)."""

    def __init__(self, failures: List[RunFailure]):
        self.failures = failures
        lines = "\n".join(f"  - {f.label}: {f.error}" for f in failures[:20])
        more = "" if len(failures) <= 20 else f"\n  … and {len(failures) - 20} more"
        super().__init__(f"{len(failures)} run(s) failed:\n{lines}{more}")


@dataclass
class RunnerStats:
    """Progress/throughput accounting for one sweep."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failures: List[RunFailure] = field(default_factory=list)
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
    def completed(self) -> int:
        return self.executed + self.cache_hits + len(self.failures)

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
            parts.append(f"{len(self.failures)} FAILED")
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
    strict:
        Raise :class:`RunnerError` after the sweep if any run failed;
        with ``strict=False`` failed slots come back as ``None``.
    telemetry:
        Optional :class:`~repro.obs.stream.RecordLog` (or anything with
        an ``emit(record)`` method): the runner emits sweep-scoped stream
        records (``sweep-start`` / one ``run-result`` per task /
        ``sweep-end``) so a tail can follow sweep progress live.  The log
        is *not* closed by the runner; its owner closes it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        chunk_size: Optional[int] = None,
        progress: bool = False,
        strict: bool = True,
        telemetry: Any = None,
    ) -> None:
        check_run_limits(workers, timeout_s)
        self.workers = int(workers) if workers else 1
        self.cache = cache
        self.timeout_s = timeout_s
        self.chunk_size = chunk_size or max(self.workers * 4, 4)
        self.progress = progress
        self.strict = strict
        #: Stats for the most recent ``run()`` batch.
        self.stats = RunnerStats()
        #: Stats accumulated across every batch this runner has executed.
        self.totals = RunnerStats()
        self.telemetry = telemetry
        self._telemetry_seq = 0
        self._last_report = 0.0

    def _emit_telemetry(self, kind: str, **fields: Any) -> None:
        """Emit one sweep-scoped stream record (``t`` is null: wall time)."""
        if self.telemetry is None:
            return
        record: Dict[str, Any] = {"rec": kind, "seq": self._telemetry_seq, "t": None}
        record.update(fields)
        self._telemetry_seq += 1
        self.telemetry.emit(record)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute ``tasks`` and return their results in submission order.

        Duplicate tasks (same digest) execute once.  Failed runs occupy
        their slot with ``None``; in strict mode (the default) the sweep
        still runs to completion, then raises :class:`RunnerError`.
        """
        t0 = time.monotonic()
        stats = RunnerStats(total=len(tasks))
        self.stats = stats
        self._last_report = 0.0

        digests = [task.digest() for task in tasks]
        outcomes: Dict[str, Any] = {}
        failed: Dict[str, RunFailure] = {}
        self._emit_telemetry("sweep-start", total=len(tasks))

        # Cache pass + in-batch dedup: `todo` keeps first occurrence order.
        todo: List[Tuple[Task, str]] = []
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
                    self._emit_telemetry(
                        "run-result", label=task.describe(), digest=digest,
                        status="cached",
                    )
                    continue
            todo.append((task, digest))
        self._report(stats, t0)

        if todo:
            if self.workers <= 1:
                self._run_serial(todo, outcomes, failed, stats, t0)
            else:
                self._run_pool(todo, outcomes, failed, stats, t0)

        stats.wall_s = time.monotonic() - t0
        self._report(stats, t0, force=True)
        self.totals.total += stats.total
        self.totals.executed += stats.executed
        self.totals.cache_hits += stats.cache_hits
        self.totals.failures.extend(stats.failures)
        self.totals.events_run += stats.events_run
        self.totals.wall_s += stats.wall_s
        self.totals.absorb_profile(stats.profile)
        self.totals.absorb_resources(stats.resources)
        self._emit_telemetry(
            "sweep-end",
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            failures=len(stats.failures),
            wall_s=stats.wall_s,
            cpu_s=stats.resources.get("cpu_s", 0.0),
            max_rss_kb=stats.resources.get("max_rss_kb", 0.0),
        )
        if failed and self.strict:
            raise RunnerError(list(failed.values()))
        return [outcomes.get(d) for d in digests]

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _record_ok(self, task: Task, digest: str, result: Any, stats: RunnerStats) -> None:
        stats.executed += 1
        stats.events_run += int(getattr(result, "events_run", 0) or 0)
        stats.absorb_profile(getattr(result, "profile", None))
        resources = getattr(result, "resources", None)
        stats.absorb_resources(resources)
        extra: Dict[str, Any] = {}
        if resources:
            extra["resources"] = dict(resources)
        # No cache.put here: the worker already persisted the result before
        # returning it (see _call_with_timeout), so completions are durable
        # even if telemetry below — the campaign interruption point — raises.
        self._emit_telemetry(
            "run-result", label=task.describe(), digest=digest, status="ok",
            events_run=int(getattr(result, "events_run", 0) or 0), **extra,
        )

    def _cache_info(self, digest: str) -> Optional[Tuple[str, str]]:
        """Worker-side durable-write instructions for one task (picklable)."""
        if self.cache is None:
            return None
        return (str(self.cache.root), digest)

    def _run_serial(self, todo, outcomes, failed, stats, t0) -> None:
        for task, digest in todo:
            try:
                result = _call_with_timeout(
                    task.fn, task.arg, self.timeout_s, self._cache_info(digest)
                )
            except Exception as exc:
                failed[digest] = self._failure(task, digest, exc, stats)
            else:
                outcomes[digest] = result
                self._record_ok(task, digest, result, stats)
            self._report(stats, t0)

    def _run_pool(self, todo, outcomes, failed, stats, t0) -> None:
        remaining = list(todo)
        while remaining:
            remaining = self._pool_round(remaining, outcomes, failed, stats, t0)

    def _pool_round(self, todo, outcomes, failed, stats, t0) -> List[Tuple[Task, str]]:
        """One pool lifetime; returns tasks left unsubmitted if it breaks."""
        queue = iter(todo)
        submitted = 0
        in_flight: Dict[Any, Tuple[Task, str]] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:

            def top_up() -> None:
                nonlocal submitted
                while len(in_flight) < self.chunk_size and submitted < len(todo):
                    task, digest = todo[submitted]
                    submitted += 1
                    future = pool.submit(
                        _call_with_timeout, task.fn, task.arg, self.timeout_s,
                        self._cache_info(digest),
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
                    except BrokenProcessPool as exc:
                        broken = True
                        failed[digest] = self._failure(task, digest, exc, stats)
                    except Exception as exc:
                        failed[digest] = self._failure(task, digest, exc, stats)
                    else:
                        outcomes[digest] = result
                        self._record_ok(task, digest, result, stats)
                    self._report(stats, t0)
                if broken:
                    # The pool is dead: everything still in flight fails with
                    # it, but unsubmitted runs continue in a fresh pool.
                    for future, (task, digest) in in_flight.items():
                        failed[digest] = self._failure(
                            task, digest, RuntimeError("worker pool died"), stats
                        )
                    self._report(stats, t0)
                    return todo[submitted:]
                top_up()
        return []

    def _failure(self, task: Task, digest: str, exc: BaseException, stats: RunnerStats) -> RunFailure:
        if isinstance(exc, RunTimeout):
            message = f"timed out after {self.timeout_s}s"
        else:
            message = f"{type(exc).__name__}: {exc}"
        failure = RunFailure(label=task.describe(), digest=digest, error=message)
        stats.failures.append(failure)
        self._emit_telemetry(
            "run-result", label=failure.label, digest=digest, status="failed",
            error=message,
        )
        return failure

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def _report(self, stats: RunnerStats, t0: float, force: bool = False) -> None:
        if not self.progress:
            return
        now = time.monotonic()
        if not force and now - self._last_report < 1.0:
            return
        self._last_report = now
        stats.wall_s = now - t0
        print(stats.summary(), file=sys.stderr, flush=True)

