"""The persistent campaign queue: exactly-once runs, resumable from disk.

A :class:`Campaign` turns a declarative spec (:class:`SweepSpec` or
:class:`OptimizerSpec`) into :class:`~repro.runner.runner.Task`\\ s over
:func:`repro.campaign.spec.simulate` and drives them through the
:class:`~repro.runner.runner.ExperimentRunner` process pool.  Durability
is *not* a bespoke journal — it is the canonical-digest result cache:

* every point's identity is its spec digest, so enumeration is stable
  across processes, machines, and resumes;
* workers write each result to the on-disk cache **before** returning it
  (see ``_call_with_timeout``), so a campaign killed mid-flight — SIGTERM,
  crash, power loss — retains every completed run;
* ``resume`` is therefore just ``run`` again: the deterministic
  enumeration replays, completed points come back as cache hits (zero
  re-executions — the exactly-once property the kill/resume property
  tests pin down), and only the genuinely unfinished tail executes.

Adaptive sweeps and the optimizer stay resumable because each round is a
pure function of the previous rounds' *results*, which the cache holds:
the refinement trajectory re-derives identically on resume.

On-disk state lives under ``<state-root>/<spec-digest>/``:

``spec.json``
    The campaign file as loaded, plus its digest (provenance).
``manifest.json``
    Progress checkpoint, rewritten atomically after every round.
``summary.json``
    The deliverable — written only on full completion, and **byte
    identical** for serial / pooled / interrupted-and-resumed executions
    of the same spec (sorted keys, deterministic fields only).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.optimize import (
    OptimizerOutcome,
    OptimizerSpec,
    objective_score,
    run_optimizer,
)
from repro.campaign.spec import SimulationResult, SimulationSpec, simulate
from repro.campaign.sweep import RangeSpec, SweepSpec, read_spec_data, shrink_ranges
from repro.metrics.collection_stats import json_sanitize
from repro.runner.cache import MISS, ResultCache
from repro.runner.runner import ExperimentRunner, Task

#: Default root for campaign state directories (sibling of the default
#: ``.repro-cache``); override per campaign or with ``REPRO_CAMPAIGN_DIR``.
DEFAULT_STATE_ROOT = ".repro-campaigns"


@dataclass
class CampaignSessionStats:
    """Run accounting for one ``Campaign.run()`` session.

    Counted off the telemetry stream (one ``run-result`` per point), so
    the numbers are exact even when the session ends mid-sweep by
    interruption — the kill/resume property tests assert the exactly-once
    contract on these: across an interrupted session and its resume,
    ``executed`` totals the unique point count and never double-counts.
    """

    executed: int = 0
    cache_hits: int = 0
    failures: int = 0

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits + self.failures


class CampaignInterrupted(Exception):
    """Raised mid-campaign by a stop request or ``stop_after`` budget.

    Carries how many runs had *executed* this session when the stop fired;
    everything executed is already durable in the result cache.
    """

    def __init__(self, completed: int) -> None:
        self.completed = completed
        super().__init__(f"campaign interrupted after {completed} completed run(s)")


class _CampaignSink:
    """Telemetry tee that doubles as the interruption point.

    Forwards every record to the wrapped sink (when there is one), counts
    executed runs (``run-result``/``status="ok"``), and raises
    :class:`CampaignInterrupted` once ``stop_after`` executions have been
    observed or :meth:`request_stop` has been called.  Raising *here* is
    safe precisely because workers cache results before returning: the
    triggering run is already durable when the exception unwinds the
    runner, and the pool's shutdown lets in-flight workers finish (and
    cache) their runs.
    """

    def __init__(self, inner: Any = None, stop_after: Optional[int] = None) -> None:
        self.inner = inner
        self.stop_after = stop_after
        self.ok_count = 0
        self.cached_count = 0
        self.failed_count = 0
        self._stop = False
        self._seq = 0

    def request_stop(self) -> None:
        self._stop = True

    def emit(self, record: Dict[str, Any]) -> None:
        if record.get("rec") == "run-result":
            status = record.get("status")
            if status == "ok":
                self.ok_count += 1
            elif status == "cached":
                self.cached_count += 1
            elif status == "failed":
                self.failed_count += 1
        if self.inner is not None:
            self.inner.emit(record)
        if self._stop or (self.stop_after is not None and self.ok_count >= self.stop_after):
            raise CampaignInterrupted(self.ok_count)

    def emit_campaign(self, kind: str, **fields: Any) -> None:
        """Emit one campaign-scoped record (own ``seq`` stream, wall time)."""
        if self.inner is None:
            return
        record: Dict[str, Any] = {"rec": kind, "seq": self._seq, "t": None}
        record.update(fields)
        self._seq += 1
        self.inner.emit(record)


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_deterministic(doc: Dict[str, Any]) -> str:
    """The byte-identical serialization contract for campaign artifacts."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_campaign_file(path: Union[str, Path]) -> Union[SweepSpec, OptimizerSpec]:
    """Load a campaign spec file (JSON, or TOML on Python >= 3.11).

    ``mode: "optimize"`` selects the closed-loop tuner; every other mode is
    a sweep (``grid`` / ``random`` / ``adaptive``).
    """
    data = read_spec_data(path)
    if str(data.get("mode", "grid")) == "optimize":
        return OptimizerSpec.from_json_dict(data)
    return SweepSpec.from_json_dict(data)


def _rank(
    results: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
    objective: str,
    minimize: bool,
) -> List[Tuple[float, str, SimulationSpec, SimulationResult]]:
    """Valid results best-first, digest-tiebroken (deterministic order)."""
    sign = 1.0 if minimize else -1.0
    ranked = []
    for point, result in results:
        score = objective_score(result, objective)
        if score is None or result is None:
            continue
        ranked.append((sign * score, point.digest(), point, result))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return ranked


class Campaign:
    """One campaign execution handle bound to a state directory.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or :class:`OptimizerSpec`.
    state_root:
        Root under which this campaign's state directory
        (``<root>/<digest>``) lives; default ``REPRO_CAMPAIGN_DIR`` or
        ``.repro-campaigns``.
    cache:
        The :class:`ResultCache` providing durability (``True``/``None``
        for the default location).  A campaign *requires* a cache — it is
        the resume mechanism, not an optimization.
    workers / timeout_s / progress:
        Forwarded to the :class:`ExperimentRunner`.
    telemetry:
        Optional :class:`~repro.obs.stream.RecordLog` (or anything with
        ``emit``); receives the runner's sweep records plus
        campaign-scoped ``campaign-start`` / ``campaign-round`` /
        ``campaign-end`` records.
    stop_after:
        Deterministic forced interruption: raise after this many runs have
        *executed* this session (the CI smoke job and the property tests
        use it; SIGTERM reaches the same code path via
        :meth:`request_stop`).
    """

    def __init__(
        self,
        spec: Union[SweepSpec, OptimizerSpec],
        state_root: Union[str, Path, None] = None,
        cache: Any = None,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        telemetry: Any = None,
        progress: bool = False,
        stop_after: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.digest = spec.digest()
        root = Path(
            state_root
            if state_root is not None
            else os.environ.get("REPRO_CAMPAIGN_DIR") or DEFAULT_STATE_ROOT
        )
        self.state_dir = root / self.digest
        if cache is None or cache is True:
            cache = ResultCache()
        if not isinstance(cache, ResultCache):
            raise TypeError(
                "a campaign requires a ResultCache (it is the resume mechanism); "
                f"got {type(cache).__name__}"
            )
        self.cache = cache
        self.workers = workers
        self.timeout_s = timeout_s
        self.telemetry = telemetry
        self.progress = progress
        self.stop_after = stop_after
        self._sink: Optional[_CampaignSink] = None
        #: The runner of the most recent ``run()`` session; its ``totals``
        #: carry the merged engine profile of profiled points.
        self.runner: Optional[ExperimentRunner] = None
        #: :class:`CampaignSessionStats` for the most recent ``run()``
        #: session (the property tests assert exactly-once semantics on
        #: these counters).
        self.last_stats = CampaignSessionStats()

    # ------------------------------------------------------------------
    # Paths & small artifacts
    # ------------------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.state_dir / "spec.json"

    @property
    def manifest_path(self) -> Path:
        return self.state_dir / "manifest.json"

    @property
    def summary_path(self) -> Path:
        return self.state_dir / "summary.json"

    def request_stop(self) -> None:
        """Ask the running campaign to stop at the next completion (signal-safe)."""
        if self._sink is not None:
            self._sink.request_stop()

    def _write_spec(self) -> None:
        doc = json_sanitize(self.spec.to_json_dict())
        doc["digest"] = self.digest
        _atomic_write_text(self.spec_path, _dump_deterministic(doc))

    def _write_manifest(self, **fields: Any) -> None:
        doc: Dict[str, Any] = {
            "schema": 1,
            "campaign": self.spec.name,
            "digest": self.digest,
            "mode": getattr(self.spec, "mode", "optimize"),
            "kind": self.spec.kind,
        }
        doc.update(fields)
        _atomic_write_text(self.manifest_path, _dump_deterministic(doc))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _make_runner(self, sink: _CampaignSink) -> ExperimentRunner:
        return ExperimentRunner(
            workers=self.workers,
            cache=self.cache,
            timeout_s=self.timeout_s,
            progress=self.progress,
            strict=False,
            telemetry=sink,
        )

    def run(self) -> Dict[str, Any]:
        """Execute (or resume) the campaign to completion or interruption.

        Returns the summary document on completion.  On interruption
        (stop request or ``stop_after``) re-raises
        :class:`CampaignInterrupted` after checkpointing the manifest —
        the caller resumes by calling :meth:`run` again.
        """
        sink = _CampaignSink(self.telemetry, stop_after=self.stop_after)
        self._sink = sink
        runner = self.runner = self._make_runner(sink)
        self._write_spec()
        mode = getattr(self.spec, "mode", "optimize")
        sink.emit_campaign(
            "campaign-start",
            campaign=self.spec.name,
            digest=self.digest,
            mode=mode,
            planned=None if isinstance(self.spec, OptimizerSpec) else self.spec.total_points(),
        )
        try:
            if isinstance(self.spec, OptimizerSpec):
                doc = self._run_optimizer(runner, sink)
            else:
                doc = self._run_sweep(runner, sink)
        except CampaignInterrupted as exc:
            self._write_manifest(interrupted=True, executed_this_session=exc.completed)
            sink.emit_campaign(
                "campaign-end", campaign=self.spec.name, digest=self.digest,
                status="interrupted", executed=exc.completed,
            )
            raise
        finally:
            self.last_stats = CampaignSessionStats(
                executed=sink.ok_count,
                cache_hits=sink.cached_count,
                failures=sink.failed_count,
            )
            self._sink = None
        _atomic_write_text(self.summary_path, _dump_deterministic(doc))
        self._write_manifest(interrupted=False, completed=True)
        sink.emit_campaign(
            "campaign-end", campaign=self.spec.name, digest=self.digest,
            status="completed", executed=sink.ok_count,
        )
        return doc

    def _execute_points(
        self, runner: ExperimentRunner, points: Sequence[SimulationSpec]
    ) -> List[Tuple[SimulationSpec, Optional[SimulationResult]]]:
        tasks = [Task(fn=simulate, arg=p, label=p.describe()) for p in points]
        results = runner.run(tasks)
        return list(zip(points, results))

    def _run_sweep(self, runner: ExperimentRunner, sink: _CampaignSink) -> Dict[str, Any]:
        spec = self.spec
        assert isinstance(spec, SweepSpec)
        all_pairs: List[Tuple[SimulationSpec, Optional[SimulationResult]]] = []
        if spec.mode == "grid":
            rounds_points: List[List[SimulationSpec]] = [spec.grid_points()]
        elif spec.mode == "random":
            rounds_points = [spec.sample_points(0)]
        else:  # adaptive: later rounds derive from earlier results
            rounds_points = []
        if spec.mode in ("grid", "random"):
            for round_i, points in enumerate(rounds_points):
                pairs = self._execute_points(runner, points)
                all_pairs.extend(pairs)
                self._checkpoint_round(sink, round_i, all_pairs)
        else:
            ranges: Tuple[RangeSpec, ...] = spec.ranges
            for round_i in range(spec.rounds):
                points = spec.sample_points(round_i, ranges)
                pairs = self._execute_points(runner, points)
                all_pairs.extend(pairs)
                self._checkpoint_round(sink, round_i, all_pairs)
                ranked = _rank(pairs, spec.objective, spec.minimize)
                survivors = [p.param_dict() for _s, _d, p, _r in ranked[: spec.top_k]]
                ranges = shrink_ranges(ranges, survivors, spec.shrink)
        return self._sweep_summary(runner, all_pairs)

    def _checkpoint_round(
        self,
        sink: _CampaignSink,
        round_i: int,
        all_pairs: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
    ) -> None:
        done = sum(1 for _p, r in all_pairs if r is not None)
        self._write_manifest(
            interrupted=False,
            rounds_done=round_i + 1,
            points_enumerated=len(all_pairs),
            points_completed=done,
        )
        sink.emit_campaign(
            "campaign-round",
            campaign=self.spec.name,
            digest=self.digest,
            round=round_i,
            completed=done,
            enumerated=len(all_pairs),
        )

    def _sweep_summary(
        self,
        runner: ExperimentRunner,
        pairs: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
    ) -> Dict[str, Any]:
        spec = self.spec
        assert isinstance(spec, SweepSpec)
        failures = {f.digest: f.error for f in runner.totals.failures}
        points = []
        for point, result in pairs:
            if result is not None:
                points.append(result.to_json_dict())
            else:
                points.append(
                    {
                        "kind": point.kind,
                        "digest": point.digest(),
                        "params": dict(point.params),
                        "error": failures.get(point.digest(), "failed"),
                    }
                )
        doc: Dict[str, Any] = {
            "campaign": spec.name,
            "spec_digest": self.digest,
            "kind": spec.kind,
            "mode": spec.mode,
            "n_points": len(points),
            "n_failed": sum(1 for p in points if "error" in p),
            "events_total": sum(r.events_run for _p, r in pairs if r is not None),
            "points": points,
        }
        if spec.objective:
            ranked = _rank(pairs, spec.objective, spec.minimize)
            doc["objective"] = spec.objective
            doc["minimize"] = spec.minimize
            if ranked:
                signed, digest, best_point, best_result = ranked[0]
                doc["best"] = {
                    "digest": digest,
                    "params": best_result.to_json_dict()["params"],
                    "score": best_result.summary.get(spec.objective),
                }
            else:
                doc["best"] = None
        return json_sanitize(doc)

    def _run_optimizer(self, runner: ExperimentRunner, sink: _CampaignSink) -> Dict[str, Any]:
        spec = self.spec
        assert isinstance(spec, OptimizerSpec)

        def evaluate(points: Sequence[SimulationSpec]) -> List[Optional[SimulationResult]]:
            return [r for _p, r in self._execute_points(runner, points)]

        rounds_seen = [0]

        def on_round(record: Dict[str, Any]) -> None:
            rounds_seen[0] += 1
            self._write_manifest(
                interrupted=False,
                rounds_done=rounds_seen[0],
                points_completed=None,
            )
            sink.emit_campaign(
                "campaign-round",
                campaign=spec.name,
                digest=self.digest,
                round=record["round"],
                completed=record["valid"],
                enumerated=record["evaluated"],
            )

        outcome: OptimizerOutcome = run_optimizer(spec, evaluate, on_round=on_round)
        return outcome.to_json_dict()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Progress report from disk + cache, without executing anything.

        For grid/random sweeps every point is enumerable up front, so the
        report counts exactly how many are already cached.  For adaptive
        sweeps and the optimizer, rounds are walked as far as the cache can
        re-derive them (a fully cached round determines the next round's
        ranges), so the count reflects true resumable progress.
        """
        spec = self.spec
        mode = getattr(spec, "mode", "optimize")
        manifest = None
        if self.manifest_path.exists():
            manifest = json.loads(self.manifest_path.read_text())
        cached, enumerable = self._cached_progress()
        return {
            "campaign": spec.name,
            "digest": self.digest,
            "kind": spec.kind,
            "mode": mode,
            "state_dir": str(self.state_dir),
            "planned_points": (
                None if isinstance(spec, OptimizerSpec) else spec.total_points()
            ),
            "enumerable_points": enumerable,
            "cached_points": cached,
            "summary_written": self.summary_path.exists(),
            "interrupted": bool(manifest.get("interrupted")) if manifest else False,
            "rounds_done": manifest.get("rounds_done") if manifest else None,
        }

    def _cached_progress(self) -> Tuple[int, int]:
        """(cached, enumerable) point counts derivable without execution."""
        spec = self.spec
        if isinstance(spec, OptimizerSpec):
            return self._walk_cached_optimizer(spec)
        if spec.mode == "grid":
            points = spec.grid_points()
        elif spec.mode == "random":
            points = spec.sample_points(0)
        else:
            return self._walk_cached_adaptive(spec)
        cached = sum(1 for p in points if self.cache.get(_task_digest(p)) is not MISS)
        return cached, len(points)

    def _walk_cached_adaptive(self, spec: SweepSpec) -> Tuple[int, int]:
        ranges: Tuple[RangeSpec, ...] = spec.ranges
        cached = 0
        enumerable = 0
        for round_i in range(spec.rounds):
            points = spec.sample_points(round_i, ranges)
            enumerable += len(points)
            pairs = [(p, self.cache.get(_task_digest(p))) for p in points]
            hits = [(p, r) for p, r in pairs if r is not MISS]
            cached += len(hits)
            if len(hits) < len(points):
                break  # later rounds are not yet determined
            ranked = _rank(hits, spec.objective, spec.minimize)
            survivors = [p.param_dict() for _s, _d, p, _r in ranked[: spec.top_k]]
            ranges = shrink_ranges(ranges, survivors, spec.shrink)
        return cached, enumerable

    def _walk_cached_optimizer(self, spec: OptimizerSpec) -> Tuple[int, int]:
        from repro.campaign.optimize import _propose

        ranges: Tuple[RangeSpec, ...] = spec.ranges
        cached = 0
        enumerable = 0
        evaluated = 0
        round_i = 0
        while evaluated < spec.budget:
            count = min(spec.batch, spec.budget - evaluated)
            points = _propose(spec, ranges, round_i, count)
            evaluated += len(points)
            enumerable += len(points)
            pairs = [(p, self.cache.get(_task_digest(p))) for p in points]
            hits = [(p, r) for p, r in pairs if r is not MISS]
            cached += len(hits)
            if len(hits) < len(points):
                break
            ranked = _rank(hits, spec.objective, spec.minimize)
            survivors = [p.param_dict() for _s, _d, p, _r in ranked[: spec.top_k]]
            if survivors:
                ranges = shrink_ranges(ranges, survivors, spec.shrink)
            round_i += 1
        return cached, enumerable


def _task_digest(point: SimulationSpec) -> str:
    """The runner cache key for one campaign point (Task digest, not spec digest)."""
    return Task(fn=simulate, arg=point).digest()
