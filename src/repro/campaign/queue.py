"""The persistent campaign queue: exactly-once runs, resumable from disk.

A :class:`Campaign` drives a declarative :class:`SweepSpec`'s search loop
(:func:`repro.campaign.sweep.search`), running each round's points as
:class:`~repro.runner.runner.Task`\\ s over
:func:`repro.campaign.spec.simulate` through the
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

Optimize campaigns stay resumable because each round is a pure function
of the previous rounds' *results*, which the cache holds: the refinement
trajectory re-derives identically on resume, and ``status`` replays the
same loop on cache hits alone.

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

from repro.campaign.spec import SimulationResult, SimulationSpec, simulate
from repro.campaign.sweep import SweepSpec, rank, read_spec_data, run_search, search
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


def load_campaign_file(path: Union[str, Path]) -> SweepSpec:
    """Load a campaign spec file (JSON, or TOML on Python >= 3.11)."""
    return SweepSpec.from_json_dict(read_spec_data(path))


class Campaign:
    """One campaign execution handle bound to a state directory.

    Parameters
    ----------
    spec:
        The :class:`SweepSpec` to run.
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
        spec: SweepSpec,
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
            "mode": self.spec.mode,
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
        sink.emit_campaign(
            "campaign-start",
            campaign=self.spec.name,
            digest=self.digest,
            mode=self.spec.mode,
            planned=self.spec.total_points(),
        )
        try:
            doc = self._run_search(runner, sink)
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

    def _run_search(self, runner: ExperimentRunner, sink: _CampaignSink) -> Dict[str, Any]:
        """Drive the search loop through the runner, checkpointing each round."""
        pairs: List[Tuple[SimulationSpec, Optional[SimulationResult]]] = []
        rounds = 0

        def evaluate(points: Sequence[SimulationSpec]) -> List[Optional[SimulationResult]]:
            nonlocal rounds
            results = runner.run([Task(fn=simulate, arg=p, label=p.describe()) for p in points])
            pairs.extend(zip(points, results))
            done = sum(1 for _p, r in pairs if r is not None)
            rounds += 1
            self._write_manifest(
                interrupted=False,
                rounds_done=rounds,
                points_enumerated=len(pairs),
                points_completed=done,
            )
            sink.emit_campaign(
                "campaign-round",
                campaign=self.spec.name,
                digest=self.digest,
                round=rounds - 1,
                completed=done,
                enumerated=len(pairs),
            )
            return results

        history = run_search(self.spec, evaluate)
        return self._summary(runner, pairs, history)

    def _summary(
        self,
        runner: ExperimentRunner,
        pairs: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
        history: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        spec = self.spec
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
            ranked = rank(pairs, spec.objective, spec.minimize)
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
        if spec.mode == "optimize":
            doc["history"] = history
        return json_sanitize(doc)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Progress report from disk + cache, without executing anything.

        Replays the search loop on cache hits alone, stopping at the first
        round with a miss: a fully cached round determines the next one, so
        the count is exactly the campaign's resumable progress.
        """
        spec = self.spec
        manifest = None
        if self.manifest_path.exists():
            manifest = json.loads(self.manifest_path.read_text())
        cached = enumerable = 0
        loop = search(spec)
        points = next(loop)
        while True:
            results = [self.cache.get(_task_digest(p)) for p in points]
            hits = sum(1 for r in results if r is not MISS)
            cached += hits
            enumerable += len(points)
            if hits < len(points):
                break
            try:
                points = loop.send(results)
            except StopIteration:
                break
        return {
            "campaign": spec.name,
            "digest": self.digest,
            "kind": spec.kind,
            "mode": spec.mode,
            "state_dir": str(self.state_dir),
            "planned_points": spec.total_points(),
            "enumerable_points": enumerable,
            "cached_points": cached,
            "summary_written": self.summary_path.exists(),
            "interrupted": bool(manifest.get("interrupted")) if manifest else False,
            "rounds_done": manifest.get("rounds_done") if manifest else None,
        }


def _task_digest(point: SimulationSpec) -> str:
    """The runner cache key for one campaign point (Task digest, not spec digest)."""
    return Task(fn=simulate, arg=point).digest()
