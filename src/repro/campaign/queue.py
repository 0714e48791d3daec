"""The persistent campaign queue: exactly-once runs, resumable from disk.

A :class:`Campaign` drives a declarative :class:`SweepSpec`'s search loop
(:func:`repro.campaign.sweep.search`), running each round's points — each
:class:`~repro.campaign.spec.SimulationSpec` is a runner task itself —
through the :class:`~repro.runner.runner.ExperimentRunner` process pool.
Durability is *not* a bespoke journal — it is the canonical-digest result
cache:

* every point's one identity is its spec digest (cache key, failure,
  ``run-result`` record and summary entry), so enumeration is stable
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
    of the same spec (sorted keys, deterministic fields only).  A file
    with ``figures`` (the paper campaign) also lists each figure's point
    digests, and ``status`` counts each figure's cached points.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import SimulationResult, SimulationSpec
from repro.campaign.sweep import SweepSpec, rank, read_spec_data, run_search, search
from repro.metrics.collection_stats import json_sanitize
from repro.runner.cache import MISS, ResultCache, atomic_write
from repro.runner.runner import ExperimentRunner, RunnerStats, check_run_limits

#: Default root for campaign state directories (sibling of the default
#: ``.repro-cache``); override per campaign or with ``REPRO_CAMPAIGN_DIR``.
DEFAULT_STATE_ROOT = ".repro-campaigns"


class CampaignInterrupted(Exception):
    """Raised mid-campaign by a stop request or ``stop_after`` budget.

    Carries how many runs had *executed* this session when the stop fired;
    everything executed is already durable in the result cache.
    """

    def __init__(self, completed: int) -> None:
        self.completed = completed
        super().__init__(f"campaign interrupted after {completed} completed run(s)")


def _write_json(path: Path, doc: Dict[str, Any]) -> None:
    """Write ``doc`` atomically under the byte-identical serialization
    contract for campaign artifacts."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    atomic_write(path, text.encode())


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
        The :class:`ResultCache` providing durability (``None`` for the
        default location).  A campaign *requires* a cache — it is the
        resume mechanism, not an optimization.
    workers / timeout_s / progress:
        Forwarded to the :class:`ExperimentRunner`, and checked here so a
        bad value fails before the campaign touches its state.
    telemetry:
        Optional :class:`~repro.obs.stream.RecordLog` (or anything with
        ``emit``); receives the runner's sweep records plus
        campaign-scoped ``campaign-start`` / ``campaign-round`` /
        ``campaign-end`` records, all in the runner's one ``seq``.
    stop_after:
        Deterministic forced interruption: raise after this many runs have
        *executed* this session (the CI smoke job and the property tests
        use it; SIGTERM reaches the same code path via
        :meth:`request_stop`).  Must be ``>= 1``.

    The campaign is its runner's telemetry sink (:meth:`emit`): it
    forwards each record to ``telemetry`` and is the interruption point.
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
        check_run_limits(workers, timeout_s)
        if stop_after is not None and stop_after < 1:
            raise ValueError(f"stop_after must be >= 1, got {stop_after!r}")
        self.spec = spec
        self.digest = spec.digest()
        root = Path(
            state_root
            if state_root is not None
            else os.environ.get("REPRO_CAMPAIGN_DIR") or DEFAULT_STATE_ROOT
        )
        self.state_dir = root / self.digest
        if cache is None:
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
        self._stop = False
        #: The runner's tally for the most recent ``run()`` session: its
        #: counts, failures and merged engine profile (the property tests
        #: assert exactly-once semantics on these counters).  It is live,
        #: so it is exact when the session ends by interruption too.
        self.last_stats = RunnerStats()
        #: Point → result of every point that completed in the most recent
        #: ``run()``, cache hits included (the figure renderers read these).
        self.results: Dict[SimulationSpec, SimulationResult] = {}

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
        self._stop = True

    def emit(self, record: Dict[str, Any]) -> None:
        """The runner's telemetry sink: forward ``record``, then raise
        :class:`CampaignInterrupted` at a ``run-result`` once ``stop_after``
        runs have executed this session or a stop was requested.

        Raising here is safe because workers cache results before
        returning: the triggering run is already durable when the
        exception unwinds the runner, and the pool's shutdown lets
        in-flight workers finish (and cache) their runs.
        """
        if self.telemetry is not None:
            self.telemetry.emit(record)
        executed = self.last_stats.executed
        if record["rec"] == "run-result" and (
            self._stop or (self.stop_after is not None and executed >= self.stop_after)
        ):
            raise CampaignInterrupted(executed)

    def _write_spec(self) -> None:
        doc = json_sanitize(self.spec.to_json_dict())
        doc["digest"] = self.digest
        _write_json(self.spec_path, doc)

    def _write_manifest(self, **fields: Any) -> None:
        doc: Dict[str, Any] = {
            "schema": 1,
            "campaign": self.spec.name,
            "digest": self.digest,
            "mode": self.spec.mode,
            "kind": self.spec.kind,
        }
        doc.update(fields)
        _write_json(self.manifest_path, doc)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute (or resume) the campaign to completion or interruption.

        Returns the summary document on completion.  On interruption
        (stop request or ``stop_after``) re-raises
        :class:`CampaignInterrupted` after checkpointing the manifest —
        the caller resumes by calling :meth:`run` again.
        """
        self._stop = False
        runner = ExperimentRunner(
            workers=self.workers,
            cache=self.cache,
            timeout_s=self.timeout_s,
            progress=self.progress,
            telemetry=self,
        )
        self.last_stats = runner.stats
        self._write_spec()
        runner.emit(
            "campaign-start",
            campaign=self.spec.name,
            digest=self.digest,
            mode=self.spec.mode,
            planned=self.spec.total_points(),
        )
        # The last round checkpoint; every manifest of the session keeps it.
        checkpoint = {"rounds_done": 0, "points_enumerated": 0, "points_completed": 0}
        try:
            doc = self._run_search(runner, checkpoint)
        except CampaignInterrupted as exc:
            self._write_manifest(
                interrupted=True, executed_this_session=exc.completed, **checkpoint
            )
            runner.emit(
                "campaign-end", campaign=self.spec.name, digest=self.digest,
                status="interrupted", executed=exc.completed,
            )
            raise
        _write_json(self.summary_path, doc)
        self._write_manifest(interrupted=False, completed=True, **checkpoint)
        runner.emit(
            "campaign-end", campaign=self.spec.name, digest=self.digest,
            status="completed", executed=runner.stats.executed,
        )
        return doc

    def _run_search(
        self, runner: ExperimentRunner, checkpoint: Dict[str, int]
    ) -> Dict[str, Any]:
        """Drive the search loop through the runner, checkpointing each round.

        ``checkpoint`` is updated in place after each round, so the
        caller's final manifest carries the last one.
        """
        pairs: List[Tuple[SimulationSpec, Optional[SimulationResult]]] = []

        def evaluate(points: Sequence[SimulationSpec]) -> List[Optional[SimulationResult]]:
            results = runner.run(points)
            pairs.extend(zip(points, results))
            done = sum(1 for _p, r in pairs if r is not None)
            rounds = checkpoint["rounds_done"] + 1
            checkpoint.update(
                rounds_done=rounds, points_enumerated=len(pairs), points_completed=done
            )
            self._write_manifest(interrupted=False, **checkpoint)
            runner.emit(
                "campaign-round",
                campaign=self.spec.name,
                digest=self.digest,
                round=rounds - 1,
                completed=done,
                enumerated=len(pairs),
            )
            return results

        history = run_search(self.spec, evaluate)
        self.results = {p: r for p, r in pairs if r is not None}
        return self._summary(pairs, history)

    def _summary(
        self,
        pairs: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
        history: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        spec = self.spec
        errors = {f.digest: f.error for f in self.last_stats.failed}
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
                        "error": errors[point.digest()],
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
        if spec.figures:
            doc["figures"] = {
                figure: [p.digest() for p in points]
                for figure, points in spec.figure_points().items()
            }
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
        found = set()
        loop = search(spec)
        points = next(loop)
        while True:
            results = [self.cache.get(p.digest()) for p in points]
            found.update(p.digest() for p, r in zip(points, results) if r is not MISS)
            hits = sum(1 for r in results if r is not MISS)
            cached += hits
            enumerable += len(points)
            if hits < len(points):
                break
            try:
                points = loop.send(results)
            except StopIteration:
                break
        status: Dict[str, Any] = {
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
        if spec.figures:
            status["figures"] = {
                figure: {
                    "planned_points": len(points),
                    "cached_points": sum(p.digest() in found for p in points),
                }
                for figure, points in spec.figure_points().items()
            }
        return status
