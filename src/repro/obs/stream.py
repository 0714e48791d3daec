"""The record log, and live telemetry: metrics snapshots during a run.

:class:`RecordLog` is the one place records go: the trace of
:mod:`repro.sim.trace`, the telemetry stream below, and the runner's and
campaign's sweep records all write strict-JSON lines through it, or keep
a bounded list in memory.

A :class:`TelemetrySampler` rides the simulation's own event loop: every
``period_s`` simulated seconds it rebuilds the flat metrics dict
(:func:`repro.obs.metrics.network_metrics`), diffs it against the
previously emitted state, and emits one typed record to a log.  The
sampler consumes no randomness and schedules nothing on the frame path,
so — exactly like trace instrumentation — a sampled run is bit-identical
to an unsampled one apart from the extra (pure-observer) engine events;
with telemetry off the machinery is never constructed and costs nothing.

Stream record schema (one JSON object per line; DESIGN.md §10):

==============  ============================================================
``rec``         fields (beyond the ``seq``/``t``/``run`` envelope)
==============  ============================================================
``run-start``   ``protocol, seed, nodes, duration_s, medium, period_s``
                — one per run, before the first sample
``snapshot``    ``full`` (true when ``updates`` is the whole state),
                ``updates`` — flat ``{key: value}`` of every metric whose
                value changed since the previous snapshot record
``run-end``     ``events_run, metrics`` (distinct keys streamed) and,
                when captured, ``resources`` (wall/CPU/max-RSS — the one
                deliberately wall-clock-dependent field group); a run
                that raised closes with ``error`` (the exception) instead
                of a final snapshot
``sweep-start``  ``total`` — emitted by the *runner* around a sweep
``run-result``  ``label, digest, status (ok|cached|failed), events_run``
                plus optional ``resources`` per completed run
``sweep-end``   ``executed, cache_hits, failures, wall_s, cpu_s,
                max_rss_kb`` — the runner's tally as the sweep closes
                (every sweep it has run, so a campaign's last
                ``sweep-end`` is the session's)
``campaign-start``  ``campaign, digest, mode, planned`` — emitted by the
                *campaign queue* before its first sweep round
``campaign-round``  ``campaign, digest, round, completed, enumerated`` —
                one per completed search round (checkpoint)
``campaign-end``  ``campaign, digest, status (completed|interrupted),
                executed`` — how the campaign session ended
==============  ============================================================

``seq`` increases by one per record *per emitting stream* (one per run;
the runner numbers its sweep records and its campaign's as one); ``t`` is
simulated seconds for run-scoped records and ``null`` for sweep- and
campaign-scoped ones (they live in wall time).  Because ``updates`` carries deltas keyed
by full flat metric keys, :func:`fold_snapshots` reconstructs the exact
end-of-run metrics by replaying records in order — the folded state
equals :func:`~repro.obs.metrics.network_metrics` at run end key-for-key
(the acceptance contract, tested in ``tests/obs``).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.metrics.collection_stats import json_sanitize
from repro.obs.metrics import network_metrics
from repro.sim.probe import Monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork

#: Every record kind the stream may carry, by scope.
RUN_KINDS = ("run-start", "snapshot", "run-end")
SWEEP_KINDS = ("sweep-start", "run-result", "sweep-end")
CAMPAIGN_KINDS = ("campaign-start", "campaign-round", "campaign-end")
STREAM_KINDS = RUN_KINDS + SWEEP_KINDS + CAMPAIGN_KINDS

#: Required fields (beyond the envelope) per record kind.
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "run-start": ("protocol", "seed", "nodes", "duration_s", "period_s"),
    "snapshot": ("full", "updates"),
    "run-end": ("events_run", "metrics"),
    "sweep-start": ("total",),
    "run-result": ("label", "status"),
    "sweep-end": ("executed", "cache_hits", "failures"),
    "campaign-start": ("campaign", "digest", "mode"),
    "campaign-round": ("campaign", "digest", "round", "completed"),
    "campaign-end": ("campaign", "digest", "status"),
}

_RUN_RESULT_STATUSES = ("ok", "cached", "failed")
_CAMPAIGN_END_STATUSES = ("completed", "interrupted")


def encode_record(record: Dict[str, Any]) -> str:
    """One stream record as a strict-JSON line (no trailing newline)."""
    return json.dumps(
        json_sanitize(record), separators=(",", ":"), allow_nan=False
    )


def validate_record(record: Any) -> List[str]:
    """Schema check for one decoded stream record; returns error strings.

    An empty list means the record is valid.  Used by ``python -m repro.obs
    tail --check`` and the CI ``obs-live`` job.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    kind = record.get("rec")
    if kind not in STREAM_KINDS:
        return [f"unknown record kind {kind!r} (want one of {STREAM_KINDS})"]
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        errors.append(f"seq must be a non-negative int, got {seq!r}")
    t = record.get("t")
    if kind in RUN_KINDS:
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            errors.append(f"{kind}: t must be simulated seconds, got {t!r}")
    elif t is not None:
        errors.append(f"{kind}: sweep-scoped records carry t=null, got {t!r}")
    for name in _REQUIRED_FIELDS[kind]:
        if name not in record:
            errors.append(f"{kind}: missing required field {name!r}")
    if kind == "snapshot":
        updates = record.get("updates")
        if not isinstance(updates, dict):
            errors.append(f"snapshot: updates must be an object, got {type(updates).__name__}")
        else:
            for key, value in updates.items():
                if value is not None and (
                    isinstance(value, bool) or not isinstance(value, (int, float))
                ):
                    errors.append(f"snapshot: non-numeric value for {key!r}: {value!r}")
                    break
        if not isinstance(record.get("full"), bool):
            errors.append("snapshot: full must be a bool")
    if kind == "run-result" and record.get("status") not in _RUN_RESULT_STATUSES:
        errors.append(
            f"run-result: status must be one of {_RUN_RESULT_STATUSES}, "
            f"got {record.get('status')!r}"
        )
    if kind == "run-end" and not isinstance(record.get("error", ""), str):
        errors.append(f"run-end: error must be a string, got {record.get('error')!r}")
    if kind == "campaign-end" and record.get("status") not in _CAMPAIGN_END_STATUSES:
        errors.append(
            f"campaign-end: status must be one of {_CAMPAIGN_END_STATUSES}, "
            f"got {record.get('status')!r}"
        )
    return errors


def fold_snapshots(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Replay ``snapshot`` records into the cumulative flat metrics state.

    Later updates win key-by-key, so the fold of a complete stream equals
    the end-of-run :func:`~repro.obs.metrics.network_metrics` exactly.
    """
    state: Dict[str, float] = {}
    for record in records:
        if record.get("rec") == "snapshot":
            state.update(record.get("updates", {}))
    return state


def read_stream(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield decoded records from a stream file (blank lines skipped)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


# ---------------------------------------------------------------------------
# The record log
# ---------------------------------------------------------------------------
class RecordLog:
    """Where trace and stream records go: a JSONL file or a bounded list.

    With a ``path``, each record is appended to the file as one strict-JSON
    line (:func:`encode_record`) and flushed at once, so ``python -m
    repro.obs tail --follow`` sees it live; nothing is kept in memory.  The
    file is opened for appending so several runs — runner worker
    *processes* included — can share one stream: each record is one
    ``write()`` of one ``\\n``-terminated line, and the ``run`` envelope
    field demultiplexes interleaved runs.

    Without a path, records are kept in :attr:`records`.  ``limit`` bounds
    how many (``None``: unbounded), and ``keep`` says which survive the
    bound: ``"head"`` keeps the *first* ``limit`` (boot and convergence
    analysis), ``"tail"`` the *last* ``limit`` as a ring (debugging — the
    interesting records are usually the most recent).  ``dropped`` counts
    the records the bound lost.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        limit: Optional[int] = None,
        keep: str = "head",
    ) -> None:
        if keep not in ("head", "tail"):
            raise ValueError(f"keep must be 'head' or 'tail', not {keep!r}")
        self.limit = limit
        self.keep = keep
        self.records: Union[List[Dict[str, Any]], Deque[Dict[str, Any]]] = (
            deque(maxlen=limit) if keep == "tail" else []
        )
        #: Records lost to the bound (head: refused; tail: overwritten).
        self.dropped = 0
        self._fh: Optional[IO[str]] = None
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "a")

    @property
    def closed(self) -> bool:
        """True once a file-backed log has been closed."""
        return self._fh is not None and self._fh.closed

    def emit(self, record: Dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(encode_record(record) + "\n")
            self._fh.flush()
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            if self.keep == "head":
                return
        self.records.append(record)

    def export(self, path: Union[str, Path], **meta: Any) -> int:
        """Replace ``path`` with the kept records plus one closing ``_meta``
        record (kept and dropped counts, ``meta``, the ``keep`` policy).
        Returns the number of records written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        footer = {"kind": "_meta", "records": len(self.records), "dropped": self.dropped}
        footer.update(meta)
        footer["keep"] = self.keep
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(encode_record(record) + "\n")
            fh.write(encode_record(footer) + "\n")
        return len(self.records)

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------
class TelemetrySampler(Monitor):
    """Deterministic sim-time metrics sampler driven by engine events.

    Built by :class:`~repro.sim.network.CollectionNetwork` when
    ``SimConfig.telemetry_period_s`` is set (or attached manually via
    :meth:`install`).  Each fire rebuilds the network's metric totals
    (``network_metrics(..., per_node=False)``), emits the changed keys, and reschedules itself; the final
    sample plus the ``run-end`` record come from the monitor's
    :meth:`run_end` event, so the stream always closes with the exact
    end-of-run state.  ``log`` is a :class:`RecordLog` or anything else
    with ``emit``/``close``.
    """

    def __init__(
        self,
        network: "CollectionNetwork",
        log: Any,
        period_s: float,
        run_id: Optional[str] = None,
    ) -> None:
        if not period_s > 0.0:
            raise ValueError(f"telemetry period must be positive, got {period_s}")
        self.network = network
        self.log = log
        self.period_s = period_s
        self.run_id = run_id
        self._last: Dict[str, float] = {}
        self._seq = 0
        self._installed = False
        self._finished = False

    # -- record plumbing -------------------------------------------------
    def _emit(self, kind: str, t: Optional[float], **fields: Any) -> None:
        record: Dict[str, Any] = {"rec": kind, "seq": self._seq, "t": t}
        if self.run_id is not None:
            record["run"] = self.run_id
        record.update(fields)
        self._seq += 1
        self.log.emit(record)

    def _emit_snapshot(self) -> None:
        snap = network_metrics(self.network, per_node=False)
        last = self._last
        first = not last
        updates = {k: v for k, v in snap.items() if first or last.get(k) != v}
        self._emit(
            "snapshot", self.network.engine.now, full=first, updates=updates
        )
        self._last = snap

    # -- lifecycle -------------------------------------------------------
    def install(self) -> None:
        """Emit ``run-start``, arm the periodic sample, attach for run end."""
        if self._installed:
            return
        self._installed = True
        config = self.network.config
        self._emit(
            "run-start",
            self.network.engine.now,
            protocol=config.protocol,
            seed=config.seed,
            nodes=len(self.network.nodes),
            duration_s=config.duration_s,
            medium=config.medium,
            period_s=self.period_s,
        )
        if self.period_s <= config.duration_s:
            self.network.engine.schedule(self.period_s, self._sample)
        self.network.attach(self)

    def _sample(self) -> None:
        self._emit_snapshot()
        engine = self.network.engine
        if engine.now + self.period_s <= self.network.config.duration_s:
            engine.schedule(self.period_s, self._sample)

    def run_end(self, network: "CollectionNetwork", error: Optional[str] = None) -> None:
        """Close the stream: a final snapshot and ``run-end``, or — for a
        run that raised — ``run-end`` carrying ``error``."""
        if self._finished:
            return
        self._finished = True
        extra: Dict[str, Any] = {}
        if error is None:
            self._emit_snapshot()
        else:
            extra["error"] = error
        resources = getattr(network, "run_resources", None)
        if resources is not None:
            extra["resources"] = dict(resources)
        self._emit(
            "run-end",
            network.engine.now,
            events_run=network.engine.events_run,
            metrics=len(self._last),
            **extra,
        )

    def close(self) -> None:
        self.log.close()


__all__ = [
    "CAMPAIGN_KINDS",
    "RecordLog",
    "STREAM_KINDS",
    "TelemetrySampler",
    "encode_record",
    "fold_snapshots",
    "read_stream",
    "validate_record",
]
