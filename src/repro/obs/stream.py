"""Live telemetry streaming — incremental metrics snapshots during a run.

Everything else in :mod:`repro.obs` reports *after* a run; this module is
the streaming substrate the sim-as-a-service roadmap item sits on.  A
:class:`TelemetrySampler` rides the simulation's own event loop: every
``period_s`` simulated seconds it rebuilds the cross-layer metrics
registry (:func:`repro.obs.bridge.network_metrics`), diffs the flat
snapshot against the previously emitted state, and pushes one typed JSONL
record to a :class:`TelemetrySink`.  The sampler consumes no randomness
and schedules nothing on the frame path, so — exactly like trace
instrumentation — a sampled run is bit-identical to an unsampled one
apart from the extra (pure-observer) engine events; with telemetry off the
machinery is never constructed and costs nothing.

Stream record schema (one JSON object per line; DESIGN.md §10):

==============  ============================================================
``rec``         fields (beyond the ``seq``/``t``/``run`` envelope)
==============  ============================================================
``run-start``   ``protocol, seed, nodes, duration_s, medium, period_s,
                per_node`` — one per run, before the first sample
``snapshot``    ``full`` (true when ``updates`` is the whole state),
                ``updates`` — flat ``{key: value}`` of every metric whose
                value changed since the previous snapshot record
``run-end``     ``events_run, metrics`` (distinct keys streamed) and,
                when captured, ``resources`` (wall/CPU/max-RSS — the one
                deliberately wall-clock-dependent field group)
``sweep-start``  ``total`` — emitted by the *runner* around a sweep
``run-result``  ``label, digest, status (ok|cached|failed), events_run``
                plus optional ``resources`` per completed run
``sweep-end``   ``executed, cache_hits, failures, wall_s, cpu_s,
                max_rss_kb`` — the sweep's closing accounting
``campaign-start``  ``campaign, digest, mode, planned`` — emitted by the
                *campaign queue* before its first sweep round
``campaign-round``  ``campaign, digest, round, completed, enumerated`` —
                one per completed sweep/optimizer round (checkpoint)
``campaign-end``  ``campaign, digest, status (completed|interrupted),
                executed`` — how the campaign session ended
==============  ============================================================

``seq`` increases by one per record *per emitting stream*; ``t`` is
simulated seconds for run-scoped records and ``null`` for sweep- and
campaign-scoped ones (they live in wall time).  Because ``updates`` carries deltas keyed
by full flat metric keys, :func:`fold_snapshots` reconstructs the exact
end-of-run registry snapshot by replaying records in order — counters in
the folded state match :meth:`MetricsRegistry.snapshot` at run end
key-for-key (the acceptance contract, tested in ``tests/obs``).
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
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

from repro.obs.metrics import parse_flat_key
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


def _sanitize_value(value: Any) -> Any:
    """Non-finite floats become ``None`` so strict JSON always serializes."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_value(v) for v in value]
    return value


def encode_record(record: Dict[str, Any]) -> str:
    """One stream record as a strict-JSON line (no trailing newline)."""
    return json.dumps(
        _sanitize_value(record), separators=(",", ":"), allow_nan=False
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
    if kind == "campaign-end" and record.get("status") not in _CAMPAIGN_END_STATUSES:
        errors.append(
            f"campaign-end: status must be one of {_CAMPAIGN_END_STATUSES}, "
            f"got {record.get('status')!r}"
        )
    return errors


def fold_snapshots(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Replay ``snapshot`` records into the cumulative flat metrics state.

    Later updates win key-by-key, so the fold of a complete stream equals
    the end-of-run :meth:`MetricsRegistry.snapshot` exactly.
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
# Sinks
# ---------------------------------------------------------------------------
class TelemetrySink:
    """What the sampler writes to: ``emit`` one record, ``close`` at end.

    Structural base class — any object with these two methods works; the
    bundled implementations cover the common shapes (file JSONL for
    tailing, bounded ring for in-process consumers, Prometheus text
    exposition for scrape-style monitoring).
    """

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        pass


@dataclass
class StreamStats:
    """Counters for one telemetry stream (sampler + sink together)."""

    records_emitted: int = 0
    snapshot_records: int = 0
    keys_emitted: int = 0
    bytes_written: int = 0

    METRICS_PREFIX = "obs.stream"


class JsonlStreamSink(TelemetrySink):
    """Append stream records to a JSONL file, flushed per record.

    ``append=True`` (the default) opens in append mode so several runs —
    including runner worker *processes* — can share one stream file: each
    record is written with a single ``write()`` of one ``\\n``-terminated
    line, which POSIX appends atomically enough for line-oriented readers,
    and the ``run`` envelope field demultiplexes interleaved runs.  Every
    record is flushed immediately so ``python -m repro.obs tail --follow``
    sees it live.
    """

    def __init__(self, path: Union[str, Path], append: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.stats = StreamStats()
        self._fh = open(self.path, "a" if append else "w")

    def emit(self, record: Dict[str, Any]) -> None:
        line = encode_record(record) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self.stats.records_emitted += 1
        self.stats.bytes_written += len(line)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlStreamSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RingStreamSink(TelemetrySink):
    """Bounded in-memory ring of the most recent records.

    For in-process consumers (a service endpoint, tests): memory stays
    bounded at ``capacity`` records; ``dropped`` counts overwritten ones.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0
        self.stats = StreamStats()

    def emit(self, record: Dict[str, Any]) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        self.stats.records_emitted += 1

    @property
    def records(self) -> List[Dict[str, Any]]:
        return list(self._ring)

    def close(self) -> None:
        pass


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class PrometheusTextSink(TelemetrySink):
    """Fold snapshots into Prometheus text exposition format.

    Keeps the latest cumulative state (the same fold as
    :func:`fold_snapshots`); :meth:`render` returns the text exposition
    and, when a ``path`` is given, each sample atomically replaces the
    file so a node-exporter-style textfile collector never reads a torn
    write.  Metric names map ``layer.component.event`` → ``layer_component_event``.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._state: Dict[str, float] = {}
        self.stats = StreamStats()

    def emit(self, record: Dict[str, Any]) -> None:
        self.stats.records_emitted += 1
        if record.get("rec") != "snapshot":
            return
        self._state.update(record.get("updates", {}))
        self.stats.snapshot_records += 1
        if self.path is not None:
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(self.render())
            os.replace(tmp, self.path)

    def render(self) -> str:
        lines = []
        for key in sorted(self._state):
            name, labels = parse_flat_key(key)
            prom_name = name.replace(".", "_")
            if labels:
                inner = ",".join(
                    f'{k}="{_prom_escape(v)}"' for k, v in sorted(labels.items())
                )
                prom_name = f"{prom_name}{{{inner}}}"
            value = self._state[key]
            lines.append(f"{prom_name} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------
class TelemetrySampler(Monitor):
    """Deterministic sim-time metrics sampler driven by engine events.

    Built by :class:`~repro.sim.network.CollectionNetwork` when
    ``SimConfig.telemetry_period_s`` is set (or attached manually via
    :meth:`install`).  Each fire rebuilds the registry from the live
    network, emits the changed keys, and reschedules itself; the final
    sample plus the ``run-end`` record come from the monitor's
    :meth:`run_end` event, so the stream always closes with the exact
    end-of-run state.
    """

    def __init__(
        self,
        network: "CollectionNetwork",
        sink: TelemetrySink,
        period_s: float,
        per_node: bool = False,
        run_id: Optional[str] = None,
    ) -> None:
        if period_s <= 0.0:
            raise ValueError(f"telemetry period must be positive, got {period_s}")
        self.network = network
        self.sink = sink
        self.period_s = period_s
        self.per_node = per_node
        self.run_id = run_id
        self.stats = StreamStats()
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
        self.stats.records_emitted += 1
        self.sink.emit(record)

    def _snapshot_now(self) -> Dict[str, float]:
        from repro.obs.bridge import network_metrics

        return network_metrics(self.network, per_node=self.per_node).snapshot()

    def _emit_snapshot(self) -> None:
        snap = self._snapshot_now()
        last = self._last
        first = not self.stats.snapshot_records
        updates = {k: v for k, v in snap.items() if first or last.get(k) != v}
        self.stats.snapshot_records += 1
        self.stats.keys_emitted += len(updates)
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
            per_node=self.per_node,
        )
        if self.period_s <= config.duration_s:
            self.network.engine.schedule(self.period_s, self._sample)
        self.network.attach(self)

    def _sample(self) -> None:
        self._emit_snapshot()
        engine = self.network.engine
        if engine.now + self.period_s <= self.network.config.duration_s:
            engine.schedule(self.period_s, self._sample)

    def run_end(self, network: "CollectionNetwork") -> None:
        if self._finished:
            return
        self._finished = True
        self._emit_snapshot()
        resources = getattr(network, "run_resources", None)
        extra: Dict[str, Any] = {}
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
        self.sink.close()


__all__ = [
    "CAMPAIGN_KINDS",
    "JsonlStreamSink",
    "PrometheusTextSink",
    "RingStreamSink",
    "STREAM_KINDS",
    "StreamStats",
    "TelemetrySampler",
    "TelemetrySink",
    "encode_record",
    "fold_snapshots",
    "read_stream",
    "validate_record",
]
