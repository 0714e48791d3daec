"""Structured event tracing for simulations.

A :class:`Tracer` collects typed, timestamped records from any layer.  It
is a :class:`~repro.sim.probe.Monitor`: :func:`instrument_network` attaches
it to a built :class:`~repro.sim.network.CollectionNetwork` through the
network's one attach point, and every layer reports to it through the
explicit probe calls it makes at its decision points.  With no monitor
attached each of those calls is a single ``probe is None`` test, so
tracing costs nothing unless requested.

Typical use, debugging a misbehaving run::

    net = CollectionNetwork(topo, config, profile=profile)
    tracer = instrument_network(net, kinds={"parent-change", "drop"})
    net.run()
    print(tracer.render(limit=50))
    parent_flaps = tracer.count(kind="parent-change", node=17)

Traces export to JSONL (one JSON object per line) and round-trip through
:meth:`Tracer.to_jsonl` / :meth:`Tracer.from_jsonl`; long runs can stream
records straight to disk instead through a
:class:`~repro.obs.stream.JsonlStreamSink` (``Tracer(sink=...)``).  Both
paths write lines with :func:`~repro.obs.stream.encode_record`.  The
offline analysis CLI (``python -m repro.obs``) answers
summary/timeline/flap/convergence/journey questions over the exported file.

Trace schema
============

Every record serializes flat: the three reserved keys ``t`` (simulated
seconds), ``kind``, ``node``, plus the record's typed fields.  Lines whose
``kind`` starts with ``_`` are tracer metadata, not events.  Record kinds
emitted by :func:`instrument_network`, by layer:

========  ==============  ====================================================
layer     kind            fields
========  ==============  ====================================================
phy       ``rx``          ``src, snr (dB), lqi, white (0/1)`` — every decoded
                          non-ack frame at this node
link      ``tx``          ``dest, ack (0/1), backoffs`` — unicast attempts
link      ``cca-fail``    ``dest, backoffs`` — CSMA gave up, frame never sent
est       ``est-insert``  ``neighbor, mode (free|evict-worst|compare)``
est       ``est-reject``  ``neighbor, reason (no-white|no-compare|all-pinned)``
est       ``pin``/``unpin``  ``neighbor`` — the network layer's pin bit
net       ``parent-change``  ``old, new`` (node ids; -1 = none).  A crash's
                          parent loss is stamped at the crash, right after
                          its ``crash`` record
net       ``drop``        ``origin, seq, reason (retries|queue-full)``
net       ``pkt-orig``    ``seq`` — the record node accepted one app packet
                          into its forwarding queue (its origin sequence)
net       ``pkt-tx``      ``origin, seq, to, sent (0/1), acked (0/1)`` — one
                          forwarding-level unicast attempt completed
net       ``pkt-rx``      ``origin, seq, src, thl, outcome
                          (deliver|forward|dup|drop-thl|queue-full)`` — one
                          data frame arrived at the record node
net       ``deliver``     ``origin is the record node; seq, hops`` (at roots)
net       ``etx``         ``neighbor, est, path, true`` — periodic parent-link
                          estimate vs ground truth (``etx_sample_s`` only)
app       ``boot``        (none)
faults    ``crash``/``reboot``  (none) — the record node crashed/came back
faults    ``blackout``/``blackout-end``  ``a, b`` (node ids; -1 = wildcard
                          scope, see :mod:`repro.faults.schedule`)
faults    ``quality-shift``  ``delta (dB), a, b`` (-1 = wildcard)
faults    ``interference``  ``x, y, power (dBm)`` — burst window opened
(end)     ``stats``       ``layer`` plus every counter of that layer's stats
                          dataclass, one record per node per layer at run end
========  ==============  ====================================================

The ``net`` records cover every stack: CTP, the geographic router (on
CTP's forwarding engine) and MultiHopLQI emit the same kinds with the same
fields, so :mod:`repro.obs.journey` rebuilds packets of any of them.
Fault records carry ``node=NETWORK_NODE`` except ``crash``/``reboot``,
whose ``node`` is the affected mote.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Union

from repro.obs.metrics import numeric_fields
from repro.obs.stream import JsonlStreamSink, encode_record
from repro.sim.probe import Monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.frame import Frame
    from repro.sim.engine import Engine
    from repro.sim.network import CollectionNetwork
    from repro.sim.packets import RxInfo, TxResult

#: JSON keys reserved for the record envelope; field names must avoid them.
RESERVED_KEYS = ("t", "kind", "node")

#: ``node`` value for network-scoped records (medium/engine stats).
NETWORK_NODE = -1


@dataclass(frozen=True)
class TraceRecord:
    """One traced event: reserved envelope plus typed key/value fields."""

    time: float
    kind: str
    node: int
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def detail(self) -> str:
        """Legacy flat rendering of the fields (``k=v`` pairs)."""
        if set(self.fields) == {"detail"}:
            return str(self.fields["detail"])
        return " ".join(f"{k}={v}" for k, v in self.fields.items())

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind, "node": self.node}
        out.update(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRecord":
        fields = {k: v for k, v in data.items() if k not in RESERVED_KEYS}
        return cls(
            time=float(data["t"]), kind=str(data["kind"]), node=int(data["node"]),
            fields=fields,
        )


def _node_field(node: Optional[int]) -> int:
    """A node id as a record field: -1 stands for none."""
    return node if node is not None else -1


class Tracer(Monitor):
    """Bounded in-memory event log with filtering and JSONL export.

    ``keep`` selects what the memory bound protects: ``"head"`` keeps the
    *first* ``max_records`` events (the historical behaviour — good for
    boot/convergence analysis), ``"tail"`` keeps the *last* ``max_records``
    as a ring buffer (good for debugging — the interesting events are
    usually the most recent ones).  ``max_records=None`` is unbounded;
    ``max_records=0`` with a ``sink`` streams to disk keeping nothing in
    memory.

    Drop accounting is split so summaries stay trustworthy: ``dropped``
    counts only records lost to the capacity bound; ``filtered`` counts
    records excluded by the ``kinds`` whitelist (deliberate, not lost).

    Attached to a network (:func:`instrument_network`), the tracer turns
    each :class:`~repro.sim.probe.Monitor` event into one record of the
    module's schema, stamped with the network's simulated time.
    """

    def __init__(
        self,
        max_records: Optional[int] = 100_000,
        kinds: Optional[Set[str]] = None,
        keep: str = "head",
        sink: Optional[JsonlStreamSink] = None,
    ) -> None:
        if keep not in ("head", "tail"):
            raise ValueError(f"keep must be 'head' or 'tail', not {keep!r}")
        self.max_records = max_records
        self.kinds = kinds
        self.keep = keep
        self.sink = sink
        if keep == "tail" and max_records:
            self.records: Union[List[TraceRecord], deque] = deque(maxlen=max_records)
        else:
            self.records = []
        #: Records lost to the capacity bound (head mode: rejected at the
        #: end; tail mode: overwritten at the front).
        self.dropped = 0
        #: Records excluded by the ``kinds`` whitelist (not lost — excluded).
        self.filtered = 0
        #: Clock of the network this tracer is attached to.
        self._engine: Optional["Engine"] = None

    def emit(self, time: float, kind: str, node: int, detail: str = "", **fields: Any) -> None:
        """Record one event.  ``fields`` are typed key/values; the legacy
        ``detail`` string (if given) is stored as a ``detail`` field."""
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
            return
        if detail:
            fields = dict(fields, detail=detail)
        for key in RESERVED_KEYS:
            if key in fields:
                raise ValueError(f"field name {key!r} is reserved")
        record = TraceRecord(time, kind, node, fields)
        if self.sink is not None:
            self.sink.emit(record.to_dict())
        if self.max_records == 0:
            return
        if isinstance(self.records, deque):
            if self.max_records and len(self.records) >= self.max_records:
                self.dropped += 1
            self.records.append(record)
        else:
            if self.max_records is not None and len(self.records) >= self.max_records:
                self.dropped += 1
                return
            self.records.append(record)

    # ------------------------------------------------------------------
    # Monitor events → records (the module's schema table)
    # ------------------------------------------------------------------
    def attached(self, network: "CollectionNetwork") -> None:
        self._engine = network.engine

    def _event(self, kind: str, node: int, **fields: Any) -> None:
        assert self._engine is not None, "tracer is not attached to a network"
        self.emit(self._engine.now, kind, node, **fields)

    def rx(self, node: int, frame: "Frame", info: "RxInfo") -> None:
        self._event(
            "rx", node, src=frame.src, snr=round(info.snr_db, 1), lqi=info.lqi,
            white=1 if info.white_bit else 0,
        )

    def tx(self, node: int, frame: "Frame", result: "TxResult") -> None:
        if result.sent:
            self._event(
                "tx", node, dest=result.dest, ack=1 if result.ack_bit else 0,
                backoffs=result.backoffs,
            )
        else:
            self._event("cca-fail", node, dest=result.dest, backoffs=result.backoffs)

    def est_insert(self, node: int, neighbor: int, mode: str) -> None:
        self._event("est-insert", node, neighbor=neighbor, mode=mode)

    def est_reject(self, node: int, neighbor: int, reason: str) -> None:
        self._event("est-reject", node, neighbor=neighbor, reason=reason)

    def pin(self, node: int, neighbor: int) -> None:
        self._event("pin", node, neighbor=neighbor)

    def unpin(self, node: int, neighbor: int) -> None:
        self._event("unpin", node, neighbor=neighbor)

    def parent_change(self, node: int, old: Optional[int], new: Optional[int]) -> None:
        self._event("parent-change", node, old=_node_field(old), new=_node_field(new))

    def pkt_orig(self, node: int, seq: int) -> None:
        self._event("pkt-orig", node, seq=seq)

    def pkt_tx(self, node: int, frame: Any, sent: bool, acked: bool) -> None:
        self._event(
            "pkt-tx", node, origin=frame.origin, seq=frame.origin_seq, to=frame.dst,
            sent=1 if sent else 0, acked=1 if acked else 0,
        )

    def pkt_rx(self, node: int, frame: Any, outcome: str) -> None:
        self._event(
            "pkt-rx", node, origin=frame.origin, seq=frame.origin_seq, src=frame.src,
            thl=frame.thl, outcome=outcome,
        )

    def drop(self, node: int, origin: int, seq: int, reason: str) -> None:
        self._event("drop", node, origin=origin, seq=seq, reason=reason)

    def deliver(self, origin: int, seq: int, thl: int) -> None:
        self._event("deliver", origin, seq=seq, hops=thl + 1)

    def boot(self, node: int) -> None:
        self._event("boot", node)

    def fault(self, kind: str, fields: Dict[str, Any]) -> None:
        if kind in ("crash", "reboot"):
            self._event(kind, fields["node"])
            return
        out = dict(fields)
        for key in ("a", "b"):
            if key in out:
                out[key] = _node_field(out[key])
        self._event(kind, NETWORK_NODE, **out)

    def run_end(self, network: "CollectionNetwork") -> None:
        """One ``stats`` record per node per layer, then the medium's and
        the engine's.

        This is what makes an exported trace self-contained: the offline
        CLI can report exact counter totals (the four-bit events included)
        without the live objects, and they match the in-process snapshots
        by construction.
        """
        for nid, node in network.nodes.items():
            for stats in node.stats_objects():
                self._event("stats", nid, layer=stats.METRICS_PREFIX, **numeric_fields(stats))
        medium = network.medium
        self._event(
            "stats", NETWORK_NODE, layer="phy.medium",
            transmissions=medium.transmissions, deliveries=medium.deliveries,
            collisions=medium.collisions, white_bits_set=medium.white_bits_set,
        )
        engine = network.engine
        self._event(
            "stats", NETWORK_NODE, layer="sim.engine",
            events_run=engine.events_run, pending=engine.pending,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        t0: float = float("-inf"),
        t1: float = float("inf"),
    ) -> List[TraceRecord]:
        return [
            r
            for r in self.records
            if (kind is None or r.kind == kind)
            and (node is None or r.node == node)
            and t0 <= r.time <= t1
        ]

    def count(self, **kwargs: Any) -> int:
        return len(self.filter(**kwargs))

    def render(self, limit: int = 100, **filter_kwargs: Any) -> str:
        rows = self.filter(**filter_kwargs)[:limit]
        lines = [f"{r.time:10.3f}s  node {r.node:<4} {r.kind:<14} {r.detail}" for r in rows]
        if self.dropped:
            lines.append(f"... ({self.dropped} records dropped at capacity)")
        if self.filtered:
            lines.append(f"... ({self.filtered} records excluded by kind filter)")
        return "\n".join(lines) if lines else "(no records)"

    # ------------------------------------------------------------------
    # JSONL round trip
    # ------------------------------------------------------------------
    def _meta(self) -> Dict[str, Any]:
        return {
            "kind": "_meta",
            "records": len(self.records),
            "dropped": self.dropped,
            "filtered": self.filtered,
            "keep": self.keep,
        }

    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write the in-memory records (plus a ``_meta`` footer) to ``path``.
        Returns the number of records written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(encode_record(record.to_dict()) + "\n")
            fh.write(encode_record(self._meta()) + "\n")
        return len(self.records)

    def close(self) -> None:
        """Write the ``_meta`` footer to the streaming sink and close it."""
        if self.sink is not None:
            self.sink.emit(self._meta())
            self.sink.close()
            self.sink = None

    @classmethod
    def from_jsonl(cls, *paths: Union[str, Path]) -> "Tracer":
        """Load a tracer back from one or more JSONL files (in order).
        Restores drop/filter accounting from the ``_meta`` footers."""
        tracer = cls(max_records=None)
        for path in paths:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    data = json.loads(line)
                    kind = data.get("kind", "")
                    if isinstance(kind, str) and kind.startswith("_"):
                        if kind == "_meta":
                            tracer.dropped += int(data.get("dropped", 0))
                            tracer.filtered += int(data.get("filtered", 0))
                        continue
                    tracer.records.append(TraceRecord.from_dict(data))
        return tracer


# ---------------------------------------------------------------------------
# Network instrumentation
# ---------------------------------------------------------------------------
def instrument_network(
    network: "CollectionNetwork",
    kinds: Optional[Set[str]] = None,
    max_records: Optional[int] = 100_000,
    keep: str = "head",
    sink: Optional[JsonlStreamSink] = None,
    etx_sample_s: Optional[float] = None,
) -> Tracer:
    """Attach a :class:`Tracer` to every layer of a built network.

    See the module docstring for the full record schema.  ``etx_sample_s``
    additionally samples each node's parent-link ETX estimate against the
    channel's ground truth at that period (off by default — it adds engine
    events, though it never changes results).  The tracer only observes:
    it consumes no randomness and schedules nothing on the frame path, so
    a traced run is bit-identical to an untraced one.
    """
    tracer = Tracer(max_records=max_records, kinds=kinds, keep=keep, sink=sink)
    network.attach(tracer)
    if etx_sample_s is not None:
        _schedule_etx_sampling(tracer, network, etx_sample_s)
    return tracer


# ---------------------------------------------------------------------------
# ETX ground truth + periodic sampling
# ---------------------------------------------------------------------------
def true_link_etx(network: "CollectionNetwork", src: int, dst: int, data_bytes: int = 44) -> float:
    """Ground-truth acknowledged-delivery ETX of the (src → dst) link from
    the channel's mean gains: the data frame must survive forward and the
    L2 ack must survive the reverse direction."""
    from repro.phy.modulation import prr_fast

    channel = network.channel
    tx, rx = network.nodes[src].radio, network.nodes[dst].radio
    fwd_bytes = data_bytes + tx.params.phy_overhead_bytes
    ack_bytes = tx.params.ack_mpdu_bytes + tx.params.phy_overhead_bytes
    snr_fwd = tx.effective_tx_power_dbm + channel.mean_gain_db(src, dst) - rx.noise_floor_dbm
    snr_rev = rx.effective_tx_power_dbm + channel.mean_gain_db(dst, src) - tx.noise_floor_dbm
    p = prr_fast(tx.params.modulation, snr_fwd, fwd_bytes) * prr_fast(
        rx.params.modulation, snr_rev, ack_bytes
    )
    if p <= 0.0:
        return math.inf
    return 1.0 / p


def _schedule_etx_sampling(tracer: Tracer, network: "CollectionNetwork", period_s: float) -> None:
    engine = network.engine

    def sample() -> None:
        for node in network.nodes.values():
            if node.is_root or node.estimator is None:
                continue
            parent = node.parent
            if parent is None:
                continue
            est = node.estimator.link_quality(parent)
            truth = true_link_etx(network, node.node_id, parent)
            fields: Dict[str, Any] = {
                "neighbor": parent,
                "est": None if math.isinf(est) else round(est, 3),
                "true": None if math.isinf(truth) else round(truth, 3),
            }
            path = getattr(node.protocol, "path_etx", None)
            if callable(path):
                p = path()
                fields["path"] = None if math.isinf(p) else round(p, 3)
            tracer.emit(engine.now, "etx", node.node_id, **fields)
        engine.schedule(period_s, sample)

    engine.schedule(period_s, sample)
