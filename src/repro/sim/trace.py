"""Structured event tracing for simulations.

A :class:`Tracer` turns probe events into typed, timestamped records.  It
is a :class:`~repro.sim.probe.Monitor`: :func:`instrument_network` attaches
it to a built :class:`~repro.sim.network.CollectionNetwork` through the
network's one attach point, and every layer reports to it through the
explicit probe calls it makes at its decision points.  With no monitor
attached each of those calls is a single ``probe is None`` test, so
tracing costs nothing unless requested.

Records are plain dicts — exactly what is written to disk — and go to a
:class:`~repro.obs.stream.RecordLog`: kept in memory under a bound by
default, or appended to a JSONL file as they happen.  Typical use,
debugging a misbehaving run::

    net = CollectionNetwork(topo, config, profile=profile)
    tracer = instrument_network(net, kinds={"parent-change", "drop"})
    net.run()
    parent_flaps = len(select(tracer.records, kind="parent-change", node=17))
    tracer.to_jsonl("trace.jsonl")

:func:`load_trace` reads exported files back.  The offline analysis CLI
(``python -m repro.obs``) answers
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

import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.obs.metrics import numeric_fields
from repro.obs.stream import RecordLog, read_stream
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

Record = Dict[str, Any]


def _node_field(node: Optional[int]) -> int:
    """A node id as a record field: -1 stands for none."""
    return node if node is not None else -1


def select(
    records: Iterable[Record],
    kind: Optional[str] = None,
    node: Optional[int] = None,
    t0: float = float("-inf"),
    t1: float = float("inf"),
) -> List[Record]:
    """The records of ``kind`` at ``node`` within ``[t0, t1]`` (``None``:
    any), in order."""
    return [
        r
        for r in records
        if (kind is None or r["kind"] == kind)
        and (node is None or r["node"] == node)
        and t0 <= r["t"] <= t1
    ]


def load_trace(*paths: Union[str, Path]) -> Tuple[List[Record], int, int]:
    """Read exported traces back, in order: ``(records, dropped,
    filtered)``, the two counts summed over the files' ``_meta`` footers.
    Lines whose ``kind`` starts with ``_`` are tracer metadata, not events."""
    records: List[Record] = []
    dropped = filtered = 0
    for path in paths:
        for record in read_stream(path):
            kind = record.get("kind", "")
            if isinstance(kind, str) and kind.startswith("_"):
                if kind == "_meta":
                    dropped += int(record.get("dropped", 0))
                    filtered += int(record.get("filtered", 0))
                continue
            records.append(record)
    return records, dropped, filtered


class Tracer(Monitor):
    """Monitor that turns each probe event into one record of the module's
    schema, stamped with the network's simulated time, and emits it to
    ``log`` (default: the first 100,000 records, in memory).

    ``kinds`` whitelists record kinds; ``filtered`` counts the records it
    excluded (deliberately, not lost — the log's ``dropped`` counts those
    lost to its bound).
    """

    def __init__(self, log: Optional[RecordLog] = None, kinds: Optional[Set[str]] = None) -> None:
        self.log = log if log is not None else RecordLog(limit=100_000)
        self.kinds = kinds
        #: Records excluded by the ``kinds`` whitelist (not lost — excluded).
        self.filtered = 0
        #: Clock of the network this tracer is attached to.
        self._engine: Optional["Engine"] = None

    @property
    def records(self) -> Union[List[Record], Deque[Record]]:
        """The records the log kept in memory, in order."""
        return self.log.records

    def emit(self, time: float, kind: str, node: int, **fields: Any) -> None:
        """Record one event with typed key/value ``fields``."""
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
            return
        for key in RESERVED_KEYS:
            if key in fields:
                raise ValueError(f"field name {key!r} is reserved")
        record: Record = {"t": time, "kind": kind, "node": node}
        record.update(fields)
        self.log.emit(record)

    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write the kept records (plus a ``_meta`` footer) to ``path``.
        Returns the number of records written."""
        return self.log.export(path, filtered=self.filtered)

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


# ---------------------------------------------------------------------------
# Network instrumentation
# ---------------------------------------------------------------------------
def instrument_network(
    network: "CollectionNetwork",
    kinds: Optional[Set[str]] = None,
    max_records: Optional[int] = 100_000,
    keep: str = "head",
    etx_sample_s: Optional[float] = None,
) -> Tracer:
    """Attach a :class:`Tracer` to every layer of a built network.

    See the module docstring for the full record schema.  The records are
    kept in memory: ``max_records`` bounds them (``None``: unbounded) and
    ``keep`` picks which survive the bound (see
    :class:`~repro.obs.stream.RecordLog`).  ``etx_sample_s``
    additionally samples each node's parent-link ETX estimate against the
    channel's ground truth at that period (off by default — it adds engine
    events, though it never changes results).  The tracer only observes:
    it consumes no randomness and schedules nothing on the frame path, so
    a traced run is bit-identical to an untraced one.
    """
    tracer = Tracer(RecordLog(limit=max_records, keep=keep), kinds=kinds)
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
