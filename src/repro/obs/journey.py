"""Causal packet-journey reconstruction from trace records.

The datapath records of :mod:`repro.sim.trace` stamp every event
with the packet's ``(origin, seq)`` identity: ``pkt-orig`` when the
application hands a packet to its origin's forwarding queue, one
``pkt-tx`` per forwarding-level unicast attempt, one ``pkt-rx`` per
arrival (with its fate — delivered at a root, forwarded, suppressed as a
duplicate, or dropped), plus the existing ``drop``/``deliver`` records.
This module correlates them into one **span tree** per packet: a
:class:`HopSpan` per node the packet visited, parent/child edges from the
``src`` field of each reception, per-hop attempt/retry counts and
latencies, and a terminal state.

Offline entry point: ``python -m repro.obs journey trace.jsonl``.  Every
stack (CTP, geographic, MultiHopLQI) emits the same ``pkt-*`` records, so
journeys rebuild the same way for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

#: (origin node id, origin sequence number) — the packet's identity.
PacketKey = Tuple[int, int]


@dataclass
class HopSpan:
    """One node's involvement in one packet's journey."""

    node: int
    #: First / last simulated time the packet was seen at this node.
    t_first: float = math.inf
    t_last: float = -math.inf
    #: Forwarding-level unicast attempts made *by this node* for the packet.
    attempts: int = 0
    acked: int = 0
    #: Where the last attempt was aimed (the intended next hop).
    next_hop: Optional[int] = None
    #: Fate of the packet *at this node* ("origin", "forward", "deliver",
    #: "dup", "drop-thl", "queue-full", "drop-retries"; "" when unknown).
    outcome: str = ""
    #: Duplicate arrivals suppressed at this node.
    duplicates: int = 0
    #: Nodes that received this packet from this node.
    children: List["HopSpan"] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Unacked attempts (the per-hop retransmission count)."""
        return max(0, self.attempts - self.acked)

    @property
    def dwell_s(self) -> float:
        """Time between first and last event at this node."""
        if self.t_first > self.t_last:
            return 0.0
        return self.t_last - self.t_first

    def touch(self, t: float) -> None:
        self.t_first = min(self.t_first, t)
        self.t_last = max(self.t_last, t)


@dataclass
class PacketJourney:
    """The reconstructed end-to-end story of one packet."""

    origin: int
    seq: int
    #: Time the application handed the packet to the origin (None when the
    #: trace lacks a ``pkt-orig`` record — filtered or capacity-dropped).
    t_origin: Optional[float] = None
    delivered: bool = False
    t_delivered: Optional[float] = None
    #: Root node that delivered it (from its ``pkt-rx`` outcome=deliver).
    delivered_at: Optional[int] = None
    #: Hop count reported by the root's ``deliver`` record (thl + 1).
    delivered_hops: Optional[int] = None
    dropped: bool = False
    drop_reason: str = ""
    drop_node: Optional[int] = None
    #: Per-node spans, keyed by node id.
    hops: Dict[int, HopSpan] = field(default_factory=dict)

    def span(self, node: int) -> HopSpan:
        hop = self.hops.get(node)
        if hop is None:
            hop = self.hops[node] = HopSpan(node=node)
        return hop

    @property
    def key(self) -> PacketKey:
        return (self.origin, self.seq)

    @property
    def state(self) -> str:
        """Terminal state: ``delivered``, ``dropped`` or ``in-flight``."""
        if self.delivered:
            return "delivered"
        if self.dropped:
            return "dropped"
        return "in-flight"

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end delivery latency (None unless both ends are known)."""
        if self.t_origin is None or self.t_delivered is None:
            return None
        return self.t_delivered - self.t_origin

    @property
    def total_attempts(self) -> int:
        return sum(h.attempts for h in self.hops.values())

    @property
    def total_retries(self) -> int:
        return sum(h.retries for h in self.hops.values())

    def path(self) -> List[int]:
        """Node path origin → … → delivering root along span-tree edges.

        Empty when the tree is incomplete (a hop's reception record is
        missing, so the chain cannot be walked end to end).
        """
        if self.delivered_at is None:
            return []
        parent: Dict[int, int] = {}
        for hop in self.hops.values():
            for child in hop.children:
                parent.setdefault(child.node, hop.node)
        path = [self.delivered_at]
        seen: Set[int] = {self.delivered_at}
        cursor = self.delivered_at
        while cursor != self.origin:
            nxt = parent.get(cursor)
            if nxt is None or nxt in seen:
                return []
            path.append(nxt)
            seen.add(nxt)
            cursor = nxt
        path.reverse()
        return path

    def is_complete(self) -> bool:
        """Delivered with an unbroken tx → rx → … → deliver span chain."""
        return self.delivered and bool(self.path())

    def render(self) -> str:
        """Indented span tree, one line per hop."""
        header = f"packet ({self.origin}, {self.seq}): {self.state}"
        if self.latency_s is not None:
            header += f" in {self.latency_s * 1000:.0f}ms"
        if self.delivered_hops is not None:
            header += f", {self.delivered_hops} hop(s)"
        if self.dropped:
            where = f" at node {self.drop_node}" if self.drop_node is not None else ""
            header += f" ({self.drop_reason}{where})"
        lines = [header]
        origin_span = self.hops.get(self.origin)
        visited: Set[int] = set()

        def walk(span: HopSpan, depth: int) -> None:
            if span.node in visited:
                return
            visited.add(span.node)
            t0 = "?" if math.isinf(span.t_first) else f"{span.t_first:.3f}s"
            parts = [f"node {span.node} @ {t0}"]
            if span.attempts:
                parts.append(f"tx={span.attempts} (retries={span.retries})")
            if span.duplicates:
                parts.append(f"dups={span.duplicates}")
            if span.outcome:
                parts.append(span.outcome)
            lines.append("  " * (depth + 1) + "└ " + "  ".join(parts))
            for child in span.children:
                walk(child, depth + 1)

        if origin_span is not None:
            walk(origin_span, 0)
        for span in self.hops.values():  # orphan spans (broken chains)
            if span.node not in visited:
                walk(span, 0)
        return "\n".join(lines)


def build_journeys(records: Iterable[Any]) -> Dict[PacketKey, PacketJourney]:
    """Correlate trace records into one :class:`PacketJourney` per packet.

    ``records`` may be :class:`~repro.sim.trace.TraceRecord` objects or
    plain dicts with the same keys.  Records are consumed in order (traces
    are chronological by construction); partial traces — kind filters,
    capacity drops, protocols without ``pkt-*`` hooks — degrade to partial
    journeys rather than errors.
    """
    journeys: Dict[PacketKey, PacketJourney] = {}

    def get(journey_key: PacketKey) -> PacketJourney:
        journey = journeys.get(journey_key)
        if journey is None:
            journey = journeys[journey_key] = PacketJourney(*journey_key)
        return journey

    for record in records:
        if isinstance(record, dict):
            kind = record.get("kind")
            t = float(record.get("t", 0.0))
            node = int(record.get("node", -1))
            fields_get = record.get
        else:
            kind = record.kind
            t = record.time
            node = record.node
            fields_get = record.get
        if kind == "pkt-orig":
            journey = get((node, int(fields_get("seq", -1))))
            journey.t_origin = t if journey.t_origin is None else journey.t_origin
            span = journey.span(node)
            span.touch(t)
            if not span.outcome:
                span.outcome = "origin"
        elif kind == "pkt-tx":
            journey = get((int(fields_get("origin", -1)), int(fields_get("seq", -1))))
            span = journey.span(node)
            span.touch(t)
            span.attempts += 1
            if fields_get("acked"):
                span.acked += 1
            to = fields_get("to")
            if to is not None:
                span.next_hop = int(to)
        elif kind == "pkt-rx":
            journey = get((int(fields_get("origin", -1)), int(fields_get("seq", -1))))
            span = journey.span(node)
            span.touch(t)
            outcome = str(fields_get("outcome", ""))
            src = fields_get("src")
            if src is not None:
                sender = journey.span(int(src))
                sender.touch(t)  # the hop was live until its frame arrived
                if all(child.node != node for child in sender.children):
                    sender.children.append(span)
            if outcome == "dup":
                span.duplicates += 1
            elif outcome:
                span.outcome = outcome
            if outcome == "deliver":
                journey.delivered = True
                journey.delivered_at = node
                if journey.t_delivered is None:
                    journey.t_delivered = t
            elif outcome in ("drop-thl", "queue-full") and not journey.delivered:
                journey.dropped = True
                journey.drop_reason = outcome
                journey.drop_node = node
        elif kind == "drop":
            journey = get((int(fields_get("origin", -1)), int(fields_get("seq", -1))))
            span = journey.span(node)
            span.touch(t)
            reason = str(fields_get("reason", "drop"))
            if not journey.delivered:
                journey.dropped = True
                journey.drop_reason = reason
                journey.drop_node = node
            if reason == "retries":
                span.outcome = "drop-retries"
        elif kind == "deliver":
            # Emitted with node=origin at delivery time; protocol-agnostic.
            journey = get((node, int(fields_get("seq", -1))))
            journey.delivered = True
            if journey.t_delivered is None:
                journey.t_delivered = t
            hops = fields_get("hops")
            if hops is not None:
                journey.delivered_hops = int(hops)
    return journeys


@dataclass
class JourneySummary:
    """Aggregate fleet view over many journeys."""

    total: int = 0
    delivered: int = 0
    complete: int = 0
    dropped: int = 0
    in_flight: int = 0
    total_attempts: int = 0
    total_retries: int = 0
    latencies_s: List[float] = field(default_factory=list)
    hop_counts: List[int] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return math.nan
        return sum(self.latencies_s) / len(self.latencies_s)

    @property
    def mean_hops(self) -> float:
        if not self.hop_counts:
            return math.nan
        return sum(self.hop_counts) / len(self.hop_counts)


def summarize_journeys(journeys: Iterable[PacketJourney]) -> JourneySummary:
    summary = JourneySummary()
    for journey in journeys:
        summary.total += 1
        if journey.delivered:
            summary.delivered += 1
            if journey.is_complete():
                summary.complete += 1
        elif journey.dropped:
            summary.dropped += 1
        else:
            summary.in_flight += 1
        summary.total_attempts += journey.total_attempts
        summary.total_retries += journey.total_retries
        latency = journey.latency_s
        if latency is not None:
            summary.latencies_s.append(latency)
        if journey.delivered_hops is not None:
            summary.hop_counts.append(journey.delivered_hops)
    return summary


__all__ = [
    "HopSpan",
    "JourneySummary",
    "PacketJourney",
    "build_journeys",
    "summarize_journeys",
]
