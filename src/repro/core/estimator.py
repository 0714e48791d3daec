"""The hybrid link estimator (paper Section 3.3).

One engine implements the full design space explored in the paper's
Figure 6; the named presets live in :mod:`repro.estimators.presets`.
Configuration axes:

* **ack stream** on/off — the link layer's ack bit refines estimates at the
  rate of data traffic (windowed every ``ku`` unicast transmissions);
* **beacon stream** unidirectional (4B: incoming PRR only, bootstrapping
  values refined by the ack bit) or bidirectional (stock CTP / MintRoute:
  the product of both directions, with the reverse direction learned from
  beacon footers);
* **insertion policy** — ``white-compare`` (4B: a routing packet with the
  white bit set from an unknown node triggers a compare-bit query; on a set
  compare bit a *random unpinned* entry is flushed) or ``evict-worst``
  (stock: a newcomer displaces the worst unpinned entry only if that entry
  is measurably bad).

The hybrid value follows the paper exactly: unicast ETX samples
(``ku / acked``, or consecutive-failure count when nothing was acked) and
beacon ETX samples (inverted windowed EWMA of reception probability) feed
one outer EWMA.  Under heavy data traffic unicast samples dominate; in a
quiet network beacon samples dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Collection, Dict, ItemsView, List, Optional

from repro.core.ewma import Ewma
from repro.core.interfaces import CompareBitProvider, EstimatorClient, LinkEstimator
from repro.core.neighbor_table import NeighborEntry, NeighborTable
from repro.link.frame import (
    BROADCAST,
    FooterEntry,
    Frame,
    LinkEstimatorFrame,
    NetworkFrame,
    le_wrap,
)
from repro.link.mac import Mac
from repro.sim.packets import RxInfo, TxResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor

_INF = float("inf")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the hybrid estimator.  Defaults are the paper's 4B values."""

    table_size: Optional[int] = 10
    #: Unicast window: a new ETX sample every ``ku`` data transmissions.
    ku: int = 5
    #: Beacon window: a new PRR sample every ``kb`` expected beacons.
    kb: int = 2
    #: History weight of the outer (hybrid) EWMA.  The worked example in the
    #: paper's Figure 5 is consistent with 0.5 (e.g. 5.0 → 3.1 on a 1.25
    #: sample; 2.1 → ≈1.7 on a 1.25 sample).
    alpha_outer: float = 0.5
    #: History weight of the windowed beacon-PRR EWMA.
    alpha_beacon: float = 0.8
    #: Cap on individual ETX samples (guards the consecutive-failure rule).
    max_etx_sample: float = 50.0
    #: A beacon sequence gap this large is treated as a neighbor reboot.
    reboot_gap: int = 32
    # ---- design-space axes (Figure 6) ----
    use_ack_stream: bool = True
    bidirectional_beacons: bool = False
    #: Standard Woo et al. replacement: a newcomer displaces the worst
    #: unpinned *mature* entry whose ETX exceeds ``evict_etx_threshold``.
    use_standard_replacement: bool = True
    #: The 4B supplement (Section 3.3): when the standard policy finds no
    #: victim, a routing packet with the white bit set triggers a compare-bit
    #: query; a set compare bit flushes a random unpinned entry.
    use_white_compare: bool = True
    #: Whether white-compare insertion requires the white bit (ablation).
    require_white_bit: bool = True
    #: Send beacon footers advertising inbound PRRs (bidirectional baselines).
    send_footers: bool = False
    #: Standard replacement: a newcomer displaces the worst unpinned mature
    #: entry only if that entry's ETX exceeds this.  Must sit below the
    #: unknown-reverse penalty (1 / default_prr_out) so that entries whose
    #: reverse direction is never advertised keep churning until reciprocated
    #: pairs lock in.
    evict_etx_threshold: float = 3.0
    #: Standard replacement, part two (Woo et al. aging): an unpinned entry
    #: still immature after this many expected beacons is evictable — its
    #: neighbor is either gone or will never reciprocate, and holding the
    #: slot would deadlock the reciprocity search.
    immature_evict_expected: int = 6
    #: Ablation: honor the pin bit during compare-driven eviction.
    honor_pin_bit: bool = True
    #: Victim choice for compare-driven eviction: ``"random"`` (the paper's
    #: policy) or ``"worst"`` (ablation: evict the highest-ETX entry).
    compare_evict: str = "random"
    #: Bidirectional baselines: default for the advertised reverse PRR before
    #: any footer is heard.  A neighbor only advertises us if *we* occupy a
    #: slot in its table, so with a 10-entry table at most ~10 children get
    #: real reverse estimates — everyone else sees this pessimistic default
    #: and routes around the link.  This is how a small table caps node
    #: in-degree and deepens the tree (paper Figure 2(a)).  The default
    #: ``None`` makes such links completely unusable until advertised — the
    #: stale-immature aging above keeps the table churning so reciprocated
    #: pairs are eventually found.
    default_prr_out: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ku <= 0 or self.kb <= 0:
            raise ValueError("window sizes must be positive")
        if self.compare_evict not in ("random", "worst"):
            raise ValueError(f"unknown compare_evict policy: {self.compare_evict}")


@dataclass
class EstimatorStats:
    """Observability counters for experiments and tests.

    These are the four-bit events: white-bit gated insertion attempts,
    compare-bit queries and their outcomes, pin-protected evictions, and
    the two ETX sample streams (ack bit / beacons).
    """

    beacons_sent: int = 0
    beacons_received: int = 0
    #: Beacons re-received with an already-seen ``le_seq`` (dropped from the
    #: PRR window rather than counted as extra receptions).
    duplicate_beacons: int = 0
    inserts_free: int = 0
    inserts_compare: int = 0
    inserts_evict_worst: int = 0
    compare_queries: int = 0
    rejected_no_white: int = 0
    rejected_no_compare: int = 0
    rejected_all_pinned: int = 0
    unicast_samples: int = 0
    beacon_samples: int = 0
    #: Sequence gaps ≥ ``reboot_gap`` treated as a neighbor reboot (window
    #: *and* PRR history reset — stale pre-reboot PRR must not leak in).
    reboot_resets: int = 0

    #: Metric name prefix (``layer.component``) in the obs registry.
    METRICS_PREFIX = "est.estimator"


class HybridLinkEstimator(LinkEstimator):
    """Layer 2.5: wraps network frames, owns the table, computes hybrid ETX."""

    def __init__(
        self,
        mac: Mac,
        config: EstimatorConfig,
        rng: Random,
        compare_provider: Optional[CompareBitProvider] = None,
    ) -> None:
        self.mac = mac
        self.node_id = mac.node_id
        self.config = config
        self.rng = rng
        self.compare_provider = compare_provider
        self.client: Optional[EstimatorClient] = None
        self.table = NeighborTable(config.table_size, node_id=self.node_id)
        self.stats = EstimatorStats()
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        self._seq = 0
        self._footer_rr = 0
        mac.on_receive = self._mac_receive
        mac.on_send_done = self._mac_send_done

    # ------------------------------------------------------------------
    # LinkEstimator interface
    # ------------------------------------------------------------------
    def link_quality(self, neighbor: int) -> float:
        return self.table.etx.get(neighbor, _INF)

    def take_changed_neighbors(self) -> Collection[int]:
        table = self.table
        changed = table.changed
        if not changed:
            return ()
        table.changed = set()
        return changed

    def neighbors(self) -> List[int]:
        return self.table.addresses()

    def neighbor_qualities(self) -> ItemsView[int, float]:
        """The table's live ``(address, ETX)`` view (hot: every parent scan)."""
        return self.table.etx.items()

    def table_snapshot(self) -> List[Dict[str, object]]:
        """Debug/inspection view of the table (sorted by address).

        Each row carries the entry's address, pin bit, maturity, current
        ETX, measured inbound PRR, advertised reverse PRR, and window
        progress — the state a TinyOS developer would dump over serial.
        """
        rows: List[Dict[str, object]] = []
        for entry in sorted(self.table, key=lambda e: e.addr):
            rows.append(
                {
                    "addr": entry.addr,
                    "pinned": entry.pinned,
                    "mature": entry.mature,
                    "etx": entry.etx,
                    "prr_in": (
                        entry.prr_ewma.value
                        if entry.prr_ewma is not None and entry.prr_ewma.initialized
                        else None
                    ),
                    "prr_out": entry.prr_out,
                    "uni_window": (entry.uni_acked, entry.uni_total),
                    "beacon_window": (entry.beacon_received, entry.beacon_missed),
                }
            )
        return rows

    def pin(self, neighbor: int) -> bool:
        ok = self.table.pin(neighbor)
        if ok and self.probe is not None:
            self.probe.pin(self.node_id, neighbor)
        return ok

    def unpin(self, neighbor: int) -> bool:
        ok = self.table.unpin(neighbor)
        if ok and self.probe is not None:
            self.probe.unpin(self.node_id, neighbor)
        return ok

    def clear_pins(self) -> None:
        self.table.clear_pins()

    def reset_state(self) -> None:
        """Node reboot: lose all RAM state (table, sequence, footer rotation).

        Stats survive — they count events across the node's lifetime, the
        way a testbed's serial log would.
        """
        self.table.clear()
        self._seq = 0
        self._footer_rr = 0

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send(self, frame: NetworkFrame) -> bool:
        if self.mac.busy:
            return False
        footer: List[FooterEntry] = []
        if frame.is_broadcast:
            if self.config.send_footers:
                footer = self._next_footer()
            seq = self._seq
            self._seq = (self._seq + 1) % 256
        else:
            seq = self._seq
        wrapped = le_wrap(frame, seq, footer)
        accepted = self.mac.send(wrapped)
        if accepted and frame.is_broadcast:
            self.stats.beacons_sent += 1
        return accepted

    def _next_footer(self) -> List[FooterEntry]:
        """Rotating window of (neighbor, inbound PRR) advertisements."""
        entries = [e for e in self.table if e.prr_ewma is not None and e.prr_ewma.initialized]
        if not entries:
            return []
        entries.sort(key=lambda e: e.addr)
        count = min(LinkEstimatorFrame.MAX_FOOTER_ENTRIES, len(entries))
        start = self._footer_rr % len(entries)
        self._footer_rr += count
        picked = [entries[(start + i) % len(entries)] for i in range(count)]
        return [(e.addr, e.prr_ewma.value) for e in picked]

    def _mac_send_done(self, wrapped: Frame, result: TxResult) -> None:
        payload = wrapped.payload if isinstance(wrapped, LinkEstimatorFrame) else wrapped
        if (
            self.config.use_ack_stream
            and result.sent
            and not wrapped.is_broadcast
        ):
            self._update_unicast(result.dest, result.ack_bit)
        if self.client is not None:
            self.client.on_send_done(payload, result.sent, result.ack_bit)

    def _mac_receive(self, frame: Frame, info: RxInfo) -> None:
        if not isinstance(frame, LinkEstimatorFrame):
            return  # foreign stack
        if frame.dst == BROADCAST:
            self.stats.beacons_received += 1
            self._process_beacon(frame, info)
        if self.client is not None and frame.payload is not None:
            self.client.on_receive(frame.payload, info, frame.src)

    # ------------------------------------------------------------------
    # Ack-bit (unicast) stream
    # ------------------------------------------------------------------
    def _update_unicast(self, dest: int, acked: bool) -> None:
        entry = self.table.find(dest)
        if entry is None:
            return
        entry.uni_total += 1
        if acked:
            entry.uni_acked += 1
            entry.fails_since_last_ack = 0
        else:
            entry.fails_since_last_ack += 1
        if entry.uni_total >= self.config.ku:
            if entry.uni_acked > 0:
                sample = entry.uni_total / entry.uni_acked
            else:
                sample = float(entry.fails_since_last_ack)
            self._fold_etx_sample(entry, sample)
            self.stats.unicast_samples += 1
            entry.uni_total = 0
            entry.uni_acked = 0

    # ------------------------------------------------------------------
    # Beacon (broadcast) stream
    # ------------------------------------------------------------------
    def _process_beacon(self, frame: LinkEstimatorFrame, info: RxInfo) -> None:
        entry = self.table._entries.get(frame.src)
        if entry is None:
            entry = self._try_insert(frame, info)
            if entry is None:
                return
        self._update_beacon_window(entry, frame.le_seq)
        if frame.footer:  # 4B sends none
            self._process_footer(entry, frame)

    def _process_footer(self, entry: NeighborEntry, frame: LinkEstimatorFrame) -> None:
        for addr, quality in frame.footer:
            if addr != self.node_id:
                continue
            entry.prr_out = quality
            # A fresh reverse-direction report is new information for the
            # bidirectional estimate; fold it in if the forward side exists.
            if (
                self.config.bidirectional_beacons
                and entry.prr_ewma is not None
                and entry.prr_ewma.initialized
            ):
                sample = self._beacon_etx(entry)
                if sample is not None:
                    self._fold_etx_sample(entry, sample)

    def _update_beacon_window(self, entry: NeighborEntry, seq: int) -> None:
        if entry.last_seq is None:
            missed = 0
        else:
            gap = (seq - entry.last_seq) % 256
            if gap == 0:
                # Exact duplicate (same le_seq re-received): not a new
                # expected beacon, so counting it would inflate the PRR
                # window with receptions the sender never scheduled.
                self.stats.duplicate_beacons += 1
                return
            missed = gap - 1
        if missed >= self.config.reboot_gap:
            entry.beacon_received = 0
            entry.beacon_missed = 0
            # The neighbor rebooted (or was unreachable for an epoch): its
            # pre-gap reception history describes a link state that no
            # longer exists.  Keeping the old PRR EWMA would let the first
            # post-reboot window fold into stale history and over-report
            # PRR; the estimate must re-bootstrap from fresh windows.  The
            # reverse-direction advertisement is equally stale — the
            # rebooted neighbor lost the table slot it measured us with.
            entry.prr_ewma = None
            entry.prr_out = None
            self.stats.reboot_resets += 1
            missed = 0
        entry.last_seq = seq
        entry.beacon_received += 1
        entry.beacon_missed += missed
        entry.expected_since_insert += 1 + missed
        expected = entry.beacon_received + entry.beacon_missed
        if expected >= self.config.kb:
            prr = entry.beacon_received / expected
            if entry.prr_ewma is None:
                entry.prr_ewma = Ewma(self.config.alpha_beacon)
            entry.prr_ewma.update(prr)
            sample = self._beacon_etx(entry)
            if sample is not None:
                self._fold_etx_sample(entry, sample)
                self.stats.beacon_samples += 1
            entry.beacon_received = 0
            entry.beacon_missed = 0

    def _beacon_etx(self, entry: NeighborEntry) -> Optional[float]:
        """ETX sample from the beacon stream, or ``None`` when a bidirectional
        estimate is impossible (reverse PRR never advertised)."""
        assert entry.prr_ewma is not None
        prr = entry.prr_ewma.value
        if self.config.bidirectional_beacons:
            prr_out = entry.prr_out
            if prr_out is None:
                prr_out = self.config.default_prr_out
            if prr_out is None:
                return None
            prr = prr * prr_out
        if prr <= 0.0:
            return self.config.max_etx_sample
        return 1.0 / prr

    def _fold_etx_sample(self, entry: NeighborEntry, sample: float) -> None:
        cap = self.config.max_etx_sample
        if sample > cap:  # min(sample, cap) without the builtin call
            sample = cap
        ewma = entry.etx_ewma
        if ewma is None:
            ewma = entry.etx_ewma = Ewma(self.config.alpha_outer)
        before = ewma._value if ewma._initialized else None
        ewma.update(sample)
        if ewma._value != before:  # the quality view changed
            table = self.table
            table.etx[entry.addr] = ewma._value
            table.changed.add(entry.addr)

    # ------------------------------------------------------------------
    # Table insertion (white + compare bits)
    # ------------------------------------------------------------------
    def _try_insert(self, frame: LinkEstimatorFrame, info: RxInfo) -> Optional[NeighborEntry]:
        if not self.table.full:
            self.stats.inserts_free += 1
            return self._admit(frame.src, "free")
        if self.config.use_standard_replacement:
            entry = self._insert_evict_worst(frame)
            if entry is not None:
                return entry
        if self.config.use_white_compare:
            return self._insert_white_compare(frame, info)
        return None

    def _insert_evict_worst(self, frame: LinkEstimatorFrame) -> Optional[NeighborEntry]:
        """Standard Woo et al. policy: displace a *measurably* bad entry, or
        failing that, a stale immature one.

        Freshly inserted entries are protected until they either mature or
        age out (``immature_evict_expected``); evicting them on every
        newcomer would thrash the table before anything matures.
        """
        # One pass over the table computing both victim candidates (this
        # runs for every beacon from an unknown neighbor once the table is
        # full).  ``>`` keeps the first of equal keys, matching
        # ``max(..., key=...)``.  The pass reads the ETX view first: a
        # finite ETX means a mature entry, and one at or below the
        # threshold is neither candidate, so most entries cost one lookup.
        threshold = self.config.evict_etx_threshold
        stale_expected = self.config.immature_evict_expected
        entries = self.table._entries
        worst_bad = None
        worst_bad_key = None
        worst_stale = None
        worst_stale_key = None
        for addr, view_etx in self.table.etx.items():
            if view_etx <= threshold and view_etx != _INF:
                continue
            e = entries[addr]
            if e.pinned:
                continue
            ewma = e.etx_ewma
            if ewma is not None and ewma._initialized:
                etx = ewma._value
                if etx > threshold:
                    key = (etx, e.addr)
                    if worst_bad_key is None or key > worst_bad_key:
                        worst_bad, worst_bad_key = e, key
            elif e.expected_since_insert >= stale_expected:
                key = (e.expected_since_insert, e.addr)
                if worst_stale_key is None or key > worst_stale_key:
                    worst_stale, worst_stale_key = e, key
        victim = worst_bad if worst_bad is not None else worst_stale
        if victim is None:
            return None
        self.table.remove(victim.addr)
        self.table.evictions += 1
        self.stats.inserts_evict_worst += 1
        return self._admit(frame.src, "evict-worst")

    def _insert_white_compare(self, frame: LinkEstimatorFrame, info: RxInfo) -> Optional[NeighborEntry]:
        """4B policy (Section 3.3): white bit gates a compare-bit query; a set
        compare bit flushes a random unpinned entry."""
        payload = frame.payload
        if payload is None or not payload.carries_route_info:
            return None
        if self.config.require_white_bit and not info.white_bit:
            self.stats.rejected_no_white += 1
            self._reject(frame.src, "no-white")
            return None
        if self.compare_provider is None:
            return None
        self.stats.compare_queries += 1
        if not self.compare_provider.compare_bit(payload, info):
            self.stats.rejected_no_compare += 1
            self._reject(frame.src, "no-compare")
            return None
        # Entries still inside their evaluation window are off limits, as in
        # the standard policy: flushing them on every qualifying beacon would
        # thrash the table faster than anything can mature.
        eligible = lambda e: e.mature or (
            e.expected_since_insert >= self.config.immature_evict_expected
        )
        if self.config.compare_evict == "worst":
            pool = [
                e
                for e in self.table
                if eligible(e) and (not e.pinned or not self.config.honor_pin_bit)
            ]
            victim = max(pool, key=lambda e: (e.etx, e.addr)).addr if pool else None
            if victim is not None:
                self.table.remove(victim)
                self.table.evictions += 1
        elif self.config.honor_pin_bit:
            victim = self.table.evict_random_unpinned(self.rng, eligible)
        else:
            pool = [e.addr for e in self.table if eligible(e)]
            victim = self.rng.choice(pool) if pool else None
            if victim is not None:
                self.table.remove(victim)
                self.table.evictions += 1
        if victim is None:
            self.stats.rejected_all_pinned += 1
            self._reject(frame.src, "all-pinned")
            return None
        self.stats.inserts_compare += 1
        return self._admit(frame.src, "compare")

    def _admit(self, neighbor: int, mode: str) -> NeighborEntry:
        """Give ``neighbor`` a table slot; ``mode`` names the policy that did."""
        entry = self.table.insert(neighbor)
        if self.probe is not None:
            self.probe.est_insert(self.node_id, neighbor, mode)
        return entry

    def _reject(self, neighbor: int, reason: str) -> None:
        """Refuse ``neighbor`` a slot; ``reason`` names the bit that blocked it."""
        if self.probe is not None:
            self.probe.est_reject(self.node_id, neighbor, reason)
