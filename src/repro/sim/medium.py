"""Shared radio medium: propagation, carrier sense, collisions, capture.

Every transmission (data, beacons, acks) goes through the medium, and so
do the bursts of external interferers, which it reads from lazy schedules
(see :meth:`RadioMedium.advance_interferers`).  At the end of each
transmission the medium evaluates, for every candidate receiver, whether
the frame was decodable given

* the instantaneous channel gain (path loss + shadowing + temporal fading),
* the receiver's noise floor,
* interference from every other transmission overlapping in time (SINR).

Packets that decode are delivered upward with an :class:`~repro.sim.packets.RxInfo`
carrying the measured SINR, a sampled LQI and the derived white bit.

This is the simulator's hottest code: one reception evaluation per
candidate receiver per transmission.  :meth:`RadioMedium.finalize`
therefore precomputes a per-sender row of everything the evaluation loop
needs per receiver (mean gain, noise floor in mW and dB, modulation, the
pre-bound reception RNG stream and delivery callback).  None of the caches can
change results: they store pure functions of their inputs, and the
evaluation order and floating-point association of the original code are
preserved exactly (the golden test in ``tests/golden/`` enforces this).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Protocol, Tuple


from repro.link.frame import BROADCAST, AckFrame, Frame
from repro.phy.channel import ChannelModel
from repro.phy.lqi import DEFAULT_LQI_MODEL, LQI_MAX, LQI_MIN, _LQI_SPAN
from repro.phy.modulation import PRR_TABLE_SNR_MIN_CENTI, prr_grid
from repro.phy.radio import Radio, RadioParams
from repro.phy.white_bit import DEFAULT_WHITE_BIT, LqiWhiteBit, WhiteBitPolicy
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo
from repro.sim.rng import RngManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor

#: Mean-SNR margin (dB) below which a potential receiver is pruned from the
#: candidate list.  At −15 dB below the noise floor the reception probability
#: is indistinguishable from zero for any frame length.
_NEIGHBOR_SNR_CUTOFF_DB = -15.0

#: Finished transmissions older than this can no longer overlap anything
#: (far above the longest frame airtime).
_RECENT_HORIZON_S = 0.25

#: Prune the finished-transmission list only past this length; below it the
#: scan costs more than the dead entries it would reclaim.
_RECENT_PRUNE_LEN = 64

#: Sentinel for "this pair's Gilbert state has not been resolved yet"
#: (``None`` is a valid resolution: the pair is not bimodal).
_UNRESOLVED = object()

#: ``(start, end)`` of a burst that never comes: an exhausted schedule.
NO_BURST: Tuple[float, float] = (math.inf, math.inf)

_END = attrgetter("end")

#: Same constant the stdlib's ``random.gauss`` uses for Box–Muller.
_TWOPI = 2.0 * math.pi

#: The half-duplex busy set of a frame nothing overlapped.
_NOBODY: FrozenSet[int] = frozenset()

class MediumParticipant(Protocol):
    """What the medium needs from an attached entity.

    Delivery contract (both backends, DESIGN.md §6): the medium calls
    :meth:`on_frame_received` only for a decoded frame addressed to this
    node or broadcast.  An overheard frame, one decoded here but addressed
    to another node, makes every draw and counts in ``deliveries`` like any
    other decode, but is not handed up; when a probe is attached the medium
    itself emits its ``rx`` record (non-ack frames only), where the MAC
    would have emitted it, unless the participant's ``enabled`` attribute
    is false (a crashed MAC, which emits no ``rx`` record either).
    """

    node_id: int
    radio: Radio

    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:  # pragma: no cover
        ...


class BurstSource(Protocol):
    """What the medium needs from an external interferer (a transmit-only
    participant whose bursts nobody decodes; see :mod:`repro.phy.noise`)."""

    node_id: int
    radio: Radio
    #: ``(start, end)`` of the next burst not yet on the air.
    next_burst: Tuple[float, float]
    #: The bursts after ``next_burst``, in start order.
    schedule: Iterator[Tuple[float, float]]
    #: Bursts whose start the medium has passed.
    started_bursts: int

    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:  # pragma: no cover
        ...


class MediumFaultState:
    """Fault overlays the injector applies to the medium.

    Kept out of the hot path until enabled: ``RadioMedium._faults`` is
    ``None`` in fault-free runs, so the reception loop's single ``is None``
    check is the entire cost and results stay bit-identical.

    Blackouts are reference-counted per scope so overlapping windows nest
    correctly; quality shifts are cumulative dB offsets.  ``None`` scope
    arguments mean "all nodes" (see :class:`repro.faults.schedule`).
    """

    def __init__(self) -> None:
        self._blackout_all = 0
        self._blackout_nodes: Dict[int, int] = {}
        self._blackout_pairs: Dict[Tuple[int, int], int] = {}
        self._global_offset = 0.0
        self._node_offset: Dict[int, float] = {}
        self._pair_offset: Dict[Tuple[int, int], float] = {}
        #: Receptions suppressed by a blackout window (telemetry).
        self.blackout_drops = 0

    @staticmethod
    def _pair(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def blackout_start(self, a: Optional[int] = None, b: Optional[int] = None) -> None:
        if a is None and b is None:
            self._blackout_all += 1
        elif a is not None and b is not None:
            key = self._pair(a, b)
            self._blackout_pairs[key] = self._blackout_pairs.get(key, 0) + 1
        else:
            node = a if a is not None else b
            assert node is not None
            self._blackout_nodes[node] = self._blackout_nodes.get(node, 0) + 1

    def blackout_end(self, a: Optional[int] = None, b: Optional[int] = None) -> None:
        if a is None and b is None:
            self._blackout_all -= 1
        elif a is not None and b is not None:
            key = self._pair(a, b)
            self._blackout_pairs[key] -= 1
            if self._blackout_pairs[key] == 0:
                del self._blackout_pairs[key]
        else:
            node = a if a is not None else b
            assert node is not None
            self._blackout_nodes[node] -= 1
            if self._blackout_nodes[node] == 0:
                del self._blackout_nodes[node]

    def shift(self, delta_db: float, a: Optional[int] = None, b: Optional[int] = None) -> None:
        if a is None and b is None:
            self._global_offset += delta_db
        elif a is not None and b is not None:
            key = self._pair(a, b)
            self._pair_offset[key] = self._pair_offset.get(key, 0.0) + delta_db
        else:
            node = a if a is not None else b
            assert node is not None
            self._node_offset[node] = self._node_offset.get(node, 0.0) + delta_db

    def offset_for(self, sid: int, rid: int) -> Optional[float]:
        """Gain offset (dB) for the ``sid → rid`` link, or ``None`` while a
        blackout window covers it (the frame is undecodable)."""
        if self._blackout_all:
            return None
        nodes = self._blackout_nodes
        if nodes and (sid in nodes or rid in nodes):
            return None
        pairs = self._blackout_pairs
        if pairs and self._pair(sid, rid) in pairs:
            return None
        offset = self._global_offset
        node_off = self._node_offset
        if node_off:
            offset += node_off.get(sid, 0.0) + node_off.get(rid, 0.0)
        pair_off = self._pair_offset
        if pair_off:
            offset += pair_off.get(self._pair(sid, rid), 0.0)
        return offset


class _Transmission:
    """One frame on the air, or an interferer burst (``frame`` is ``None``)."""

    __slots__ = ("sender", "frame", "power_dbm", "start", "end")

    def __init__(
        self, sender: int, frame: Optional[Frame], power_dbm: float, start: float, end: float
    ) -> None:
        self.sender = sender
        self.frame = frame
        self.power_dbm = power_dbm
        self.start = start
        self.end = end


class RadioMedium:
    """The shared channel all attached radios transmit into."""

    def __init__(
        self,
        engine: Engine,
        channel: ChannelModel,
        rng: RngManager,
        white_bit_policy: WhiteBitPolicy = DEFAULT_WHITE_BIT,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.white_bit_policy = white_bit_policy
        self._rng = rng
        self._participants: Dict[int, MediumParticipant] = {}
        self._receivers: Dict[int, MediumParticipant] = {}
        #: Transmissions on the air, sorted by ``start``.
        self._active: List[_Transmission] = []
        #: Finished transmissions young enough to still overlap something;
        #: appended at end time, so always sorted by ``end``.
        self._recent: List[_Transmission] = []
        #: Registered interferers, their bursts now in ``_active``, and the
        #: earliest time at which :meth:`advance_interferers` has work.
        self._interferers: List[BurstSource] = []
        self._bursts_on_air: List[_Transmission] = []
        self._interferer_horizon = math.inf
        #: sender → per-receiver hot-path rows; see :meth:`finalize`.
        self._rx_rows: Dict[int, list] = {}
        self._finalized = False
        #: Fault overlay; ``None`` until a fault injector enables it.
        self._faults: Optional[MediumFaultState] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        # Statistics.
        self._transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        #: Deliveries whose white bit came back set (phy-layer telemetry).
        self.white_bits_set = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach(self, participant: MediumParticipant, receiver: bool = True) -> None:
        """Register a participant.  ``receiver=False`` for interference-only
        transmitters (they never decode frames).

        The medium is static after :meth:`finalize` (DESIGN.md §9): an
        attach after it re-opens the medium, and the next use re-finalizes
        from scratch.  Such a node needs its channel position registered
        first (``channel.add_position``), so this raises ``RuntimeError``
        for an unlocated one rather than fail at the next use.
        """
        nid = participant.node_id
        if nid in self._participants:
            raise ValueError(f"node {nid} already attached")
        if self._finalized and nid not in self.channel.positions:
            raise RuntimeError(
                f"attach after finalize: node {nid} has no channel position; "
                "call channel.add_position first"
            )
        self._participants[nid] = participant
        if receiver:
            self._receivers[nid] = participant
        self._finalized = False

    def add_interferer(self, source: BurstSource) -> None:
        """Register an external interferer: a transmit-only participant
        whose bursts the medium pulls from ``source.schedule`` once the
        source calls :meth:`interferer_started`."""
        self.attach(source, receiver=False)
        self._interferers.append(source)

    def interferer_started(self, source: BurstSource) -> None:
        """``source`` set its first ``next_burst``: read it from then on."""
        self._interferer_horizon = min(self._interferer_horizon, source.next_burst[0])

    def enable_faults(self) -> MediumFaultState:
        """Install (or return the existing) fault overlay state."""
        if self._faults is None:
            self._faults = MediumFaultState()
        return self._faults

    def finalize(self) -> None:
        """Precompute candidate receiver lists from mean channel gains.

        Must be called after all participants are attached and transmit
        powers are set, before the simulation starts.  It builds one row
        per candidate receiver (mean SNR above the cutoff) with everything
        the reception loop needs — noise floor in mW and as the
        precomputed ``10·log10`` dB value, the receiver's modulation, its
        pre-bound ``rx`` RNG stream and delivery callback — so the per-
        reception cost is a single tuple unpack.

        Idempotent: a second call with no interleaving :meth:`attach` is a
        no-op.  Rebuilding mid-run would discard the cached per-pair
        OU/Gilbert state slots in the hot-path rows (and any other state a
        backend hangs off them), silently perturbing the random sequence —
        and ``candidate_receivers()`` / ``start_transmission()`` finalize
        implicitly, so an explicit late call must be harmless.
        """
        if self._finalized:
            return
        self._rx_rows = {}
        stream = self._rng.stream
        for sid, sender in self._participants.items():
            ptx = sender.radio.effective_tx_power_dbm
            rx_row: list = []
            for rid, receiver in self._receivers.items():
                if rid == sid:
                    continue
                gain = self.channel.mean_gain_db(sid, rid)
                mean_snr = ptx + gain - receiver.radio.noise_floor_dbm
                if mean_snr >= _NEIGHBOR_SNR_CUTOFF_DB:
                    noise_mw = 10.0 ** (receiver.radio.noise_floor_dbm / 10.0)
                    rx_stream = stream("rx", rid)
                    # A mutable list, not a tuple: the last two slots cache
                    # the pair's resolved OU / Gilbert state objects once
                    # the channel creates them (see _evaluate_receptions).
                    # The participant is stored (not its bound callback),
                    # so delivery late-binds on_frame_received.
                    rx_row.append(
                        [
                            rid,
                            gain,
                            (sid, rid) if sid <= rid else (rid, sid),
                            noise_mw,
                            10.0 * math.log10(noise_mw),
                            receiver.radio.params.modulation,
                            rx_stream,
                            receiver,
                            rx_stream.random,
                            None,  # _OUState, resolved on first query
                            _UNRESOLVED,  # _GilbertState or None, ditto
                        ]
                    )
            self._rx_rows[sid] = rx_row
        self._finalized = True

    def candidate_receivers(self, sender: int) -> List[Tuple[int, float]]:
        """(receiver, mean gain dB) pairs reachable from ``sender``."""
        if not self._finalized:
            self.finalize()
        return [(row[0], row[1]) for row in self._rx_rows.get(sender, ())]

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def channel_clear(self, node_id: int) -> bool:
        """CCA at ``node_id``: no active transmission above the threshold.

        Raises :class:`ValueError` for a node id that was never attached —
        a bare ``KeyError`` here historically meant "some dict lookup deep
        in the medium broke", which is indistinguishable from a logic bug
        when e.g. a ``repro.faults`` crash wiped a component's state and it
        kept polling the channel.
        """
        listener = self._participants.get(node_id)
        if listener is None:
            raise ValueError(
                f"channel_clear: node {node_id} is not attached to the medium"
            )
        now = self.engine.now
        if now >= self._interferer_horizon:
            self.advance_interferers()
        active = self._active
        if not active:
            return True
        threshold = listener.radio.params.cca_threshold_dbm
        gain_db = self.channel.gain_db
        for tx in active:
            if tx.sender == node_id:
                continue
            if tx.power_dbm + gain_db(tx.sender, node_id, now) >= threshold:
                return False
        return True

    def is_transmitting(self, node_id: int) -> bool:
        return any(tx.sender == node_id for tx in self._active)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def start_transmission(self, sender_id: int, frame: Frame) -> float:
        """Put ``frame`` on the air; returns its airtime in seconds."""
        if self.probe is not None:
            self.probe.transmission_start(sender_id, frame)
        if not self._finalized:
            self.finalize()
        sender = self._participants[sender_id]
        params = sender.radio.params
        duration = params.airtime(frame.length_bytes)
        now = self.engine.now
        tx = _Transmission(sender_id, frame, sender.radio.effective_tx_power_dbm, now, now + duration)
        self._active.append(tx)
        self._transmissions += 1
        self.engine.schedule(duration, self._end_transmission, tx)
        return duration

    @property
    def transmissions(self) -> int:
        """Frames put on the air, plus interferer bursts started by now."""
        if self.engine.now >= self._interferer_horizon:
            self.advance_interferers()
        return self._transmissions

    def advance_interferers(self) -> None:
        """Bring the interferers' bursts on the air up to ``engine.now``.

        Called before every read of on-air state, so carrier sense and the
        overlap scan see what an event per burst start and end would have
        left in ``_active`` (sorted by start) and ``_recent`` (sorted by
        end).  Tie rule: a burst is on the air from ``start <= now`` and off
        it from ``end <= now``.  A burst that ended no later than the start
        of the earliest frame on the air (or than ``now``) can overlap no
        frame evaluated from here on, so it is counted but never listed.
        """
        now = self.engine.now
        if now < self._interferer_horizon:
            return
        active = self._active
        floor = now
        for tx in active:
            if tx.frame is not None:
                floor = tx.start
                break
        ended: List[_Transmission] = []
        on_air = self._bursts_on_air
        if on_air:
            still = []
            for tx in on_air:
                if tx.end <= now:
                    active.remove(tx)
                    if tx.end > floor:
                        ended.append(tx)
                else:
                    still.append(tx)
            self._bursts_on_air = on_air = still
        horizon = math.inf
        for source in self._interferers:
            start, end = source.next_burst
            if start <= now:
                sid = source.node_id
                power_dbm = source.radio.effective_tx_power_dbm
                schedule = source.schedule
                count = 0
                while start <= now:
                    count += 1
                    if end > floor:
                        tx = _Transmission(sid, None, power_dbm, start, end)
                        if end > now:
                            i = len(active)
                            while i and active[i - 1].start > start:
                                i -= 1
                            active.insert(i, tx)
                            on_air.append(tx)
                        else:
                            ended.append(tx)
                    start, end = next(schedule, NO_BURST)
                source.next_burst = (start, end)
                source.started_bursts += count
                self._transmissions += count
            if start < horizon:
                horizon = start
        for tx in on_air:
            if tx.end < horizon:
                horizon = tx.end
        self._interferer_horizon = horizon
        if ended:
            # These bursts ended after the previous call's ``now``, and all
            # of ``_recent`` had ended by then: appending keeps it sorted.
            ended.sort(key=_END)
            self._recent.extend(ended)

    def _end_transmission(self, tx: _Transmission) -> None:
        if self.engine.now >= self._interferer_horizon:
            self.advance_interferers()
        self._active.remove(tx)
        self._recent.append(tx)
        self._evaluate_receptions(tx)
        self._prune_recent()

    def _prune_recent(self) -> None:
        # Keep only transmissions that could still overlap something active.
        # Trigger on length (bursty traffic) *or* on the oldest entry having
        # aged past the horizon (low-traffic long runs would otherwise pin
        # up to _RECENT_PRUNE_LEN stale transmissions — and their frames —
        # indefinitely).  ``_recent`` is sorted by end time, so the age
        # check is O(1) and the stale entries are exactly a prefix, which
        # is dropped.  Pruned entries can never overlap a later frame, so
        # results are untouched either way.
        recent = self._recent
        if not recent:
            return
        horizon = self.engine.now - _RECENT_HORIZON_S
        if len(recent) <= _RECENT_PRUNE_LEN and recent[0].end >= horizon:
            return
        lo, hi = 0, len(recent)
        while lo < hi:
            mid = (lo + hi) // 2
            if recent[mid].end < horizon:
                lo = mid + 1
            else:
                hi = mid
        del recent[:lo]

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _overlapping(self, tx: _Transmission) -> List[_Transmission]:
        """All other transmissions overlapping ``tx`` in time."""
        tx_start = tx.start
        tx_end = tx.end
        out = []
        for other in self._active:
            if other is not tx and other.start < tx_end and other.end > tx_start:
                out.append(other)
        # ``_recent`` is sorted by end time: binary-search the first entry
        # with ``end > tx.start`` and scan only that suffix.
        recent = self._recent
        lo, hi = 0, len(recent)
        while lo < hi:
            mid = (lo + hi) // 2
            if recent[mid].end > tx_start:
                hi = mid
            else:
                lo = mid + 1
        for i in range(lo, len(recent)):
            other = recent[i]
            if other is not tx and other.start < tx_end:
                out.append(other)
        return out

    def _evaluate_receptions(self, tx: _Transmission) -> None:
        frame = tx.frame
        assert frame is not None  # interferer bursts are never evaluated
        if not self._finalized:
            self.finalize()
        overlapping = self._overlapping(tx)
        t = tx.end
        sender_id = tx.sender
        sender = self._participants[sender_id]
        power_dbm = tx.power_dbm
        params: RadioParams = sender.radio.params
        frame_bytes = frame.length_bytes + params.phy_overhead_bytes
        channel = self.channel
        # ---- hoisted channel state -----------------------------------
        # The OU advance, Gilbert dwell replay, and Gaussian draw below are
        # ChannelModel._temporal_for / ._fade_for / random.Random.gauss
        # inlined (those remain the source of truth — the lazy first-query
        # initialization still goes through them, and the state objects
        # and ``gauss_next`` spare are shared, so interleaving
        # with the out-of-line versions stays bit-identical.  The golden
        # test in tests/golden/ enforces this).
        has_temporal = channel.temporal_sigma_db > 0.0
        has_fade = channel.bimodal_fraction > 0.0
        temporal_for = channel._temporal_for
        fade_for = channel._fade_for
        ou_map = channel._ou
        gilbert_map = channel._gilbert
        ou_freeze = channel._ou_freeze_s
        ou_tau = channel.temporal_tau_s
        ou_sigma = channel.temporal_sigma_db
        fade_depth = channel.fade_depth_db
        inv_fade_dwell = 1.0 / channel.fade_dwell_s
        inv_good_dwell = 1.0 / channel.good_dwell_s
        gain_db = channel.gain_db
        # ---- hoisted LQI model / white-bit policy --------------------
        lqi_mid = DEFAULT_LQI_MODEL.midpoint_snr_db
        lqi_slope = DEFAULT_LQI_MODEL.slope_db
        lqi_sigma = DEFAULT_LQI_MODEL.noise_sigma
        policy = self.white_bit_policy
        wb_threshold = policy.threshold if type(policy) is LqiWhiteBit else None
        white_eval = policy.evaluate
        # ---- quantized PRR table (== prr_fast), fetched per modulation --
        prr_mod: Optional[str] = None
        prr_tab: Tuple[float, ...] = ()
        prr_offset = -PRR_TABLE_SNR_MIN_CENTI
        # ---- addressed delivery (see MediumParticipant) ---------------
        dst = frame.dst
        to_all = dst == BROADCAST
        probe = self.probe
        overheard_rx = probe.rx if probe is not None and not frame.is_ack else None
        log10 = math.log10
        exp = math.exp
        log = math.log
        sqrt = math.sqrt
        sin = math.sin
        cos = math.cos
        rx_info_new = RxInfo.__new__
        faults = self._faults
        # Half duplex: a node transmitting during any part of the frame
        # cannot receive it.  Every such transmission overlaps ``tx`` in
        # time, so the senders of ``overlapping`` are exactly the busy nodes.
        busy = {other.sender for other in overlapping} if overlapping else _NOBODY
        for row in self._rx_rows[sender_id]:
            (
                rid,
                mean_gain,
                pair_key,
                noise_mw,
                noise_db,
                modulation,
                stream,
                receiver,
                rx_random,
                ou_state,
                gilbert_state,
            ) = row
            if rid in busy:
                continue
            # ---- time-varying gain (== instantaneous_extra_db) -------
            if has_temporal:
                if ou_state is None:
                    extra = temporal_for(pair_key, t)
                    row[9] = ou_map[pair_key]
                else:
                    dt = t - ou_state.t
                    if dt > ou_freeze:
                        decay = exp(-dt / ou_tau)
                        innovation_sigma = ou_sigma * sqrt(max(0.0, 1.0 - decay * decay))
                        s = ou_state.stream
                        z = s.gauss_next
                        s.gauss_next = None
                        if z is None:
                            x2pi = s.random() * _TWOPI
                            g2rad = sqrt(-2.0 * log(1.0 - s.random()))
                            z = cos(x2pi) * g2rad
                            s.gauss_next = sin(x2pi) * g2rad
                        ou_state.x = ou_state.x * decay + (0.0 + z * innovation_sigma)
                        ou_state.t = t
                    extra = ou_state.x
            else:
                extra = 0.0
            if has_fade:
                if gilbert_state is _UNRESOLVED:
                    extra += fade_for(pair_key, t)
                    row[10] = gilbert_map[pair_key]
                elif gilbert_state is None:
                    extra += 0.0
                else:
                    s = gilbert_state.stream
                    state_t = gilbert_state.t
                    faded = gilbert_state.faded
                    while True:
                        # Random.expovariate written out (same float ops).
                        dwell = -log(1.0 - s.random()) / (inv_fade_dwell if faded else inv_good_dwell)
                        if state_t + dwell > t:
                            break
                        state_t += dwell
                        faded = not faded
                    gilbert_state.t = state_t
                    gilbert_state.faded = faded
                    extra += -fade_depth if faded else 0.0
            gain = mean_gain + extra
            if faults is not None:
                fault_offset = faults.offset_for(sender_id, rid)
                if fault_offset is None:
                    # Blackout window: the frame is undecodable here, but
                    # only *after* the RNG-free checks above — the channel
                    # state replay already happened, so post-blackout draws
                    # line up with an unfaulted timeline.
                    faults.blackout_drops += 1
                    continue
                if fault_offset != 0.0:
                    gain += fault_offset
            rssi = power_dbm + gain
            if overlapping:
                interference_mw = 0.0
                for other in overlapping:
                    other_rssi = other.power_dbm + gain_db(other.sender, rid, t)
                    interference_mw += 10.0 ** (other_rssi / 10.0)
                sinr_db = rssi - 10.0 * log10(noise_mw + interference_mw)
            else:
                interference_mw = 0.0
                sinr_db = rssi - noise_db
            # ---- decode decision (== prr_fast) ------------------------
            if sinr_db >= 25.0:
                prr = 1.0
            elif sinr_db <= -8.0:
                prr = 0.0
            else:
                if modulation is not prr_mod:
                    prr_tab = prr_grid(modulation, frame_bytes)
                    prr_mod = modulation
                prr = prr_tab[round(sinr_db * 100.0) + prr_offset]
            if rx_random() >= prr:
                if interference_mw > noise_mw:
                    self.collisions += 1
                continue
            # ---- LQI sample (== LqiModel.sample) ----------------------
            z = stream.gauss_next
            stream.gauss_next = None
            if z is None:
                x2pi = rx_random() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - rx_random()))
                z = cos(x2pi) * g2rad
                stream.gauss_next = sin(x2pi) * g2rad
            value = (
                LQI_MIN
                + _LQI_SPAN / (1.0 + exp(-(sinr_db - lqi_mid) / lqi_slope))
                + (0.0 + z * lqi_sigma)
            )
            # == int(round(min(max(value, LQI_MIN), LQI_MAX)))
            if value <= LQI_MIN:
                lqi = LQI_MIN
            elif value >= LQI_MAX:
                lqi = LQI_MAX
            else:
                lqi = round(value)
            white = lqi >= wb_threshold if wb_threshold is not None else white_eval(sinr_db, lqi)
            self.deliveries += 1
            if white:
                self.white_bits_set += 1
            addressed = to_all or rid == dst
            if not addressed and overheard_rx is None:
                continue
            # RxInfo is a frozen dataclass; built the regular way each field
            # pays an ``object.__setattr__`` call.  Populating ``__dict__``
            # directly is byte-equivalent (the lqi range check is vacuous:
            # the sample above is clamped to [LQI_MIN, LQI_MAX]).
            info = rx_info_new(RxInfo)
            info.__dict__.update(
                timestamp=t, rssi_dbm=rssi, snr_db=sinr_db, lqi=lqi, white_bit=white
            )
            if addressed:
                receiver.on_frame_received(frame, info)
            elif overheard_rx is not None and getattr(receiver, "enabled", True):
                overheard_rx(rid, frame, info)


__all__ = ["RadioMedium", "MediumParticipant", "AckFrame"]
