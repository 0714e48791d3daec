"""Shared radio medium: propagation, carrier sense, collisions, capture.

Every transmission (data, beacons, acks, interference bursts) goes through
the medium.  At the end of each transmission the medium evaluates, for every
candidate receiver, whether the frame was decodable given

* the instantaneous channel gain (path loss + shadowing + temporal fading),
* the receiver's noise floor,
* interference from every other transmission overlapping in time (SINR).

Packets that decode are delivered upward with an :class:`~repro.sim.packets.RxInfo`
carrying the measured SINR, a sampled LQI and the derived white bit.

This is the simulator's hottest code: one reception evaluation per
candidate receiver per transmission.  :meth:`RadioMedium.finalize`
therefore precomputes a per-sender row of everything the evaluation loop
needs per receiver (mean gain, noise floor in mW and dB, modulation, the
pre-bound reception RNG stream and delivery callback), transmissions are
indexed by sender for the half-duplex check, and dBm→mW conversions go
through a bounded value cache.  None of the caches can change results:
they store pure functions of their inputs, and the evaluation order and
floating-point association of the original code are preserved exactly
(the golden test in ``tests/golden/`` enforces this).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple


from repro.link.frame import AckFrame, Frame, JamFrame
from repro.phy.channel import _CACHE_MAX as _CHANNEL_CACHE_MAX
from repro.phy.channel import ChannelModel
from repro.phy.lqi import DEFAULT_LQI_MODEL, LQI_MAX, LQI_MIN, LqiModel, _LQI_SPAN
from repro.phy.modulation import _prr_quantized
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

#: Same constant the stdlib's ``random.gauss`` uses for Box–Muller.
_TWOPI = 2.0 * math.pi

#: Bounded memo for the dBm→mW conversion: every entry is a pure function
#: of its key, so carried state can never change results across runs.
_MW_PER_DBM_CACHE: Dict[float, float] = {}  # lint: disable=worker-state

#: RSSI values are nearly-unique floats, so the conversion cache is bounded:
#: past this size new keys are converted without being stored (identical
#: result, no growth).
_MW_CACHE_MAX = 8192


def _dbm_to_mw(dbm: float) -> float:
    mw = _MW_PER_DBM_CACHE.get(dbm)
    if mw is None:
        mw = 10.0 ** (dbm / 10.0)
        if len(_MW_PER_DBM_CACHE) < _MW_CACHE_MAX:
            _MW_PER_DBM_CACHE[dbm] = mw
    return mw


class MediumParticipant(Protocol):
    """What the medium needs from an attached entity."""

    node_id: int
    radio: Radio

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
    __slots__ = ("sender", "frame", "power_dbm", "start", "end")

    def __init__(self, sender: int, frame: Frame, power_dbm: float, start: float, end: float) -> None:
        self.sender = sender
        self.frame = frame
        self.power_dbm = power_dbm
        self.start = start
        self.end = end


class RadioMedium:
    """The shared channel all attached radios transmit into."""

    #: Whether structural changes after :meth:`finalize` (attach / detach /
    #: :meth:`update_position`) are patched incrementally.  This backend
    #: rebuilds instead — O(N·k) per change, correct but slow; the fast
    #: backend overrides with O(k) in-place patching (DESIGN.md §11).
    supports_incremental = False

    def __init__(
        self,
        engine: Engine,
        channel: ChannelModel,
        rng: RngManager,
        lqi_model: LqiModel = DEFAULT_LQI_MODEL,
        white_bit_policy: WhiteBitPolicy = DEFAULT_WHITE_BIT,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.lqi_model = lqi_model
        self.white_bit_policy = white_bit_policy
        self._rng = rng
        self._participants: Dict[int, MediumParticipant] = {}
        self._receivers: Dict[int, MediumParticipant] = {}
        self._active: List[_Transmission] = []
        #: Finished transmissions young enough to still overlap something;
        #: appended at end time, so always sorted by ``end``.
        self._recent: List[_Transmission] = []
        #: sender → its transmissions still in ``_active`` or ``_recent``
        #: (the half-duplex check scans only this).
        self._tx_by_sender: Dict[int, List[_Transmission]] = {}
        #: sender -> [(receiver, cached mean gain dB)] candidate lists.
        self._candidates: Dict[int, List[Tuple[int, float]]] = {}
        #: sender → per-receiver hot-path rows; see :meth:`finalize`.
        self._rx_rows: Dict[int, list] = {}
        self._finalized = False
        #: Fault overlay; ``None`` until a fault injector enables it.
        self._faults: Optional[MediumFaultState] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        # Statistics.
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        #: Deliveries whose white bit came back set (phy-layer telemetry).
        self.white_bits_set = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach(self, participant: MediumParticipant, receiver: bool = True) -> None:
        """Register a participant.  ``receiver=False`` for interference-only
        transmitters (they never decode frames)."""
        nid = participant.node_id
        if nid in self._participants:
            raise ValueError(f"node {nid} already attached")
        self._participants[nid] = participant
        if receiver:
            self._receivers[nid] = participant
        self._finalized = False

    def detach(self, node_id: int) -> None:
        """Remove a participant (a crashed node goes dark at the medium).

        The node's channel position is kept: pair identity (shadowing,
        fading state) survives a crash/reboot cycle, and an in-flight
        transmission from the departing node still interferes.  This
        backend marks the candidate structure for a lazy full rebuild;
        the fast backend patches incrementally.
        """
        if node_id not in self._participants:
            raise ValueError(f"detach: node {node_id} is not attached to the medium")
        del self._participants[node_id]
        self._receivers.pop(node_id, None)
        self._finalized = False

    def update_position(self, node_id: int, x: float, y: float) -> None:
        """Move a node, re-deriving path loss from the new position.

        Shadowing and fading state are pair-identity-keyed and survive the
        move (DESIGN.md §11).  This backend invalidates the whole candidate
        structure and rebuilds lazily — the O(N·k) reference semantics the
        fast backend's O(k) incremental patching must match.
        """
        self.channel.update_position(node_id, (x, y))
        self._finalized = False

    def enable_faults(self) -> MediumFaultState:
        """Install (or return the existing) fault overlay state."""
        if self._faults is None:
            self._faults = MediumFaultState()
        return self._faults

    def finalize(self) -> None:
        """Precompute candidate receiver lists from mean channel gains.

        Must be called after all participants are attached and transmit
        powers are set, before the simulation starts.  Besides the public
        (receiver, mean gain) lists this builds one row per candidate with
        everything the reception loop needs — noise floor in mW and as the
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
        self._candidates = {}
        self._rx_rows = {}
        stream = self._rng.stream
        for sid, sender in self._participants.items():
            ptx = sender.radio.effective_tx_power_dbm
            row: List[Tuple[int, float]] = []
            rx_row: list = []
            for rid, receiver in self._receivers.items():
                if rid == sid:
                    continue
                gain = self.channel.mean_gain_db(sid, rid)
                mean_snr = ptx + gain - receiver.radio.noise_floor_dbm
                if mean_snr >= _NEIGHBOR_SNR_CUTOFF_DB:
                    row.append((rid, gain))
                    noise_mw = _dbm_to_mw(receiver.radio.noise_floor_dbm)
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
            self._candidates[sid] = row
            self._rx_rows[sid] = rx_row
        self._finalized = True

    def candidate_receivers(self, sender: int) -> List[Tuple[int, float]]:
        """(receiver, mean gain dB) pairs reachable from ``sender``."""
        if not self._finalized:
            self.finalize()
        return self._candidates.get(sender, [])

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
        active = self._active
        if not active:
            return True
        threshold = listener.radio.params.cca_threshold_dbm
        now = self.engine.now
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
        own = self._tx_by_sender.get(sender_id)
        if own is None:
            own = self._tx_by_sender[sender_id] = []
        own.append(tx)
        self.transmissions += 1
        self.engine.schedule(duration, self._end_transmission, tx)
        return duration

    def _end_transmission(self, tx: _Transmission) -> None:
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
        # check is O(1) and the stale entries are exactly a prefix: drop
        # that prefix and remove each dropped transmission from its
        # sender's list, so the cost is amortized O(1) per transmission
        # instead of a full rebuild of every per-sender list on each
        # trigger.  Pruned entries can never overlap a later frame, so
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
        if lo == 0:
            return
        by_sender = self._tx_by_sender
        for tx in recent[:lo]:
            by_sender[tx.sender].remove(tx)
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
        if isinstance(frame, JamFrame):
            return  # nobody decodes interference
        if not self._finalized:
            self.finalize()
        overlapping = self._overlapping(tx)
        t = tx.end
        sender_id = tx.sender
        sender = self._participants.get(sender_id)
        if sender is None:
            return  # sender detached (crashed) mid-flight: the frame dies with it
        power_dbm = tx.power_dbm
        params: RadioParams = sender.radio.params
        frame_bytes = frame.length_bytes + params.phy_overhead_bytes
        channel = self.channel
        # ---- hoisted channel state -----------------------------------
        # The OU advance, Gilbert dwell replay, and Gaussian draw below are
        # ChannelModel._temporal_for / ._fade_for / random.Random.gauss
        # inlined (those remain the source of truth — the lazy first-query
        # initialization still goes through them, and the state objects,
        # decay cache and ``gauss_next`` spare are shared, so interleaving
        # with the out-of-line versions stays bit-identical.  The golden
        # test in tests/golden/ enforces this).
        has_temporal = channel.temporal_sigma_db > 0.0
        has_fade = channel.bimodal_fraction > 0.0
        temporal_for = channel._temporal_for
        fade_for = channel._fade_for
        ou_map = channel._ou
        gilbert_map = channel._gilbert
        decay_map = channel._decay
        decay_get = decay_map.get
        decay_cache_max = _CHANNEL_CACHE_MAX
        ou_freeze = channel._ou_freeze_s
        ou_tau = channel.temporal_tau_s
        ou_sigma = channel.temporal_sigma_db
        fade_depth = channel.fade_depth_db
        inv_fade_dwell = 1.0 / channel.fade_dwell_s
        inv_good_dwell = 1.0 / channel.good_dwell_s
        gain_db = channel.gain_db
        dbm_to_mw = _dbm_to_mw
        # ---- hoisted LQI model / white-bit policy --------------------
        lqi_model = self.lqi_model
        lqi_mid = lqi_model.midpoint_snr_db
        lqi_slope = lqi_model.slope_db
        lqi_sigma = lqi_model.noise_sigma
        policy = self.white_bit_policy
        wb_threshold = policy.threshold if type(policy) is LqiWhiteBit else None
        white_eval = policy.evaluate
        prr_q = _prr_quantized
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
        busy = {other.sender for other in overlapping}
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
                        cached = decay_get(dt)
                        if cached is None:
                            decay = exp(-dt / ou_tau)
                            cached = (decay, ou_sigma * sqrt(max(0.0, 1.0 - decay * decay)))
                            if len(decay_map) < decay_cache_max:
                                decay_map[dt] = cached
                        s = ou_state.stream
                        z = s.gauss_next
                        s.gauss_next = None
                        if z is None:
                            x2pi = s.random() * _TWOPI
                            g2rad = sqrt(-2.0 * log(1.0 - s.random()))
                            z = cos(x2pi) * g2rad
                            s.gauss_next = sin(x2pi) * g2rad
                        ou_state.x = ou_state.x * cached[0] + (0.0 + z * cached[1])
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
                        dwell = s.expovariate(inv_fade_dwell if faded else inv_good_dwell)
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
                    interference_mw += dbm_to_mw(other_rssi)
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
                prr = prr_q(modulation, round(sinr_db * 100.0), frame_bytes)
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
            lqi = int(round(min(max(value, LQI_MIN), LQI_MAX)))
            white = lqi >= wb_threshold if wb_threshold is not None else white_eval(sinr_db, lqi)
            # RxInfo is a frozen dataclass; built the regular way each field
            # pays an ``object.__setattr__`` call.  Populating ``__dict__``
            # directly is byte-equivalent (the lqi range check is vacuous:
            # the sample above is clamped to [LQI_MIN, LQI_MAX]).
            info = rx_info_new(RxInfo)
            info.__dict__.update(
                timestamp=t, rssi_dbm=rssi, snr_db=sinr_db, lqi=lqi, white_bit=white
            )
            self.deliveries += 1
            if white:
                self.white_bits_set += 1
            receiver.on_frame_received(frame, info)

    def _was_transmitting(self, node_id: int, start: float, end: float) -> bool:
        own = self._tx_by_sender.get(node_id)
        if own:
            for tx in own:
                if tx.start < end and tx.end > start:
                    return True
        return False


__all__ = ["RadioMedium", "MediumParticipant", "AckFrame"]
