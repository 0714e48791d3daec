"""Vectorized radio medium: SoA reception batches + spatial culling.

:class:`FastRadioMedium` is the opt-in ``fast`` backend selected with
``SimConfig(medium="fast")``.  It keeps the exact medium's public contract
(attach/finalize/candidate_receivers/channel_clear/start_transmission,
the same counters, the same fault overlay) but restructures the hot path:

* **Structure-of-arrays batches.**  ``finalize()`` lowers each sender's
  per-candidate rows into parallel numpy arrays (mean gain, noise floor in
  mW and dB, pair-state slot indices), and ``_evaluate_receptions``
  computes the whole candidate set of a transmission with array kernels
  from :mod:`repro.phy.vector` — one OU advance, one Gilbert transition,
  one SNR→PRR gather, one decode draw — instead of a Python loop.
* **Spatial culling.**  A :class:`~repro.sim.spatial.SpatialGrid` over the
  channel positions bounds candidate construction, carrier sense and
  interference accumulation to nodes within the link budget's reach, so
  far-away nodes are never enumerated: candidate construction is O(N·k)
  in the number of in-range neighbors k, not O(N²).
* **Incremental maintenance** (DESIGN.md §11).  After ``finalize()`` the
  structure is patched in place instead of rebuilt: ``attach``/``detach``/
  ``update_position`` re-bucket the moved node in the grid, bump a global
  *epoch*, and mark the node plus its old and new neighbors stale.  A
  sender's SoA batch carries the epoch it was built at and is lazily
  rebuilt — O(k), one sender — the next time that sender transmits or
  carrier-senses.  Per-pair channel-state slots are allocated on first
  in-range contact and recycled through a free list when a pair drifts
  out of range, so a 10k-node mobile run never allocates O(N²) slots.
  Cached dense interference vectors are invalidated per affected
  interferer only.  Everything stays O(k) per structural event.

**Equivalence contract** (DESIGN.md §9): the fast backend is
*distribution-equivalent* to the exact scalar path, not bit-identical.
The channel processes (OU recurrence, Gilbert two-state chain), PRR
quantization, LQI logistic and white-bit rule are mathematically the same
— PRR table entries are byte-identical — but randomness comes from numpy
``Generator`` streams (seeded from the master seed via the same
``derive_seed`` scheme as the exact path's named streams), carrier sense
uses the mean link gain, and interference uses mean-field gains with a
Jensen correction rather than advancing the interferer pair's fading
state.  The exact backend (``medium="exact"``, the default) remains the
bit-identical golden/bench ``--compare`` contract.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.random import Generator, PCG64

from repro.link.frame import JamFrame
from repro.phy.channel import ChannelModel
from repro.phy.lqi import DEFAULT_LQI_MODEL, LqiModel
from repro.phy.radio import RadioParams
from repro.phy.vector import (
    gilbert_advance,
    lqi_sample,
    mean_field_extra_db,
    ou_advance,
    prr_lookup,
    prr_table,
)
from repro.phy.white_bit import DEFAULT_WHITE_BIT, LqiWhiteBit, WhiteBitPolicy
from repro.sim.engine import Engine
from repro.sim.medium import (
    _NEIGHBOR_SNR_CUTOFF_DB,
    RadioMedium,
    _Transmission,
)
from repro.sim.packets import RxInfo
from repro.sim.rng import RngManager, derive_seed
from repro.sim.spatial import SpatialGrid

#: Shadowing headroom (in sigmas) added to the link budget when sizing the
#: spatial query radius: a pair outside the radius is mis-culled only when
#: its shadowing draw exceeds this many sigmas (P ≈ 3·10⁻⁵ at 4σ).
DEFAULT_SHADOW_MARGIN_SIGMAS = 4.0

#: Bound on the total number of cached dense interference vectors
#: (entries across all per-interferer sub-dicts).
_INTER_CACHE_MAX = 65536

_MISSING = object()


class _SenderBatch:
    """Per-sender structure-of-arrays candidate block."""

    __slots__ = (
        "rids",
        "rid_list",
        "receivers",
        "mean_gain",
        "noise_mw",
        "noise_db",
        "pair_idx",
        "mod_uniform",
        "mod_ids",
        "mod_names",
        "n",
        "all_idx",
        "rid_dense",
        "cca_heard",
        "epoch",
    )

    def __init__(
        self,
        rids: Any,
        rid_list: List[int],
        receivers: List[Any],
        mean_gain: Any,
        noise_mw: Any,
        noise_db: Any,
        pair_idx: Any,
        mod_uniform: Optional[str],
        mod_ids: Any,
        mod_names: List[str],
        rid_dense: Any,
        cca_heard: frozenset,
        epoch: int,
    ) -> None:
        self.rids = rids
        self.rid_list = rid_list
        self.receivers = receivers
        self.mean_gain = mean_gain
        self.noise_mw = noise_mw
        self.noise_db = noise_db
        self.pair_idx = pair_idx
        self.mod_uniform = mod_uniform
        self.mod_ids = mod_ids
        self.mod_names = mod_names
        self.n = len(rid_list)
        self.all_idx = np.arange(self.n)
        #: Index of each candidate in the medium's dense receiver axis
        #: (used to gather accumulated interference vectors).
        self.rid_dense = rid_dense
        #: Node ids whose CCA hears this sender's carrier (mean-field).
        self.cca_heard = cca_heard
        #: Structural epoch this batch was built at; stale when below the
        #: sender's entry in ``FastRadioMedium._sender_epoch``.
        self.epoch = epoch


class _Rows(NamedTuple):
    """One sender's in-budget candidate rows, before lowering to arrays."""

    row: List[Tuple[int, float]]
    rid_list: List[int]
    receivers: List[Any]
    gains: List[float]
    noise_mw: List[float]
    noise_db: List[float]
    mods: List[str]
    #: Node ids whose CCA hears the sender's carrier.
    heard: List[int]


class FastRadioMedium(RadioMedium):
    """Numpy-vectorized, spatially-culled medium backend (``medium="fast"``)."""

    supports_incremental = True

    def __init__(
        self,
        engine: Engine,
        channel: ChannelModel,
        rng: RngManager,
        lqi_model: LqiModel = DEFAULT_LQI_MODEL,
        white_bit_policy: WhiteBitPolicy = DEFAULT_WHITE_BIT,
        snr_cutoff_db: float = _NEIGHBOR_SNR_CUTOFF_DB,
        shadow_margin_sigmas: float = DEFAULT_SHADOW_MARGIN_SIGMAS,
    ) -> None:
        super().__init__(engine, channel, rng, lqi_model, white_bit_policy)
        self.snr_cutoff_db = snr_cutoff_db
        self.shadow_margin_sigmas = shadow_margin_sigmas
        #: sender id → SoA candidate batch (built by :meth:`finalize`).
        self._soa: Dict[int, _SenderBatch] = {}
        #: unordered pair → slot in the shared channel-state arrays.
        self._pair_slot: Dict[Tuple[int, int], int] = {}
        self._ou_x: Any = None
        self._ou_t: Any = None
        self._g_bimodal: Any = None
        self._g_faded: Any = None
        self._g_t: Any = None
        #: sender id → frozenset of node ids whose CCA hears its carrier.
        self._cca_heard: Dict[int, frozenset] = {}
        #: Dense receiver axis: every attached receiver id in attach order,
        #: plus its coordinates as parallel arrays (built by finalize).
        #: A detached receiver keeps its dense slot with coordinates set to
        #: +inf (so distance tests exclude it); a same-id reattach reuses
        #: the slot, and a brand-new id appends to the axis.
        self._dense_ids: List[int] = []
        self._dense_index: Dict[int, int] = {}
        self._dense_x: Any = None
        self._dense_y: Any = None
        #: interferer → {tx power → mean interference power in mW at every
        #: dense receiver} (or None when none is in reach); built once per
        #: interferer in O(N) and gathered per batch — see _dense_inter_mw.
        #: Nested per interferer so a structural event involving one node
        #: drops only that node's vectors in O(1).
        self._inter_cache: Dict[int, Dict[float, Any]] = {}
        self._inter_cache_entries = 0
        #: Lazily-invalidated interference entries: {interferer: {receiver:
        #: None}} marks receivers whose entry in the interferer's cached
        #: vectors is stale (the receiver moved / attached / detached).
        #: Patched on the next query — under continuous mobility most marks
        #: are overwritten before the vector is ever read, so eager
        #: patching would recompute gains that are never used.
        self._inter_dirty: Dict[int, Dict[int, None]] = {}
        #: Incremental-maintenance state (DESIGN.md §11): the global
        #: structural epoch, the minimum epoch each sender's batch must
        #: have been built at to be served, recycled pair slots, and the
        #: current capacity of the per-pair state arrays.
        self._epoch = 0
        self._sender_epoch: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._slot_cap = 0
        #: receiver id → (noise mW, noise dB), derived once per receiver —
        #: noise floors never change after hardware variation is applied.
        self._noise_cache: Dict[int, Tuple[float, float]] = {}
        #: (modulation, frame bytes) → quantized PRR table.
        self._prr_tables: Dict[Tuple[str, int], Any] = {}
        self._grid: Optional[SpatialGrid] = None
        self._radius_m = 0.0
        self._ou_mean_extra_db = 0.0
        self._bimodal_mean_extra_db = 0.0
        self._expected_bimodal_extra_db = 0.0
        # Batched draw streams; seeded from the master seed under the same
        # derive_seed scheme as the exact path's named Random streams
        # ("ou-init"/"ou"/"bimodal"/"rx"), namespaced under "fast".
        master = rng.master_seed
        self._gen_ou_init = Generator(PCG64(derive_seed(master, "fast", "ou-init")))
        self._gen_ou = Generator(PCG64(derive_seed(master, "fast", "ou")))
        self._gen_bimodal_init = Generator(PCG64(derive_seed(master, "fast", "bimodal")))
        self._gen_fade = Generator(PCG64(derive_seed(master, "fast", "bimodal-dwell")))
        self._gen_rx = Generator(PCG64(derive_seed(master, "fast", "rx")))
        self._gen_lqi = Generator(PCG64(derive_seed(master, "fast", "lqi")))

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _link_budget_radius_m(self) -> float:
        """Spatial query radius from the link budget.

        Any pair that could pass the mean-SNR candidate cutoff — given
        shadowing up to ``shadow_margin_sigmas``·σ above its mean — lies
        within this radius.  Interference accumulation shares it: beyond
        this distance a transmitter's mean contribution at a receiver is
        below the candidate cutoff relative to the noise floor (< 3.2% of
        noise power at the −15 dB default, a < 0.14 dB SINR shift).
        """
        channel = self.channel
        ptx_max = max(
            (p.radio.effective_tx_power_dbm for p in self._participants.values()),
            default=0.0,
        )
        nf_min = min(
            (p.radio.noise_floor_dbm for p in self._participants.values()),
            default=-98.0,
        )
        margin = self.shadow_margin_sigmas * channel.shadowing_sigma_db
        pathloss = channel.pathloss
        budget_db = ptx_max - nf_min - self.snr_cutoff_db + margin
        if budget_db <= pathloss.pl_d0_db:
            return pathloss.d0_m
        exponent_db = (budget_db - pathloss.pl_d0_db) / (10.0 * pathloss.exponent)
        return pathloss.d0_m * 10.0 ** exponent_db

    def finalize(self) -> None:
        """Build the spatial index, SoA batches and shared channel state.

        Idempotent like the exact path's ``finalize`` — a second call
        without an interleaving :meth:`attach` is a no-op, so the
        eagerly-drawn OU/Gilbert initial state is never re-drawn mid-run.
        """
        if self._finalized:
            return
        channel = self.channel
        positions = channel.positions
        self._radius_m = self._link_budget_radius_m()
        grid_ids = {nid: positions[nid] for nid in self._participants}
        self._grid = SpatialGrid(grid_ids, self._radius_m)
        self._inter_cache = {}
        self._inter_cache_entries = 0
        self._inter_dirty = {}
        self._noise_cache = {}
        self._pair_slot = {}
        pair_slot = self._pair_slot
        self._candidates = {}
        self._rx_rows = {}  # unused by this backend; kept empty for parity
        self._soa = {}
        self._cca_heard = {}
        self._epoch = 0
        self._sender_epoch = {}
        self._free_slots = []

        #: Receiver attach order — candidate lists keep the exact path's
        #: enumeration order so the two backends deliver in the same order.
        self._dense_index = {rid: i for i, rid in enumerate(self._receivers)}
        self._dense_ids = list(self._receivers)
        self._dense_x = np.asarray(
            [positions[rid][0] for rid in self._dense_ids], dtype=np.float64
        )
        self._dense_y = np.asarray(
            [positions[rid][1] for rid in self._dense_ids], dtype=np.float64
        )
        # Slots are numbered in first-contact order here and their initial
        # OU / Gilbert state is drawn below in one vectorized call per array
        # (after finalize, _alloc_pair_slot draws per slot instead).
        for sid in sorted(self._participants):
            rows = self._neighborhood_rows(sid, self._participants[sid])
            pair_idx: List[int] = []
            for rid in rows.rid_list:
                pair = self._pair_key(sid, rid)
                slot = pair_slot.get(pair)
                if slot is None:
                    slot = pair_slot[pair] = len(pair_slot)
                pair_idx.append(slot)
            self._install_batch(sid, rows, pair_idx)

        # ---- shared per-pair channel state (one slot per unordered pair)
        n_pairs = len(pair_slot)
        self._slot_cap = n_pairs
        if channel.temporal_sigma_db > 0.0:
            self._ou_x = self._gen_ou_init.standard_normal(n_pairs) * channel.temporal_sigma_db
            self._ou_t = np.zeros(n_pairs)
        else:
            self._ou_x = self._ou_t = None
        if channel.bimodal_fraction > 0.0:
            membership = self._gen_bimodal_init.random(n_pairs) < channel.bimodal_fraction
            pi_faded = channel.fade_dwell_s / (channel.fade_dwell_s + channel.good_dwell_s)
            faded0 = self._gen_bimodal_init.random(n_pairs) < pi_faded
            self._g_bimodal = membership
            self._g_faded = faded0 & membership
            self._g_t = np.zeros(n_pairs)
        else:
            self._g_bimodal = self._g_faded = self._g_t = None

        # ---- mean-field interference corrections (DESIGN.md §9)
        ou_extra, bimodal_extra = mean_field_extra_db(
            channel.temporal_sigma_db,
            channel.bimodal_fraction,
            channel.fade_depth_db,
            channel.fade_dwell_s,
            channel.good_dwell_s,
        )
        self._ou_mean_extra_db = ou_extra
        self._bimodal_mean_extra_db = bimodal_extra
        if channel.bimodal_fraction > 0.0:
            f = channel.bimodal_fraction
            factor = (1.0 - f) + f * 10.0 ** (bimodal_extra / 10.0)
            self._expected_bimodal_extra_db = 10.0 * math.log10(factor)
        else:
            self._expected_bimodal_extra_db = 0.0
        self._finalized = True

    # ------------------------------------------------------------------
    # Incremental maintenance (DESIGN.md §11)
    # ------------------------------------------------------------------
    # After finalize(), structural changes never trigger a full rebuild.
    # Each mutator bumps the global epoch, records the bumped epoch for
    # every sender whose candidate set could have changed (the changed
    # node plus its old and new spatial neighbors — O(k) of them), and
    # drops those nodes' cached dense interference vectors.  Batches are
    # then rebuilt lazily, one sender at a time, by _ensure_batch.

    @staticmethod
    def _pair_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def _ensure_batch(self, sid: int) -> Optional[_SenderBatch]:
        """Return ``sid``'s batch, rebuilding it if structurally stale."""
        batch = self._soa.get(sid)
        if batch is not None and batch.epoch >= self._sender_epoch.get(sid, 0):
            return batch
        return self._build_batch(sid)

    def _neighborhood_rows(self, sid: int, sender: Any) -> _Rows:
        """Candidate rows and carrier-reach set of ``sid`` from the live grid.

        Shared by :meth:`finalize` and :meth:`_build_batch`; O(k) in the
        spatial neighborhood.  Neighbors come in dense-axis (attach) order,
        so candidate lists keep the exact path's enumeration order.
        """
        grid = self._grid
        assert grid is not None
        ptx = sender.radio.effective_tx_power_dbm
        order = self._dense_index
        near = grid.neighbors(sid)
        near.sort(key=lambda rid: order.get(rid, len(order)))
        # One batched gain derivation for the whole neighborhood: under
        # mobility every neighbor's cached mean gain is stale after each
        # tick, and at finalize this is every in-reach pair of the network.
        near_gains = self.channel.mean_gain_many(sid, near)
        noise_cache = self._noise_cache
        rows = _Rows([], [], [], [], [], [], [], [])
        for rid, gain in zip(near, near_gains):
            receiver = self._receivers.get(rid)
            if receiver is not None:
                mean_snr = ptx + gain - receiver.radio.noise_floor_dbm
                if mean_snr >= self.snr_cutoff_db:
                    rows.row.append((rid, gain))
                    rows.rid_list.append(rid)
                    rows.receivers.append(receiver)
                    rows.gains.append(gain)
                    noise = noise_cache.get(rid)
                    if noise is None:
                        # Noise floors are fixed once hardware variation
                        # has been applied (pre-finalize), so the derived
                        # mW / dB pair is cacheable per receiver.
                        n_mw = 10.0 ** (receiver.radio.noise_floor_dbm / 10.0)
                        noise = noise_cache[rid] = (n_mw, 10.0 * math.log10(n_mw))
                    rows.noise_mw.append(noise[0])
                    rows.noise_db.append(noise[1])
                    rows.mods.append(receiver.radio.params.modulation)
            # Carrier sense reach: rid hears sid's carrier when the mean
            # RSSI clears rid's CCA threshold (mean-field CCA — see the
            # class docstring's equivalence contract).
            listener = self._participants.get(rid)
            if listener is not None:
                if ptx + gain >= listener.radio.params.cca_threshold_dbm:
                    rows.heard.append(rid)
        return rows

    def _install_batch(self, sid: int, rows: _Rows, pair_idx: List[int]) -> _SenderBatch:
        """Lower ``rows`` into ``sid``'s SoA batch at the current epoch."""
        mods = rows.mods
        mod_uniform: Optional[str] = mods[0] if mods and len(set(mods)) == 1 else None
        mod_names = sorted(set(mods))
        mod_name_index = {name: i for i, name in enumerate(mod_names)}
        order = self._dense_index
        rid_list = rows.rid_list
        batch = _SenderBatch(
            rids=np.asarray(rid_list, dtype=np.int64),
            rid_list=rid_list,
            receivers=rows.receivers,
            mean_gain=np.asarray(rows.gains, dtype=np.float64),
            noise_mw=np.asarray(rows.noise_mw, dtype=np.float64),
            noise_db=np.asarray(rows.noise_db, dtype=np.float64),
            pair_idx=np.asarray(pair_idx, dtype=np.int64),
            mod_uniform=mod_uniform,
            mod_ids=np.fromiter(
                (mod_name_index[m] for m in mods), dtype=np.int64, count=len(mods)
            ),
            mod_names=mod_names,
            rid_dense=np.fromiter(
                (order[rid] for rid in rid_list), dtype=np.int64, count=len(rid_list)
            ),
            cca_heard=frozenset(rows.heard),
            epoch=self._epoch,
        )
        self._soa[sid] = batch
        self._candidates[sid] = rows.row
        self._cca_heard[sid] = batch.cca_heard
        return batch

    def _build_batch(self, sid: int) -> Optional[_SenderBatch]:
        """Rebuild one sender's SoA batch from the live grid — O(k)."""
        sender = self._participants.get(sid)
        if sender is None:
            return None
        rows = self._neighborhood_rows(sid, sender)
        rid_list = rows.rid_list
        # Structural-reuse fast path: under sub-cell mobility steps, a
        # rebuilt batch almost always has the same rows as the previous
        # one — only the mean gains moved.  Reusing the prior batch's
        # structural arrays (ids, noise, slots, modulations, dense gather
        # index) after verifying row identity, receiver objects, and live
        # pair slots skips most of the allocation cost of a full rebuild.
        prev = self._soa.get(sid)
        if prev is not None and rid_list == prev.rid_list:
            pair_slot_map = self._pair_slot
            prev_idx = prev.pair_idx
            reusable = True
            for i, rid in enumerate(rid_list):
                if rows.receivers[i] is not prev.receivers[i] or pair_slot_map.get(
                    self._pair_key(sid, rid)
                ) != prev_idx[i]:
                    # A pair that left range and came back was re-slotted
                    # (or a participant object was swapped): full rebuild.
                    reusable = False
                    break
            if reusable:
                prev.mean_gain = np.asarray(rows.gains, dtype=np.float64)
                heard_f = frozenset(rows.heard)
                if heard_f != prev.cca_heard:
                    prev.cca_heard = heard_f
                    self._cca_heard[sid] = heard_f
                prev.epoch = self._epoch
                self._candidates[sid] = rows.row
                return prev
        pair_idx = [self._alloc_pair_slot(self._pair_key(sid, rid)) for rid in rid_list]
        return self._install_batch(sid, rows, pair_idx)

    # ---- per-pair channel-state slots: lazy allocation + free list ----
    def _alloc_pair_slot(self, pair: Tuple[int, int]) -> int:
        """Slot for ``pair``, allocating (and drawing initial state) on
        first in-range contact.  Recycled slots come off the free list;
        otherwise the state arrays grow geometrically."""
        slot = self._pair_slot.get(pair)
        if slot is not None:
            return slot
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            # Invariant: len(_pair_slot) + len(_free_slots) == high-water
            # slot count, so with no free slots the next fresh index is
            # exactly len(_pair_slot).
            slot = len(self._pair_slot)
            if slot >= self._slot_cap:
                self._grow_slots(slot + 1)
        self._pair_slot[pair] = slot
        self._init_slot(slot)
        return slot

    def _init_slot(self, slot: int) -> None:
        """Draw fresh OU / Gilbert initial state for a newly allocated slot.

        Same distributions as the finalize-time vectorized draws; a pair
        re-entering range redraws (the fast backend does not remember
        out-of-range pairs — see DESIGN.md §11 for the equivalence caveat).
        """
        channel = self.channel
        now = self.engine.now
        if self._ou_x is not None:
            self._ou_x[slot] = (
                self._gen_ou_init.standard_normal() * channel.temporal_sigma_db
            )
            self._ou_t[slot] = now
        if self._g_bimodal is not None:
            member = bool(self._gen_bimodal_init.random() < channel.bimodal_fraction)
            pi_faded = channel.fade_dwell_s / (channel.fade_dwell_s + channel.good_dwell_s)
            faded = bool(self._gen_bimodal_init.random() < pi_faded)
            self._g_bimodal[slot] = member
            self._g_faded[slot] = member and faded
            self._g_t[slot] = now

    def _evict_pair(self, pair: Tuple[int, int]) -> None:
        """Release a pair's slot back to the free list (out of range)."""
        slot = self._pair_slot.pop(pair, None)
        if slot is not None:
            self._free_slots.append(slot)

    def _grow_slots(self, min_cap: int) -> None:
        new_cap = max(min_cap, 2 * self._slot_cap, 64)

        def grow(arr: Any) -> Any:
            out = np.zeros(new_cap, dtype=arr.dtype)
            out[: arr.shape[0]] = arr
            return out

        if self._ou_x is not None:
            self._ou_x = grow(self._ou_x)
            self._ou_t = grow(self._ou_t)
        if self._g_bimodal is not None:
            self._g_bimodal = grow(self._g_bimodal)
            self._g_faded = grow(self._g_faded)
            self._g_t = grow(self._g_t)
        self._slot_cap = new_cap

    def _drop_inter(self, oid: int) -> None:
        """Invalidate the cached dense interference vectors from ``oid``."""
        sub = self._inter_cache.pop(oid, None)
        if sub:
            self._inter_cache_entries -= len(sub)
        self._inter_dirty.pop(oid, None)

    def _mark_inter_dirty(self, oids: Dict[int, None], rid: int) -> None:
        """Mark receiver ``rid``'s entry stale in each of ``oids``'s cached
        interference vectors — O(1) per mark; patched at next query."""
        inter_cache = self._inter_cache
        dirty = self._inter_dirty
        for a in oids:
            if a in inter_cache:
                d = dirty.get(a)
                if d is None:
                    d = dirty[a] = {}
                d[rid] = None

    def _patch_inter(self, oid: int, rid: int) -> None:
        """Recompute receiver ``rid``'s entry in each cached interference
        vector from ``oid``.

        When a node moves (or attaches/detaches), a neighboring
        interferer's vector changes at exactly one entry — the changed
        receiver's.  Patching that entry in place is O(cached powers)
        instead of dropping the whole vector and paying an O(k) rebuild
        at the next overlap (the dominant cost of naive invalidation
        under continuous mobility).  In-place mutation is safe: the hot
        path only aliases these arrays within a single event.
        """
        by_oid = self._inter_cache.get(oid)
        if not by_oid:
            return
        j = self._dense_index.get(rid)
        if j is None:
            return  # rid is not on the dense receiver axis: no entry to patch
        opos = self.channel.positions.get(oid)
        if opos is None:
            self._drop_inter(oid)
            return
        dx = float(self._dense_x[j]) - opos[0]
        dy = float(self._dense_y[j]) - opos[1]
        in_range = (
            rid != oid
            and rid in self._receivers
            and dx * dx + dy * dy <= self._radius_m * self._radius_m
        )
        if not in_range:
            for dense in by_oid.values():
                if dense is not None:
                    dense[j] = 0.0
            return
        extra = self._ou_mean_extra_db
        if self._g_bimodal is not None:
            slot = self._pair_slot.get((oid, rid) if oid <= rid else (rid, oid))
            if slot is None:
                extra += self._expected_bimodal_extra_db
            elif self._g_bimodal[slot]:
                extra += self._bimodal_mean_extra_db
        gain = self.channel.mean_gain_db(oid, rid) + extra
        stale_nones = [p for p, dense in by_oid.items() if dense is None]
        for p in stale_nones:
            # The vector said "no receiver in reach", which just became
            # false — drop it for a rebuild at next use.
            del by_oid[p]
            self._inter_cache_entries -= 1
        for power_dbm, dense in by_oid.items():
            dense[j] = 10.0 ** ((power_dbm + gain) / 10.0)

    def _bump_neighborhood(
        self, node_id: int, neighbor_lists: List[List[int]]
    ) -> Dict[int, None]:
        """Mark ``node_id`` and the union of ``neighbor_lists`` stale;
        returns the deduplicated neighbor union (insertion-ordered)."""
        self._epoch += 1
        epoch = self._epoch
        sender_epoch = self._sender_epoch
        sender_epoch[node_id] = epoch
        affected: Dict[int, None] = {}
        for lst in neighbor_lists:
            for a in lst:
                affected[a] = None
        for a in affected:
            sender_epoch[a] = epoch
        return affected

    # ---- structural mutators ------------------------------------------
    def attach(self, participant: Any, receiver: bool = True) -> None:
        """Register a participant; after finalize, patch incrementally.

        A post-finalize attach requires the node's channel position to be
        registered first — without it the spatial index cannot place the
        node and every existing batch would silently go stale, so this
        raises ``RuntimeError`` instead of serving wrong results.
        """
        if not self._finalized:
            super().attach(participant, receiver)
            return
        nid = participant.node_id
        if nid in self._participants:
            raise ValueError(f"node {nid} already attached")
        pos = self.channel.positions.get(nid)
        if pos is None:
            raise RuntimeError(
                f"attach after finalize: node {nid} has no channel position; "
                "call channel.add_position first (the fast backend patches "
                "structure incrementally and cannot place an unlocated node)"
            )
        self._participants[nid] = participant
        if receiver:
            self._receivers[nid] = participant
            j = self._dense_index.get(nid)
            if j is None:
                self._dense_index[nid] = len(self._dense_ids)
                self._dense_ids.append(nid)
                self._dense_x = np.append(self._dense_x, pos[0])
                self._dense_y = np.append(self._dense_y, pos[1])
                # The dense axis grew: every cached interference vector is
                # now too short for it.  Drop them all (rare event).
                self._inter_cache.clear()
                self._inter_cache_entries = 0
                self._inter_dirty.clear()
            else:
                # Same-id reattach (reboot): reuse the tombstoned slot.
                self._dense_x[j] = pos[0]
                self._dense_y[j] = pos[1]
        grid = self._grid
        assert grid is not None
        grid.add(nid, pos)
        affected = self._bump_neighborhood(nid, [grid.neighbors(nid)])
        self._drop_inter(nid)
        self._mark_inter_dirty(affected, nid)

    def detach(self, node_id: int) -> None:
        """Remove a participant; after finalize, patch incrementally.

        The channel position is kept (pair identity survives a crash /
        reboot cycle) but the dense receiver slot is tombstoned with +inf
        coordinates so interference vectors exclude the dead node, and
        the node's pair slots are released for reuse.
        """
        if not self._finalized:
            super().detach(node_id)
            return
        if node_id not in self._participants:
            raise ValueError(f"detach: node {node_id} is not attached to the medium")
        grid = self._grid
        assert grid is not None
        old_neighbors = grid.neighbors(node_id) if node_id in grid else []
        if node_id in grid:
            grid.remove(node_id)
        del self._participants[node_id]
        self._receivers.pop(node_id, None)
        j = self._dense_index.get(node_id)
        if j is not None:
            self._dense_x[j] = math.inf
            self._dense_y[j] = math.inf
        self._soa.pop(node_id, None)
        self._candidates.pop(node_id, None)
        self._cca_heard.pop(node_id, None)
        affected = self._bump_neighborhood(node_id, [old_neighbors])
        self._sender_epoch.pop(node_id, None)
        self._drop_inter(node_id)
        self._mark_inter_dirty(affected, node_id)
        for a in affected:
            self._evict_pair(self._pair_key(node_id, a))

    def update_position(self, node_id: int, x: float, y: float) -> None:
        """Move a node in O(k): re-bucket, re-derive means, mark stale.

        Pair slots whose endpoints drifted out of spatial range are
        evicted; everything else (shadowing, in-range OU/Gilbert state)
        survives the move keyed by pair identity.
        """
        if not self._finalized:
            super().update_position(node_id, x, y)
            return
        grid = self._grid
        assert grid is not None
        if node_id not in grid:
            # A channel-only position (never attached): no batch depends
            # on it, but its interference vectors re-derive.
            self.channel.update_position(node_id, (x, y))
            self._drop_inter(node_id)
            return
        if grid.same_cell(node_id, x, y):
            # Mobility fast path: a sub-cell step means the same 3×3 block
            # serves both the before and after neighbor filters — one scan
            # instead of two (the node's own entry is excluded, so moving
            # it first cannot perturb either list).
            ox, oy = grid.position(node_id)
            grid.move(node_id, x, y)
            old_neighbors, new_neighbors = grid.neighbors_two_points(
                ox, oy, x, y, exclude=node_id
            )
        else:
            old_neighbors = grid.neighbors(node_id)
            grid.move(node_id, x, y)
            new_neighbors = grid.neighbors(node_id)
        self.channel.update_position(node_id, (x, y))
        j = self._dense_index.get(node_id)
        if j is not None and node_id in self._receivers:
            self._dense_x[j] = x
            self._dense_y[j] = y
        affected = self._bump_neighborhood(node_id, [old_neighbors, new_neighbors])
        # The mover's own vectors change at every in-reach entry: a full
        # (vectorized) rebuild at next use beats entry-wise patching.
        self._drop_inter(node_id)
        self._mark_inter_dirty(affected, node_id)
        if old_neighbors:
            still = dict.fromkeys(new_neighbors)
            for a in old_neighbors:
                if a not in still:
                    self._evict_pair(self._pair_key(node_id, a))

    def candidate_receivers(self, sender: int) -> List[Tuple[int, float]]:
        """(receiver, mean gain dB) pairs reachable from ``sender``."""
        if not self._finalized:
            self.finalize()
        self._ensure_batch(sender)
        return self._candidates.get(sender, [])

    # ------------------------------------------------------------------
    # Carrier sense (spatially culled, mean-field)
    # ------------------------------------------------------------------
    def channel_clear(self, node_id: int) -> bool:
        """CCA at ``node_id`` against the precomputed carrier-reach sets."""
        if node_id not in self._participants:
            raise ValueError(
                f"channel_clear: node {node_id} is not attached to the medium"
            )
        active = self._active
        if not active:
            return True
        if not self._finalized:
            self.finalize()
        for tx in active:
            if tx.sender == node_id:
                continue
            batch = self._ensure_batch(tx.sender)
            if batch is not None and node_id in batch.cca_heard:
                return False
        return True

    # ------------------------------------------------------------------
    # Interference gather
    # ------------------------------------------------------------------
    def _dense_inter_mw(self, oid: int, power_dbm: float) -> Any:
        """Mean interference power (mW) from ``oid`` at every dense receiver.

        One vector per (interferer, tx power) over the full receiver axis,
        built in O(N) and cached in *linear* milliwatts with the transmit
        power folded in (powers are fixed after hardware variation, and the
        power is part of the cache key regardless).  Accumulating one
        overlapping transmission in the hot path is then a single array
        add in dense space, followed by one gather through the batch's
        ``rid_dense`` index.  Entries beyond the interferer's spatial reach
        — and the interferer's own receiver slot — are exactly 0; ``None``
        means every receiver is out of reach.  Gains include the mean-field
        fading corrections (see DESIGN.md §9).  The cache nests per
        interferer so structural events invalidate one node's vectors in
        O(1) (see the incremental-maintenance section).
        """
        dirty = self._inter_dirty.pop(oid, None)
        if dirty and oid in self._inter_cache:
            for rid in dirty:
                self._patch_inter(oid, rid)
        by_oid = self._inter_cache.get(oid)
        if by_oid is not None:
            cached = by_oid.get(power_dbm, _MISSING)
            if cached is not _MISSING:
                return cached
        opos = self.channel.positions.get(oid)
        out: Any = None
        if opos is not None and self._dense_ids:
            ox, oy = opos
            dx = self._dense_x - ox
            dy = self._dense_y - oy
            in_range = np.nonzero(dx * dx + dy * dy <= self._radius_m * self._radius_m)[0]
            if in_range.size:
                dense_ids = self._dense_ids
                pair_slot = self._pair_slot
                bimodal = self._g_bimodal
                js = [j for j in in_range.tolist() if dense_ids[j] != oid]
                if js:
                    rids = [dense_ids[j] for j in js]
                    gains = self.channel.mean_gain_many(oid, rids)
                    dense = np.zeros(len(dense_ids))
                    for j, rid, gain in zip(js, rids, gains):
                        extra = self._ou_mean_extra_db
                        if bimodal is not None:
                            slot = pair_slot.get(
                                (oid, rid) if oid <= rid else (rid, oid)
                            )
                            if slot is None:
                                extra += self._expected_bimodal_extra_db
                            elif bimodal[slot]:
                                extra += self._bimodal_mean_extra_db
                        dense[j] = 10.0 ** ((power_dbm + gain + extra) / 10.0)
                    out = dense
        if self._inter_cache_entries < _INTER_CACHE_MAX:
            if by_oid is None:
                by_oid = self._inter_cache[oid] = {}
            by_oid[power_dbm] = out
            self._inter_cache_entries += 1
        return out

    # ------------------------------------------------------------------
    # Reception (vectorized)
    # ------------------------------------------------------------------
    def _prr_table_for(self, modulation: str, frame_bytes: int) -> Any:
        key = (modulation, frame_bytes)
        table = self._prr_tables.get(key)
        if table is None:
            table = self._prr_tables[key] = prr_table(modulation, frame_bytes)
        return table

    def _evaluate_receptions(self, tx: _Transmission) -> None:
        frame = tx.frame
        if isinstance(frame, JamFrame):
            return  # nobody decodes interference
        if not self._finalized:
            self.finalize()
        sender_id = tx.sender
        if sender_id not in self._participants:
            return  # sender detached (crashed) mid-flight: the frame dies with it
        batch = self._ensure_batch(sender_id)
        if batch is None or batch.n == 0:
            return  # zero-candidate sender: nothing in link-budget reach
        overlapping = self._overlapping(tx)
        t = tx.end
        channel = self.channel
        # Per-kernel wall-time buckets: without them the profiler lumps the
        # whole vectorized evaluation under one callback name.  One branch
        # here when profiling is off; early returns simply skip the
        # remaining sections (kernel time is a breakdown, not a total).
        prof = self.engine.profiler
        k0 = perf_counter() if prof is not None else 0.0

        # ---- half duplex: drop candidates that transmitted during tx ----
        if overlapping:
            busy = {other.sender for other in overlapping}
            if busy.isdisjoint(batch.rid_list):
                idx = batch.all_idx
            else:
                keep = np.fromiter(
                    (rid not in busy for rid in batch.rid_list),
                    dtype=bool,
                    count=batch.n,
                )
                idx = np.nonzero(keep)[0]
                if idx.size == 0:
                    return
        else:
            idx = batch.all_idx
        full = idx is batch.all_idx
        if prof is not None:
            k1 = perf_counter()
            prof.record_kernel("medium_fast.cull", k1 - k0)
            k0 = k1

        # ---- time-varying gain: OU + Gilbert, advanced for queried pairs
        slots = batch.pair_idx if full else batch.pair_idx[idx]
        if self._ou_x is not None:
            extra = ou_advance(
                self._ou_x,
                self._ou_t,
                slots,
                t,
                channel.temporal_tau_s,
                channel.temporal_sigma_db,
                channel._ou_freeze_s,
                self._gen_ou,
            )
        else:
            extra = np.zeros(idx.size)
        if self._g_bimodal is not None:
            bi_pos = self._g_bimodal[slots].nonzero()[0]
            if bi_pos.size:
                faded = gilbert_advance(
                    self._g_faded,
                    self._g_t,
                    slots[bi_pos],
                    t,
                    channel.fade_dwell_s,
                    channel.good_dwell_s,
                    self._gen_fade,
                )
                # ``extra`` is a fresh array.  Subtracting the depth where
                # faded equals adding −depth; elsewhere adding 0.0 is the
                # identity (up to the sign of a zero, which the nonzero
                # mean gain below absorbs).
                extra[bi_pos[faded]] -= channel.fade_depth_db
        # In-place from here on: ``extra`` is fresh, and ``a += b`` is the
        # same IEEE sum as ``b + a``.
        gain = extra
        gain += batch.mean_gain if full else batch.mean_gain[idx]

        # ---- fault overlay: identical offset/blackout semantics ---------
        faults = self._faults
        if faults is not None:
            keep_mask = np.ones(idx.size, dtype=bool)
            offsets = np.zeros(idx.size)
            offset_for = faults.offset_for
            rid_seq = batch.rid_list if full else batch.rids[idx].tolist()
            for j, rid in enumerate(rid_seq):
                offset = offset_for(sender_id, rid)
                if offset is None:
                    keep_mask[j] = False
                    faults.blackout_drops += 1
                elif offset != 0.0:
                    offsets[j] = offset
            if not keep_mask.all():
                idx = idx[keep_mask]
                full = False
                if idx.size == 0:
                    return
                gain = gain[keep_mask] + offsets[keep_mask]
            else:
                gain += offsets

        rssi = gain
        rssi += tx.power_dbm
        if prof is not None:
            k1 = perf_counter()
            prof.record_kernel("medium_fast.fading", k1 - k0)
            k0 = k1

        # ---- SINR: noise plus spatially-culled mean-field interference --
        noise_mw = batch.noise_mw if full else batch.noise_mw[idx]
        inter_mw: Any = None
        if overlapping:
            inter_dense: Any = None
            for other in overlapping:
                dense = self._dense_inter_mw(other.sender, other.power_dbm)
                if dense is None:
                    continue
                # First overlap aliases the cached dense array; it is never
                # mutated in place, so no defensive copy is needed.
                inter_dense = dense if inter_dense is None else inter_dense + dense
            if inter_dense is not None:
                sel = batch.rid_dense if full else batch.rid_dense[idx]
                inter_mw = inter_dense[sel]
        if inter_mw is not None:
            sinr = rssi - 10.0 * np.log10(noise_mw + inter_mw)
        else:
            sinr = rssi - (batch.noise_db if full else batch.noise_db[idx])
        if prof is not None:
            k1 = perf_counter()
            prof.record_kernel("medium_fast.interference", k1 - k0)
            k0 = k1

        # ---- decode decision: quantized PRR gather + one uniform draw ---
        params: RadioParams = self._participants[sender_id].radio.params
        frame_bytes = frame.length_bytes + params.phy_overhead_bytes
        if batch.mod_uniform is not None:
            prr = prr_lookup(self._prr_table_for(batch.mod_uniform, frame_bytes), sinr)
        else:
            prr = np.zeros(idx.size)
            mod_ids = batch.mod_ids if full else batch.mod_ids[idx]
            for mid, name in enumerate(batch.mod_names):
                mask = mod_ids == mid
                if mask.any():
                    prr[mask] = prr_lookup(
                        self._prr_table_for(name, frame_bytes), sinr[mask]
                    )
        decoded = self._gen_rx.random(idx.size) < prr
        if inter_mw is not None:
            # Undecoded frames whose interference outweighed the noise;
            # ``decoded < hot`` is ``~decoded & hot`` for booleans.
            self.collisions += int(np.count_nonzero(decoded < (inter_mw > noise_mw)))
        dec = np.nonzero(decoded)[0]
        if prof is not None:
            k1 = perf_counter()
            prof.record_kernel("medium_fast.prr_decode", k1 - k0)
            k0 = k1
        if dec.size == 0:
            return

        # ---- LQI sample + white bit for the decoded subset --------------
        lqi_model = self.lqi_model
        sinr_dec = sinr[dec]
        lqi = lqi_sample(
            sinr_dec,
            lqi_model.midpoint_snr_db,
            lqi_model.slope_db,
            lqi_model.noise_sigma,
            self._gen_lqi.standard_normal(dec.size),
        )
        policy = self.white_bit_policy
        wb_threshold = policy.threshold if type(policy) is LqiWhiteBit else None
        if wb_threshold is not None:
            white = lqi >= wb_threshold
        else:
            white_eval = policy.evaluate
            white = np.fromiter(
                (white_eval(float(s), int(q)) for s, q in zip(sinr_dec, lqi)),
                dtype=bool,
                count=dec.size,
            )

        # ---- delivery (candidate order, late-bound callbacks) -----------
        receivers = batch.receivers
        rssi_list = rssi[dec].tolist()
        sinr_list = sinr_dec.tolist()
        lqi_list = lqi.tolist()
        white_list = white.tolist()
        pos_list = (dec if full else idx[dec]).tolist()
        rx_info_new = RxInfo.__new__
        self.deliveries += dec.size
        self.white_bits_set += white_list.count(True)
        for k in range(len(pos_list)):
            info = rx_info_new(RxInfo)
            info.__dict__.update(
                timestamp=t,
                rssi_dbm=rssi_list[k],
                snr_db=sinr_list[k],
                lqi=lqi_list[k],
                white_bit=white_list[k],
            )
            receivers[pos_list[k]].on_frame_received(frame, info)
        if prof is not None:
            prof.record_kernel("medium_fast.deliver", perf_counter() - k0)


__all__ = ["FastRadioMedium", "DEFAULT_SHADOW_MARGIN_SIGMAS"]
