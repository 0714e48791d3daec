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
* **Per-pair state in arrays** (DESIGN.md §9).  After ``finalize()``
  every per-pair value — mean gain, channel-state slot, interference
  reach — lives in numpy arrays aligned with
  :meth:`~repro.sim.spatial.SpatialGrid.pair_arrays`' pair order: no
  tuple, float or dict entry per pair.
* **Static after set-up** (DESIGN.md §9).  ``finalize()`` is the one
  place that builds batches and per-pair channel-state slots; nothing
  patches them afterwards.  A crashed node stays attached (its MAC is
  silent), and an ``attach`` after ``finalize()`` re-opens the medium, so
  the next use re-finalizes from scratch, as on the exact backend.

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
bit-identical golden contract.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.random import Generator, PCG64

from repro.link.frame import BROADCAST
from repro.phy.channel import ChannelModel
from repro.phy.lqi import DEFAULT_LQI_MODEL
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
SHADOW_MARGIN_SIGMAS = 4.0

_MISSING = object()

#: Senders per block of the set-up row builder: bounds the transient
#: per-entry arrays of :meth:`FastRadioMedium.finalize`.
_ROW_BLOCK = 32

#: Draws per pre-drawn block of the per-transmission streams.
_DRAW_BLOCK = 4096

#: The interference sum's dB factor, a 0-d array like every constant ufunc
#: operand on the per-transmission path (``repro.phy.vector``, "Operand
#: rule").
_TEN = np.array(10.0)


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
        "rid_pos",
        "prr_tables",
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
        #: Candidate id → position, built on the first unicast delivery.
        self.rid_pos: Optional[Dict[int, int]] = None
        #: MAC frame length → PRR table of the one modulation (uniform
        #: batches only), filled on first use.
        self.prr_tables: Dict[int, Any] = {}


class _Nodes(NamedTuple):
    """Per-node inputs of the row builder, by local node index."""

    id_list: List[int]
    ids: Any
    #: Effective transmit power and CCA threshold, dBm.
    ptx: Any
    cca: Any
    #: Noise floor in dBm; +inf for a node that does not receive, so it
    #: never clears the candidate cutoff.
    noise_floor: Any
    noise_mw: Any
    noise_db: Any
    #: Dense-axis index; ``n_rank - 1`` for a node that does not receive.
    rank: Any
    n_rank: int
    #: Index into ``mod_names`` (sorted) of each receiver's modulation.
    mod: Any
    mod_names: List[str]
    #: The receiving participant, or None.
    receivers: List[Any]


class _Rows(NamedTuple):
    """Directed entries in (sender, dense rank) order, by local node index."""

    #: Candidate entries: sender, receiver, mean gain, pair index.
    snd: Any
    rcv: Any
    gain: Any
    pair: Any
    #: Entries whose receiver hears the sender's carrier.
    heard_snd: Any
    heard_rcv: Any


class _Prefetched:
    """One Generator method's draws, served in order from pre-drawn blocks.

    Successive ``draw(n1)``, ``draw(n2)`` calls of a numpy ``Generator``
    return the leading slices of one ``draw(n1 + n2)``: each element takes
    the next values of the bit stream.  Slicing a pre-drawn block therefore
    serves exactly the values per-call draws would, without a Generator
    call per transmission.  A served slice may be modified in place; it is
    never served again.
    """

    __slots__ = ("_draw", "_buf", "_pos")

    def __init__(self, draw: Any) -> None:
        self._draw = draw
        self._buf = np.empty(0)
        self._pos = 0

    def __call__(self, n: int) -> Any:
        pos = self._pos
        end = pos + n
        buf = self._buf
        if end > buf.size:
            buf = self._buf = np.concatenate((buf[pos:], self._draw(max(_DRAW_BLOCK, n))))
            pos, end = 0, n
        self._pos = end
        return buf[pos:end]


class FastRadioMedium(RadioMedium):
    """Numpy-vectorized, spatially-culled medium backend (``medium="fast"``)."""

    def __init__(
        self,
        engine: Engine,
        channel: ChannelModel,
        rng: RngManager,
        white_bit_policy: WhiteBitPolicy = DEFAULT_WHITE_BIT,
    ) -> None:
        super().__init__(engine, channel, rng, white_bit_policy)
        #: sender id → SoA candidate batch (built by :meth:`finalize`).
        self._soa: Dict[int, _SenderBatch] = {}
        #: Per in-reach pair, in ``SpatialGrid.pair_arrays`` order: the mean
        #: gain (float64), and the slot in the shared channel-state arrays
        #: (int32; −1: not a candidate pair).
        self._pair_gain: Any = None
        self._slot_by_pair: Any = None
        #: Interference reach, a CSR over the pair arrays: the entries of
        #: local node ``u`` (``_node_index``) are ``_reach_start[u]`` up to
        #: ``_reach_start[u + 1]``, each an in-reach receiver's dense rank
        #: and the pair's index, in both directions of every pair.
        self._node_index: Dict[int, int] = {}
        self._reach_start: List[int] = [0]
        self._reach_rank: Any = None
        self._reach_pair: Any = None
        self._ou_x: Any = None
        self._ou_t: Any = None
        self._g_bimodal: Any = None
        self._g_faded: Any = None
        self._g_t: Any = None
        #: Dense receiver axis: every attached receiver id in attach order
        #: (built by finalize).
        self._dense_ids: List[int] = []
        self._dense_index: Dict[int, int] = {}
        #: (interferer, tx power) → (dense ranks, mean interference power in
        #: mW) of the receivers in the interferer's reach, or None when none
        #: is; one float per in-reach entry — see _inter_mw.
        self._inter_cache: Dict[Tuple[int, float], Any] = {}
        #: Dense-axis scratch the overlapping interferers are summed into;
        #: all zeros between receptions.
        self._inter_sum: Any = None
        #: (modulation, frame bytes) → quantized PRR table.
        self._prr_tables: Dict[Tuple[str, int], Any] = {}
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
        # The four per-transmission draws, served from pre-drawn blocks.
        self._ou_normals = _Prefetched(self._gen_ou.standard_normal)
        self._fade_uniforms = _Prefetched(self._gen_fade.random)
        self._rx_uniforms = _Prefetched(self._gen_rx.random)
        self._lqi_normals = _Prefetched(self._gen_lqi.standard_normal)
        # Kernel operands, made once by finalize (``repro.phy.vector``,
        # "Operand rule"): 0-d float64 arrays, except τ, which the OU kernel
        # negates (cheap on a float, a ufunc call on an array).
        self._ou_tau_s = 0.0
        self._ou_sigma: Any = None
        self._ou_freeze: Any = None
        self._fade_depth: Any = None
        self._lqi_mid: Any = None
        self._lqi_slope: Any = None
        self._lqi_sigma: Any = None
        #: The LQI white-bit threshold, or None for any other policy.
        self._wb_threshold: Any = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _link_budget_radius_m(self) -> float:
        """Spatial query radius from the link budget.

        Any pair that could pass the mean-SNR candidate cutoff — given
        shadowing up to ``SHADOW_MARGIN_SIGMAS``·σ above its mean — lies
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
        margin = SHADOW_MARGIN_SIGMAS * channel.shadowing_sigma_db
        pathloss = channel.pathloss
        budget_db = ptx_max - nf_min - _NEIGHBOR_SNR_CUTOFF_DB + margin
        if budget_db <= pathloss.pl_d0_db:
            return pathloss.d0_m
        exponent_db = (budget_db - pathloss.pl_d0_db) / (10.0 * pathloss.exponent)
        return pathloss.d0_m * 10.0 ** exponent_db

    def finalize(self) -> None:
        """Build the spatial index, SoA batches and shared channel state.

        One array pass over unordered pairs (DESIGN.md §9, "set-up"):
        :meth:`SpatialGrid.pair_arrays` enumerates every in-reach pair
        ``(a, b)``, ``a < b``, by a cell join, and one
        :meth:`ChannelModel.mean_gains` call draws every pair's static
        shadowing in a batch and returns its mean gain.  Each pair then
        gives its two directed entries to the row builder (:meth:`_rows`),
        a block of ``_ROW_BLOCK`` senders at a time, so the transient
        per-entry arrays stay bounded.  Every per-pair value the medium
        keeps afterwards lives in arrays aligned with the pairs (gain,
        slot, interference reach): no tuple, float or dict entry per pair.

        Idempotent like the exact path's ``finalize`` — a second call
        without an interleaving :meth:`attach` is a no-op, so the
        eagerly-drawn OU/Gilbert initial state is never re-drawn mid-run.
        """
        if self._finalized:
            return
        channel = self.channel
        positions = channel.positions
        self._radius_m = self._link_budget_radius_m()
        grid = SpatialGrid({nid: positions[nid] for nid in self._participants}, self._radius_m)
        self._inter_cache = {}
        self._soa = {}

        #: Receiver attach order — candidate lists keep the exact path's
        #: enumeration order so the two backends deliver in the same order.
        self._dense_index = {rid: i for i, rid in enumerate(self._receivers)}
        self._dense_ids = list(self._receivers)
        self._inter_sum = np.zeros(len(self._dense_ids))
        # Every in-reach pair as the local indices of its ends into the
        # sorted participant ids (the grid indexes exactly the
        # participants).  A node's entries as sender are a run of pairs by
        # ``lo`` and a run of ``by_hi``; ``lo_start``/``hi_start`` hold
        # where each node's runs begin.
        _, lo, hi = grid.pair_arrays()
        nodes = self._nodes(sorted(self._participants))
        n_nodes = len(nodes.id_list)
        by_hi = np.argsort(hi, kind="stable")
        lo_start, hi_start = [
            np.concatenate(([0], np.cumsum(np.bincount(end, minlength=n_nodes)))).tolist()
            for end in (lo, hi)
        ]
        gains = self._pair_gain = channel.mean_gains(nodes.ids[lo], nodes.ids[hi])
        # Slots are numbered in first-contact order, over candidate entries
        # in (sender, dense) order, and their initial OU / Gilbert state is
        # drawn below in one vectorized call per array.
        slot_of = self._slot_by_pair = np.full(lo.size, -1, dtype=np.int32)
        n_slots = 0
        for s0 in range(0, n_nodes, _ROW_BLOCK):
            s1 = min(s0 + _ROW_BLOCK, n_nodes)
            f0, f1 = lo_start[s0], lo_start[s1]
            back = by_hi[hi_start[s0] : hi_start[s1]]
            pair = np.concatenate((np.arange(f0, f1), back))
            rows = self._rows(
                nodes,
                np.concatenate((lo[f0:f1], hi[back])),
                np.concatenate((hi[f0:f1], lo[back])),
                gains[pair],
                pair,
            )
            met = rows.pair
            fresh, first = np.unique(met[slot_of[met] < 0], return_index=True)
            fresh = fresh[np.argsort(first)]
            slot_of[fresh] = np.arange(n_slots, n_slots + fresh.size)
            n_slots += fresh.size
            self._install_rows(nodes, rows, slot_of[met].astype(np.int64), s0, s1)
        del by_hi
        self._install_reach(nodes, lo, hi)

        # ---- shared per-pair channel state (one slot per candidate pair)
        if channel.temporal_sigma_db > 0.0:
            self._ou_x = self._gen_ou_init.standard_normal(n_slots) * channel.temporal_sigma_db
            self._ou_t = np.zeros(n_slots)
        else:
            self._ou_x = self._ou_t = None
        if channel.bimodal_fraction > 0.0:
            membership = self._gen_bimodal_init.random(n_slots) < channel.bimodal_fraction
            pi_faded = channel.fade_dwell_s / (channel.fade_dwell_s + channel.good_dwell_s)
            faded0 = self._gen_bimodal_init.random(n_slots) < pi_faded
            self._g_bimodal = membership
            self._g_faded = faded0 & membership
            self._g_t = np.zeros(n_slots)
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

        # ---- per-transmission kernel operands (read once, like the rest)
        self._ou_tau_s = channel.temporal_tau_s
        self._ou_sigma = np.array(channel.temporal_sigma_db)
        self._ou_freeze = np.array(channel._ou_freeze_s)
        self._fade_depth = np.array(channel.fade_depth_db)
        self._lqi_mid = np.array(DEFAULT_LQI_MODEL.midpoint_snr_db)
        self._lqi_slope = np.array(DEFAULT_LQI_MODEL.slope_db)
        self._lqi_sigma = np.array(DEFAULT_LQI_MODEL.noise_sigma)
        policy = self.white_bit_policy
        self._wb_threshold = np.array(policy.threshold) if type(policy) is LqiWhiteBit else None
        self._finalized = True

    def _install_reach(self, nodes: _Nodes, lo: Any, hi: Any) -> None:
        """Build the interference-reach CSR from the pair arrays.

        Each pair ``k`` gives the entry (``hi[k]``'s dense rank, ``k``) to
        node ``lo[k]`` and (``lo[k]``'s dense rank, ``k``) to ``hi[k]``;
        entries whose other end does not receive are dropped.  So a node's
        entries are exactly the receivers its ``dx*dx + dy*dy <= r2``
        radius test keeps, itself excluded.
        """
        n_nodes = len(nodes.id_list)
        owner = np.concatenate((lo, hi))
        rank = nodes.rank[np.concatenate((hi, lo))]
        pair = np.arange(lo.size, dtype=np.int32)
        pair = np.concatenate((pair, pair))
        receives = rank < nodes.n_rank - 1
        owner = owner[receives]
        order = np.argsort(owner, kind="stable")
        self._node_index = dict(zip(nodes.id_list, range(n_nodes)))
        self._reach_start = np.concatenate(
            ([0], np.cumsum(np.bincount(owner, minlength=n_nodes)))
        ).tolist()
        # intp: every overlapped reception scatters through these ranks.
        self._reach_rank = rank[receives][order].astype(np.intp)
        self._reach_pair = pair[receives][order]

    def _nodes(self, id_list: List[int]) -> _Nodes:
        """Row-builder inputs of the nodes ``id_list``, by list position."""
        participants = self._participants
        receivers = self._receivers
        records = []
        for nid in id_list:
            radio = participants[nid].radio
            receiver = receivers.get(nid)
            noise: Tuple[float, float, float]
            modulation: Optional[str]
            if receiver is None:
                noise = (math.inf, 0.0, 0.0)
                modulation = None
            else:
                n_mw = 10.0 ** (radio.noise_floor_dbm / 10.0)
                noise = (radio.noise_floor_dbm, n_mw, 10.0 * math.log10(n_mw))
                modulation = radio.params.modulation
            records.append(
                (
                    radio.effective_tx_power_dbm,
                    radio.params.cca_threshold_dbm,
                    *noise,
                    modulation,
                    receiver,
                )
            )
        columns: List[Tuple[Any, ...]] = list(zip(*records)) or [()] * 7
        ptx, cca, floor, n_mw, n_db, mods, objs = columns
        mod_names = sorted({m for m in mods if m is not None})
        mod_index = {name: i for i, name in enumerate(mod_names)}
        dense = self._dense_index
        n_dense = len(dense)
        return _Nodes(
            id_list=id_list,
            ids=np.array(id_list, dtype=np.int64),
            ptx=np.array(ptx, dtype=np.float64),
            cca=np.array(cca, dtype=np.float64),
            noise_floor=np.array(floor, dtype=np.float64),
            noise_mw=np.array(n_mw, dtype=np.float64),
            noise_db=np.array(n_db, dtype=np.float64),
            rank=np.array([dense.get(nid, n_dense) for nid in id_list], dtype=np.int64),
            n_rank=n_dense + 1,
            mod=np.array([mod_index.get(m, 0) for m in mods], dtype=np.int64),
            mod_names=mod_names,
            receivers=list(objs),
        )

    def _rows(self, nodes: _Nodes, snd: Any, rcv: Any, gain: Any, pair: Any) -> _Rows:
        """The row builder: candidates and carrier reach of directed entries.

        Entry ``i`` goes from local node ``snd[i]`` to ``rcv[i]`` over the
        pair ``pair[i]`` of mean gain ``gain[i]``.  One stable argsort
        orders the entries by sender, then by the receiver's dense rank, so
        candidate lists keep the exact path's enumeration order.  A
        receiver is a candidate when its mean SNR ``(ptx + g) − noise_floor``
        clears the cutoff; a node hears the sender's carrier when
        ``ptx + g`` clears its CCA threshold (mean-field CCA — see the class
        docstring's equivalence contract).  Both are the scalar tests' own float operations.
        """
        key = snd.astype(np.int64)
        key *= nodes.n_rank
        key += nodes.rank[rcv]
        order = np.argsort(key, kind="stable")
        snd = snd[order]
        rcv = rcv[order]
        gain = gain[order]
        power = nodes.ptx[snd]
        power += gain
        heard = power >= nodes.cca[rcv]
        power -= nodes.noise_floor[rcv]
        cand = power >= _NEIGHBOR_SNR_CUTOFF_DB
        return _Rows(
            snd[cand],
            rcv[cand],
            gain[cand],
            pair[order][cand],
            snd[heard],
            rcv[heard],
        )

    def _install_rows(self, nodes: _Nodes, rows: _Rows, slots: Any, s0: int, s1: int) -> None:
        """Lower ``rows`` into one SoA batch per local sender ``s0 ≤ s < s1``;
        ``slots`` holds each candidate's pair slot."""
        cuts = np.searchsorted(rows.snd, np.arange(s0, s1 + 1)).tolist()
        heard_cuts = np.searchsorted(rows.heard_snd, np.arange(s0, s1 + 1)).tolist()
        rcv = rows.rcv
        rcv_list = rcv.tolist()
        rids = nodes.ids[rcv]
        # The participants' own id objects, which candidate lists share.
        node_id = nodes.id_list.__getitem__
        rid_list = list(map(node_id, rcv_list))
        gain = rows.gain
        rid_dense = nodes.rank[rcv]
        noise_mw = nodes.noise_mw[rcv]
        noise_db = nodes.noise_db[rcv]
        objs = nodes.receivers
        receivers = list(map(objs.__getitem__, rcv_list))
        heard = list(map(node_id, rows.heard_rcv.tolist()))
        names = nodes.mod_names
        mods = nodes.mod[rcv] if len(names) > 1 else None
        for k, sid in enumerate(nodes.id_list[s0:s1]):
            c0, c1 = cuts[k], cuts[k + 1]
            n = c1 - c0
            if mods is None:
                mod_names = names if n else []
                mod_ids = np.zeros(n, dtype=np.int64)
            else:
                used, mod_ids = np.unique(mods[c0:c1], return_inverse=True)
                mod_names = [names[i] for i in used.tolist()]
            batch = _SenderBatch(
                rids=rids[c0:c1],
                rid_list=rid_list[c0:c1],
                receivers=receivers[c0:c1],
                mean_gain=gain[c0:c1],
                noise_mw=noise_mw[c0:c1],
                noise_db=noise_db[c0:c1],
                pair_idx=slots[c0:c1],
                mod_uniform=mod_names[0] if len(mod_names) == 1 else None,
                mod_ids=mod_ids,
                mod_names=mod_names,
                rid_dense=rid_dense[c0:c1],
                cca_heard=frozenset(heard[heard_cuts[k] : heard_cuts[k + 1]]),
            )
            self._soa[sid] = batch

    def candidate_receivers(self, sender: int) -> List[Tuple[int, float]]:
        """(receiver, mean gain dB) pairs reachable from ``sender``, in
        candidate order: a fresh list read off the sender's batch."""
        if not self._finalized:
            self.finalize()
        batch = self._soa.get(sender)
        if batch is None:
            return []
        return list(zip(batch.rid_list, batch.mean_gain.tolist()))

    # ------------------------------------------------------------------
    # Carrier sense (spatially culled, mean-field)
    # ------------------------------------------------------------------
    def channel_clear(self, node_id: int) -> bool:
        """CCA at ``node_id`` against the precomputed carrier-reach sets."""
        if node_id not in self._participants:
            raise ValueError(
                f"channel_clear: node {node_id} is not attached to the medium"
            )
        if self.engine.now >= self._interferer_horizon:
            self.advance_interferers()
        active = self._active
        if not active:
            return True
        if not self._finalized:
            self.finalize()
        for tx in active:
            if tx.sender == node_id:
                continue
            if node_id in self._soa[tx.sender].cca_heard:
                return False
        return True

    # ------------------------------------------------------------------
    # Interference gather
    # ------------------------------------------------------------------
    def _inter_mw(self, oid: int, power_dbm: float) -> Any:
        """Mean interference power (mW) from ``oid`` at its in-reach receivers.

        ``(ranks, mw)``: the dense ranks of the interferer's entries in the
        interference-reach CSR (:meth:`_install_reach`) and the power at
        each, cached per (interferer, tx power) in *linear* milliwatts with
        the transmit power folded in (powers are fixed after hardware
        variation, and the power is part of the cache key regardless) —
        one float per in-reach entry, so the cache grows with the pairs,
        not with N².  The hot path scatter-adds each overlapping
        transmission into one zeroed dense buffer, then gathers through
        the batch's ``rid_dense`` index.  ``None`` means every receiver is
        out of reach.  Gains include the mean-field fading corrections
        (see DESIGN.md §9).
        """
        key = (oid, power_dbm)
        cached = self._inter_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        out: Any = None
        u = self._node_index.get(oid)
        if u is not None and self._reach_start[u] < self._reach_start[u + 1]:
            r0, r1 = self._reach_start[u], self._reach_start[u + 1]
            pairs = self._reach_pair[r0:r1]
            # (p + g + extra) / 10 in the scalar formula's operand order;
            # the power itself stays a scalar ``10.0 ** x`` per entry.
            arg = self._pair_gain[pairs]
            arg += power_dbm
            ou_extra = self._ou_mean_extra_db
            bimodal = self._g_bimodal
            if bimodal is None:
                arg += ou_extra
            else:
                # A candidate pair reads its resolved membership; any other
                # pair takes the expected-membership correction.
                slots = self._slot_by_pair[pairs]
                held = slots >= 0
                code = np.full(slots.size, 2)
                code[held] = bimodal[slots[held]]
                arg += np.array(
                    (
                        ou_extra,
                        ou_extra + self._bimodal_mean_extra_db,
                        ou_extra + self._expected_bimodal_extra_db,
                    )
                )[code]
            arg /= 10.0
            # The ranks are a view of the CSR: the key adds only its floats.
            out = (self._reach_rank[r0:r1], np.array([10.0**x for x in arg.tolist()]))
        self._inter_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # Reception (vectorized)
    # ------------------------------------------------------------------
    def _frame_bytes(self, sender_id: int, length_bytes: int) -> int:
        """On-air bytes of a ``length_bytes`` MAC frame from ``sender_id``."""
        params: RadioParams = self._participants[sender_id].radio.params
        return length_bytes + params.phy_overhead_bytes

    def _prr_table_for(self, modulation: str, frame_bytes: int) -> Any:
        key = (modulation, frame_bytes)
        table = self._prr_tables.get(key)
        if table is None:
            table = self._prr_tables[key] = prr_table(modulation, frame_bytes)
        return table

    def _evaluate_receptions(self, tx: _Transmission) -> None:
        frame = tx.frame
        assert frame is not None  # interferer bursts are never evaluated
        if not self._finalized:
            self.finalize()
        sender_id = tx.sender
        batch = self._soa[sender_id]
        if batch.n == 0:
            return  # zero-candidate sender: nothing in link-budget reach
        overlapping = self._overlapping(tx)
        t = tx.end
        channel = self.channel

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
                idx = keep.nonzero()[0]
                if idx.size == 0:
                    return
        else:
            idx = batch.all_idx
        full = idx is batch.all_idx

        # ---- time-varying gain: OU + Gilbert, advanced for queried pairs
        slots = batch.pair_idx if full else batch.pair_idx[idx]
        if self._ou_x is not None:
            extra = ou_advance(
                self._ou_x,
                self._ou_t,
                slots,
                t,
                self._ou_tau_s,
                self._ou_sigma,
                self._ou_freeze,
                self._ou_normals,
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
                    self._fade_uniforms,
                )
                # ``extra`` is a fresh array.  Subtracting the depth where
                # faded equals adding −depth; elsewhere adding 0.0 is the
                # identity (up to the sign of a zero, which the nonzero
                # mean gain below absorbs).
                extra[bi_pos[faded]] -= self._fade_depth
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

        # ---- SINR: noise plus spatially-culled mean-field interference --
        noise_mw = batch.noise_mw if full else batch.noise_mw[idx]
        inter_mw: Any = None
        if overlapping:
            touched = [self._inter_mw(o.sender, o.power_dbm) for o in overlapping]
            touched = [entry for entry in touched if entry is not None]
            if touched:
                # Each receiver's sum starts from 0.0 (the first write is
                # 0.0 + mw exactly) and adds the overlaps in order, so the
                # SINR is bit-reproducible.
                inter_sum = self._inter_sum
                (ranks, mw), *rest = touched
                inter_sum[ranks] = mw
                for ranks, mw in rest:
                    inter_sum[ranks] += mw
                inter_mw = inter_sum[batch.rid_dense if full else batch.rid_dense[idx]]
                inter_sum.fill(0.0)
        if inter_mw is not None:
            # rssi − 10·log10(noise + inter), one fresh array, in place.
            sinr = noise_mw + inter_mw
            np.log10(sinr, out=sinr)
            sinr *= _TEN
            np.subtract(rssi, sinr, out=sinr)
        else:
            sinr = rssi - (batch.noise_db if full else batch.noise_db[idx])

        # ---- decode decision: quantized PRR gather + one uniform draw ---
        if batch.mod_uniform is not None:
            table = batch.prr_tables.get(frame.length_bytes)
            if table is None:
                table = batch.prr_tables[frame.length_bytes] = self._prr_table_for(
                    batch.mod_uniform, self._frame_bytes(sender_id, frame.length_bytes)
                )
            prr = prr_lookup(table, sinr)
        else:
            frame_bytes = self._frame_bytes(sender_id, frame.length_bytes)
            prr = np.zeros(idx.size)
            mod_ids = batch.mod_ids if full else batch.mod_ids[idx]
            for mid, name in enumerate(batch.mod_names):
                mask = mod_ids == mid
                if mask.any():
                    prr[mask] = prr_lookup(
                        self._prr_table_for(name, frame_bytes), sinr[mask]
                    )
        decoded = self._rx_uniforms(idx.size) < prr
        if inter_mw is not None:
            # Undecoded frames whose interference outweighed the noise;
            # ``decoded < hot`` is ``~decoded & hot`` for booleans.
            self.collisions += int(np.count_nonzero(decoded < (inter_mw > noise_mw)))
        dec = decoded.nonzero()[0]
        if dec.size == 0:
            return

        # ---- LQI sample + white bit for the decoded subset --------------
        sinr_dec = sinr[dec]
        lqi = lqi_sample(
            sinr_dec,
            self._lqi_mid,
            self._lqi_slope,
            self._lqi_sigma,
            self._lqi_normals(dec.size),
        )
        wb_threshold = self._wb_threshold
        if wb_threshold is not None:
            white = lqi >= wb_threshold
        else:
            white_eval = self.white_bit_policy.evaluate
            white = np.fromiter(
                (white_eval(float(s), int(q)) for s, q in zip(sinr_dec, lqi)),
                dtype=bool,
                count=dec.size,
            )

        # ---- delivery (candidate order, late-bound callbacks) -----------
        # Addressed delivery (see ``MediumParticipant``): a decode at a node
        # the frame is not addressed to is counted, and reaches only the
        # probe's ``rx`` record.
        self.deliveries += dec.size
        self.white_bits_set += int(np.count_nonzero(white))
        dst = frame.dst
        to_all = dst == BROADCAST
        probe = self.probe
        overheard_rx = probe.rx if probe is not None and not frame.is_ack else None
        receivers = batch.receivers
        if not to_all and overheard_rx is None:
            # A unicast frame or ack nobody overhears: only the addressee's
            # decode, if any, is delivered.
            rid_pos = batch.rid_pos
            if rid_pos is None:
                rid_pos = batch.rid_pos = dict(zip(batch.rid_list, range(batch.n)))
            pos = rid_pos.get(dst)
            if pos is not None:
                # ``idx`` is ascending, and so is ``dec`` within it.
                j = pos if full else int(idx.searchsorted(pos))
                if j < idx.size and (full or idx[j] == pos) and decoded[j]:
                    k = int(dec.searchsorted(j))
                    info = RxInfo.__new__(RxInfo)
                    info.__dict__.update(
                        timestamp=t,
                        rssi_dbm=float(rssi[j]),
                        snr_db=float(sinr[j]),
                        lqi=int(lqi[k]),
                        white_bit=bool(white[k]),
                    )
                    receivers[pos].on_frame_received(frame, info)
            return
        rid_list = batch.rid_list
        rssi_list = rssi[dec].tolist()
        sinr_list = sinr_dec.tolist()
        lqi_list = lqi.tolist()
        white_list = white.tolist()
        pos_list = (dec if full else idx[dec]).tolist()
        rx_info_new = RxInfo.__new__
        for k in range(len(pos_list)):
            pos = pos_list[k]
            rid = rid_list[pos]
            info = rx_info_new(RxInfo)
            info.__dict__.update(
                timestamp=t,
                rssi_dbm=rssi_list[k],
                snr_db=sinr_list[k],
                lqi=lqi_list[k],
                white_bit=white_list[k],
            )
            receiver = receivers[pos]
            if to_all or rid == dst:
                receiver.on_frame_received(frame, info)
            elif getattr(receiver, "enabled", True):
                overheard_rx(rid, frame, info)


__all__ = ["FastRadioMedium", "SHADOW_MARGIN_SIGMAS"]
