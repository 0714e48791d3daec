"""Wireless channel model: path loss, static shadowing, temporal fading.

The channel gain between two positions is

    gain(a, b, t) = −[PL(d0) + 10·n·log10(d/d0)] + S_ab + X_ab(t)

where ``S_ab`` is static log-normal shadowing (per unordered pair, drawn
once — the testbeds in the paper are static) and ``X_ab(t)`` is a slow
Ornstein–Uhlenbeck process capturing the time-varying component of the
channel (people moving, multipath drift).  Asymmetry between the two
directions of a link comes from per-node hardware variation (transmit
power and noise-floor offsets, see :mod:`repro.phy.radio`), matching the
measurement literature the paper cites.

This module sits on the exact medium's hottest path (one gain query per
candidate reception and per overlapping interferer), so per-pair state is
organized for cheap repeated queries: the time-invariant gain is cached
per pair, and each OU / Gilbert state object carries its own pre-bound
RNG stream.  The caches hold values that are pure functions of their
keys, so they cannot change simulated results — the determinism contract
in DESIGN.md relies on this.  Per-pair values drawn once (static
shadowing, the OU initial value, bimodal membership and initial state)
come from :meth:`RngManager.once`, which reproduces a fresh named
stream's first draws without keeping a generator per pair alive.  The
fast medium asks for every in-reach pair's mean gain at once
(:meth:`ChannelModel.mean_gains`) and keeps the values in its own pair
arrays, so on that backend these caches stay empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.sim.rng import RngManager

Position = Tuple[float, float]

#: Pairs per chunk of :meth:`ChannelModel.mean_gains`: bounds the gain
#: pass's transient arrays and lists.  32k–64k pairs is the fastest size
#: for the Mersenne Twister pass; 2,048 takes over twice as long.
_GAIN_CHUNK = 32768

#: Sentinel distinguishing "not yet decided" from "decided: not bimodal".
_MISSING = object()

@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss."""

    pl_d0_db: float = 55.0
    exponent: float = 3.0
    d0_m: float = 1.0

    def loss_db(self, distance_m: float) -> float:
        d = max(distance_m, self.d0_m)
        return self.pl_d0_db + 10.0 * self.exponent * math.log10(d / self.d0_m)


class _OUState:
    """Lazy Ornstein–Uhlenbeck sample: advanced only when queried.

    Carries its own pre-bound update stream so the per-query tuple-keyed
    ``RngManager.stream`` lookup disappears from the hot path.
    """

    __slots__ = ("t", "x", "stream")

    def __init__(self, stream: Random) -> None:
        self.t = 0.0
        self.x = 0.0
        self.stream = stream


class _GilbertState:
    """Lazy two-state (good / deep-fade) process, advanced only when queried.

    Like :class:`_OUState`, carries its pre-bound dwell stream.
    """

    __slots__ = ("t", "faded", "stream")

    def __init__(self, stream: Random) -> None:
        self.t = 0.0
        self.faded = False
        self.stream = stream


def _index_of(ids: Any, query: Any) -> Any:
    """Positions of ``query``'s ids in the sorted id array ``ids``.

    Raises ``KeyError`` for an id with no position, as the scalar path's
    ``positions[id]`` does.
    """
    at = ids.searchsorted(query)
    found = ids.take(at, mode="clip")
    if not (found == query).all():
        raise KeyError(int(query[found != query][0]))
    return at


class ChannelModel:
    """Per-pair channel gains over a set of node positions.

    Positions are registered up front (static network); interferers may be
    registered later with :meth:`add_position`.
    """

    def __init__(
        self,
        positions: Mapping[int, Position],
        rng: RngManager,
        pathloss: PathLossModel = PathLossModel(),
        shadowing_sigma_db: float = 3.2,
        temporal_sigma_db: float = 1.5,
        temporal_tau_s: float = 60.0,
        bimodal_fraction: float = 0.0,
        fade_depth_db: float = 15.0,
        fade_dwell_s: float = 80.0,
        good_dwell_s: float = 240.0,
    ) -> None:
        self.positions: Dict[int, Position] = dict(positions)
        self.pathloss = pathloss
        self.shadowing_sigma_db = shadowing_sigma_db
        self.temporal_sigma_db = temporal_sigma_db
        self.temporal_tau_s = temporal_tau_s
        #: Fraction of pairs that are *bimodal*: they alternate between their
        #: nominal gain and a deep multipath fade (Srinivasan et al., the
        #: paper's reference [19]).  During a fade PRR collapses to ~0 while
        #: the few packets that do get through still decode cleanly — the
        #: temporal variation physical-layer indicators cannot flag.
        self.bimodal_fraction = bimodal_fraction
        self.fade_depth_db = fade_depth_db
        self.fade_dwell_s = fade_dwell_s
        self.good_dwell_s = good_dwell_s
        self._rng = rng
        self._shadowing: Dict[Tuple[int, int], float] = {}
        self._ou: Dict[Tuple[int, int], _OUState] = {}
        self._gilbert: Dict[Tuple[int, int], Optional[_GilbertState]] = {}
        #: Cached time-invariant gain (path loss + shadowing) per pair.
        self._mean_gain: Dict[Tuple[int, int], float] = {}
        #: Queries closer together than this see a frozen OU channel
        #: (acks, back-to-back receptions): below 1% of tau.
        self._ou_freeze_s = 0.01 * temporal_tau_s

    # ------------------------------------------------------------------
    def add_position(self, node_id: int, pos: Position) -> None:
        """Register a late participant (e.g. an external interferer)."""
        if node_id in self.positions:
            raise ValueError(f"duplicate node id {node_id}")
        self.positions[node_id] = pos

    def distance(self, a: int, b: int) -> float:
        (ax, ay), (bx, by) = self.positions[a], self.positions[b]
        return math.hypot(ax - bx, ay - by)

    # ------------------------------------------------------------------
    def _pair(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def _static_shadowing_db(self, a: int, b: int) -> float:
        key = self._pair(a, b)
        if key not in self._shadowing:
            stream = self._rng.once("shadow", key[0], key[1])
            self._shadowing[key] = stream.gauss(0.0, self.shadowing_sigma_db)
        return self._shadowing[key]

    def _temporal_for(self, key: Tuple[int, int], t: float) -> float:
        """OU component for an ordered pair ``key``, advanced lazily to ``t``."""
        state = self._ou.get(key)
        if state is None:
            a, b = key
            state = _OUState(self._rng.stream("ou", a, b))
            state.x = self._rng.once("ou-init", a, b).gauss(0.0, self.temporal_sigma_db)
            state.t = t
            self._ou[key] = state
            return state.x
        dt = t - state.t
        # Sub-millisecond-scale queries (acks, back-to-back receptions) see
        # an effectively frozen channel; skip the update below 1% of tau.
        if dt > self._ou_freeze_s:
            decay = math.exp(-dt / self.temporal_tau_s)
            innovation_sigma = self.temporal_sigma_db * math.sqrt(max(0.0, 1.0 - decay * decay))
            state.x = state.x * decay + state.stream.gauss(0.0, innovation_sigma)
            state.t = t
        return state.x

    def temporal_db(self, a: int, b: int, t: float) -> float:
        """Time-varying gain component (OU process), advanced lazily to ``t``."""
        if self.temporal_sigma_db <= 0.0:
            return 0.0
        return self._temporal_for(self._pair(a, b), t)

    def _fade_for(self, key: Tuple[int, int], t: float) -> float:
        """Deep-fade component for an ordered pair ``key`` (0 for normal pairs)."""
        state = self._gilbert.get(key, _MISSING)
        if state is _MISSING:
            a, b = key
            # Membership and initial state are the first two draws of one
            # one-shot stream; the dwell stream below touches no scratch.
            stream = self._rng.once("bimodal", a, b)
            if stream.random() < self.bimodal_fraction:
                state = _GilbertState(self._rng.stream("bimodal-dwell", a, b))
                state.t = t
                # Start in the good state with the stationary probability.
                p_good = self.good_dwell_s / (self.good_dwell_s + self.fade_dwell_s)
                state.faded = stream.random() >= p_good
            else:
                state = None
            self._gilbert[key] = state
        if state is None:
            return 0.0
        # Lazily replay exponential state flips from the last query to t.
        stream = state.stream
        state_t = state.t
        faded = state.faded
        fade_dwell = self.fade_dwell_s
        good_dwell = self.good_dwell_s
        while True:
            dwell_mean = fade_dwell if faded else good_dwell
            dwell = stream.expovariate(1.0 / dwell_mean)
            if state_t + dwell > t:
                break
            state_t += dwell
            faded = not faded
        state.t = state_t
        state.faded = faded
        return -self.fade_depth_db if faded else 0.0

    def _fade_db(self, a: int, b: int, t: float) -> float:
        """Deep-fade contribution of a bimodal pair (0 for normal pairs)."""
        if self.bimodal_fraction <= 0.0:
            return 0.0
        return self._fade_for(self._pair(a, b), t)

    # ------------------------------------------------------------------
    def _mean_for(self, key: Tuple[int, int], a: int, b: int) -> float:
        mean = self._mean_gain.get(key)
        if mean is None:
            mean = -self.pathloss.loss_db(self.distance(a, b)) + self._static_shadowing_db(a, b)
            self._mean_gain[key] = mean
        return mean

    def mean_gain_db(self, a: int, b: int) -> float:
        """Time-invariant part of the gain (path loss + static shadowing)."""
        return self._mean_for(self._pair(a, b), a, b)

    def mean_gains(self, a: Any, b: Any) -> Any:
        """:meth:`mean_gain_db` of many pairs: a float64 array, no cache.

        ``a`` and ``b`` are int arrays of endpoint ids; entry ``k`` is the
        mean gain between ``a[k]`` and ``b[k]``.  The fast medium's
        set-up calls this once for every in-reach pair and keeps the
        result aligned with its pair arrays, so nothing is stored here:
        ``_shadowing`` and ``_mean_gain`` stay empty, and no key tuple or
        float object outlives the call.  The static shadowing comes from
        batched draws, :func:`repro.phy.vector.seeded_gauss` over
        :meth:`RngManager.once_seeds`, which reproduce
        ``once("shadow", lo, hi).gauss(0, σ)`` bit for bit.

        The path loss runs with no Python bytecode per pair, and term for
        term as :meth:`PathLossModel.loss_db` computes it, so the values
        equal :meth:`mean_gain_db`'s exactly.  ``math.hypot`` and
        ``math.log10`` are CPython's, applied per element
        (:func:`repro.phy.vector.map_float`), because numpy's
        transcendentals may differ in the last bit.  Every other step is
        one numpy ufunc in the scalar formula's operand order (``ax − bx``,
        the ``d0`` clamp, ``d/d0``, ``10n·L``, ``PL(d0) + …``, negation,
        ``+ s``), and numpy's ``+ − × ÷ maximum`` round exactly as
        CPython's floats do.  Coordinates come from id-sorted arrays by
        ``searchsorted``: ids may be sparse and large.  Pairs go through
        in chunks of ``_GAIN_CHUNK``, so the transient arrays and lists of
        a draw stay bounded.
        """
        # Imported here: numpy is a fast-medium dependency, and an exact
        # run must not load it (set-up time and memory of small runs).
        import numpy as np

        from repro.phy.vector import map_float, seeded_gauss

        positions = self.positions
        ids = np.array(sorted(positions), dtype=np.int64)
        xy = np.array([positions[nid] for nid in ids.tolist()], dtype=np.float64)
        xs, ys = xy.reshape(-1, 2).T
        pathloss = self.pathloss
        pl_d0 = pathloss.pl_d0_db
        ten_n = 10.0 * pathloss.exponent
        d0 = pathloss.d0_m
        out = np.empty(len(a))

        def fill(part: slice) -> None:
            """``out[part]``; its temporaries die before the next chunk's."""
            one = np.minimum(a[part], b[part])
            two = np.maximum(a[part], b[part])
            seeds = self._rng.once_seeds("shadow", one, two)
            at_one, at_two = _index_of(ids, one), _index_of(ids, two)
            del one, two
            dx = xs[at_one]
            dx -= xs[at_two]
            dy = ys[at_one]
            dy -= ys[at_two]
            del at_one, at_two
            gain = map_float(math.hypot, dx, dy)
            del dx, dy
            np.maximum(gain, d0, out=gain)
            gain /= d0
            gain = map_float(math.log10, gain)
            np.multiply(ten_n, gain, out=gain)
            np.add(pl_d0, gain, out=gain)
            np.negative(gain, out=gain)
            gain += seeded_gauss(seeds, self.shadowing_sigma_db)
            out[part] = gain

        for lo in range(0, out.size, _GAIN_CHUNK):
            fill(slice(lo, lo + _GAIN_CHUNK))
        return out

    def gain_db(self, a: int, b: int, t: float) -> float:
        """Instantaneous channel gain (symmetric) at simulated time ``t``."""
        key = (a, b) if a <= b else (b, a)
        gain = self._mean_for(key, a, b)
        if self.temporal_sigma_db > 0.0:
            gain += self._temporal_for(key, t)
        if self.bimodal_fraction > 0.0:
            gain += self._fade_for(key, t)
        return gain

    def instantaneous_extra_db(self, a: int, b: int, t: float) -> float:
        """All time-varying gain components (OU fading + bimodal deep fades).

        The medium adds this to a cached mean gain, avoiding recomputing
        path loss and shadowing on every reception.
        """
        key = (a, b) if a <= b else (b, a)
        if self.temporal_sigma_db > 0.0:
            extra = self._temporal_for(key, t)
        else:
            extra = 0.0
        if self.bimodal_fraction > 0.0:
            extra += self._fade_for(key, t)
        return extra
