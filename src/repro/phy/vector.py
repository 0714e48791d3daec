"""Vectorized channel-state kernels for the fast medium backend.

The exact reception path (:mod:`repro.sim.medium`) advances one
Ornstein–Uhlenbeck state and replays one Gilbert dwell sequence per
candidate per transmission, in pure Python.  The fast backend
(:mod:`repro.sim.medium_fast`) keeps the same per-pair state but as
structure-of-arrays numpy batches, and this module holds the array
kernels that advance them:

* :func:`ou_advance` — the exact path's OU recurrence
  ``x' = x·e^(−dt/τ) + N(0, σ·sqrt(1 − e^(−2dt/τ)))`` applied to a whole
  slot array at once, honoring the same freeze threshold for
  sub-millisecond queries.
* :func:`gilbert_advance` — the two-state good/deep-fade process advanced
  by sampling the *analytic* continuous-time Markov transition probability
  instead of replaying exponential dwells.  Conditioning each query on the
  previous state keeps the joint law of the sampled trajectory identical
  to dwell replay (the process is Markov), so the fast path is
  distribution-equivalent, not merely marginally equivalent.
* :func:`prr_table` — the exact path's SNR→PRR table on its 0.01 dB
  quantization grid as an array, so a vectorized ``table[idx]`` gather
  returns byte-identical PRR values to ``repro.phy.modulation.prr_fast``.
* :func:`lqi_sample` — the :class:`~repro.phy.lqi.LqiModel` logistic plus
  measurement noise, clamped and rounded, for a whole decoded subset.
* :func:`mean_field_extra_db` — the Jensen correction for treating a
  fading interferer as a constant mean-gain source (see DESIGN.md §9).

Randomness: every kernel takes the draws it needs as explicit arguments
or a ``numpy.random.Generator``; nothing here touches global numpy RNG
state (lint rule D001 enforces this for the whole deterministic stack).

Cost model: a transmission's candidate arrays hold tens of elements, so
each numpy call's fixed dispatch cost (about a microsecond) outweighs its
arithmetic.  The kernels therefore minimise *calls* — in-place ``out=``
chains, ufuncs instead of Python-level wrappers such as ``np.clip`` —
while keeping every float operation and its operand order, so results
are bit-identical to the straightforward expressions they replace
(DESIGN.md §9, "per-transmission kernel").

Operand rule: every constant operand of a per-transmission ufunc is a 0-d
float64 array made once — the module's ``_ONE``, ``_HUNDRED`` …, and the
channel and LQI constants the medium converts in ``finalize`` — never a
Python number.  τ is the one exception: :func:`ou_advance` divides by
``−τ``, and negating a 0-d array is itself a ufunc call.  A ufunc converts a Python operand to an array on every call: on
numpy 2.4 a Python float costs about 0.2–0.4 µs more per call than a 0-d
array, and a Python int mixed into a float64 array up to about 1 µs
(``np.maximum(x, 40)`` 1.7 µs against 0.7 µs).  The converted value is the
same float64, so results do not change.  The kernels still accept Python
floats, which is what the scalar-reference tests pass.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Tuple

import numpy as np

from repro.phy.lqi import LQI_MAX, LQI_MIN, _LQI_SPAN
from repro.phy.modulation import PRR_TABLE_SNR_MAX_CENTI, PRR_TABLE_SNR_MIN_CENTI, prr_grid

_LN10_OVER_10 = math.log(10.0) / 10.0

#: Constant ufunc operands as 0-d float64 arrays (see "Operand rule").
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
_HUNDRED = np.array(100.0)
_PRR_FLOOR_DB = np.array(-8.0)
_PRR_MIN_CENTI = np.array(PRR_TABLE_SNR_MIN_CENTI, dtype=np.int64)
_LQI_MIN_F = np.array(float(LQI_MIN))
_LQI_MAX_F = np.array(float(LQI_MAX))
_LQI_SPAN_F = np.array(float(_LQI_SPAN))


def ou_advance(
    x: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    tau_s: float,
    sigma_db: float,
    freeze_s: float,
    normals: Callable[[int], Any],
) -> Any:
    """Advance the OU slots listed in ``slots`` to ``t_now``, in place.

    ``x`` / ``t_last`` are the global per-pair state arrays; ``slots`` an
    integer array of slot indices (each at most once); ``normals(n)``
    returns ``n`` standard-normal draws.  Queries closer than ``freeze_s``
    to the previous one see a frozen channel, matching the exact path's
    ``_ou_freeze_s`` behavior.  Returns the post-advance ``x[slots]``
    values, as a fresh array.

    Most calls mix frozen and moving slots.  One ``nonzero`` gives the
    moving positions and their count, and integer gathers take them (two
    boolean-mask gathers and a ``count_nonzero`` cost more); the
    all-moving case skips both gathers and the final one.  ``dt/(−τ)``
    equals ``−dt/τ`` exactly (IEEE division is sign-symmetric), and each
    in-place step is the same operation, in the same operand order, as the
    textbook expression above.  ``1 − e^(−2dt/τ)`` needs no clamp at 0: a moving
    slot has ``dt > freeze_s ≥ 0``, so ``e^(−dt/τ) ≤ 1``.
    """
    dt = t_last[slots]
    np.subtract(t_now, dt, out=dt)
    moving = (dt > freeze_s).nonzero()[0]
    n_moving = moving.size
    if n_moving == 0:
        return x[slots]
    if n_moving == slots.size:
        upd = slots
        decay = dt
    else:
        upd = slots[moving]
        decay = dt[moving]
    decay /= -tau_s
    np.exp(decay, out=decay)
    innovation = decay * decay
    np.subtract(_ONE, innovation, out=innovation)
    np.sqrt(innovation, out=innovation)
    innovation *= sigma_db
    innovation *= normals(n_moving)
    moved = x[upd]
    moved *= decay
    moved += innovation
    x[upd] = moved
    t_last[upd] = t_now
    return moved if upd is slots else x[slots]


def gilbert_advance(
    faded: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    fade_dwell_s: float,
    good_dwell_s: float,
    uniforms: Callable[[int], Any],
) -> Any:
    """Advance the bimodal (Gilbert) slots in ``slots`` to ``t_now``, in place.

    With good→fade rate ``a = 1/good_dwell`` and fade→good rate
    ``b = 1/fade_dwell``, the state at ``t+dt`` given the state at ``t`` is
    Bernoulli with

        P(faded) = π_f + (1{faded now} − π_f)·e^(−(a+b)·dt),
        π_f = fade_dwell / (fade_dwell + good_dwell)

    — the closed-form CTMC transition the exact path's dwell replay
    simulates.  ``uniforms(n)`` returns ``n`` draws in [0, 1), one per
    slot.  Returns the post-advance ``faded[slots]`` booleans.
    """
    a = 1.0 / good_dwell_s
    b = 1.0 / fade_dwell_s
    pi_faded = fade_dwell_s / (fade_dwell_s + good_dwell_s)
    dt = t_now - t_last[slots]
    decay = np.exp(-(a + b) * dt)
    was_faded = faded[slots].astype(np.float64)
    p_faded = pi_faded + (was_faded - pi_faded) * decay
    now_faded = uniforms(slots.size) < p_faded
    faded[slots] = now_faded
    t_last[slots] = t_now
    return now_faded


def prr_table(modulation: str, length_bytes: int) -> Any:
    """:func:`~repro.phy.modulation.prr_grid` as an array.

    Index ``i`` holds the PRR at ``(PRR_TABLE_SNR_MIN_CENTI + i) / 100``
    dB.  It is the exact path's table, so the two backends return
    bit-identical PRR for any in-range SNR.  Callers cache the returned
    array (≈26 KiB) per (modulation, length).

    The last entry (+25.00 dB) must be exactly 1.0: :func:`prr_lookup`
    relies on it to serve the exact path's ``snr ≥ 25 dB → 1.0``
    short-circuit from the clipped gather.
    """
    table = np.array(prr_grid(modulation, length_bytes), dtype=np.float64)
    if table[-1] != 1.0:
        raise ValueError(
            f"PRR table for {modulation!r}/{length_bytes} B does not saturate "
            f"at +25 dB (last entry {table[-1]!r}); prr_lookup needs exactly 1.0"
        )
    return table


def prr_lookup(table: Any, sinr_db: Any) -> Any:
    """Vectorized ``prr_fast``: short-circuits plus a quantized gather.

    ``np.rint`` rounds half-to-even exactly like the exact path's builtin
    ``round``, so the gather index matches scalar quantization.  The
    ``take(mode="clip")`` gather clamps out-of-range indices in the same
    call: every SNR ≥ 25 dB lands on the last entry, which
    :func:`prr_table` guarantees is 1.0.  The ``≤ −8 dB`` short-circuit
    needs its own masked store, because the first entry (−8.00 dB) is
    tiny but not zero.  SINR is always finite (path loss clamps at
    ``d0``), so no NaN reaches the comparison.
    """
    centi = sinr_db * _HUNDRED
    np.rint(centi, out=centi)
    idx = centi.astype(np.int64)
    idx -= _PRR_MIN_CENTI
    prr = table.take(idx, mode="clip")
    prr[sinr_db <= _PRR_FLOOR_DB] = _ZERO
    return prr


def lqi_sample(
    sinr_db: Any, midpoint_snr_db: float, slope_db: float, noise_sigma: float, normals: Any
) -> Any:
    """Vectorized :meth:`~repro.phy.lqi.LqiModel.sample` given standard-normal draws.

    Computes ``LQI_MIN + span/(1 + e^((mid − s)/slope)) + z·σ``, clamps it
    to ``[LQI_MIN, LQI_MAX]`` and rounds half-to-even, as the scalar model
    does with ``rng.gauss(0, σ)`` in place of ``z·σ``.  ``mid − s`` equals
    ``−(s − mid)`` exactly, and ``max``/``min`` against the integer bounds
    equal ``np.clip`` without its per-call wrapper cost.  ``normals`` is
    scaled in place.  Returns int64 LQI values.
    """
    value = midpoint_snr_db - sinr_db
    value /= slope_db
    np.exp(value, out=value)
    value += _ONE
    np.divide(_LQI_SPAN_F, value, out=value)
    value += _LQI_MIN_F
    normals *= noise_sigma
    value += normals
    np.maximum(value, _LQI_MIN_F, out=value)
    np.minimum(value, _LQI_MAX_F, out=value)
    np.rint(value, out=value)
    return value.astype(np.int64)


def mean_field_extra_db(
    temporal_sigma_db: float,
    bimodal_fraction: float,
    fade_depth_db: float,
    fade_dwell_s: float,
    good_dwell_s: float,
) -> Tuple[float, float]:
    """dB corrections for treating a fading link as its mean gain.

    Interference in the fast path uses the interferer→receiver *mean* gain
    instead of advancing that pair's OU/Gilbert state (the exact path's
    per-interferer state advance is the O(N²) term).  Dropping a zero-mean
    dB process understates the *linear-scale* mean power (Jensen), so the
    constant corrections below restore it:

    * OU:  E[10^(X/10)] for X ~ N(0, σ) is ``exp((σ·ln10/10)²/2)``,
      i.e. ``σ²·ln10/20`` dB (≈0.26 dB at σ = 1.5).
    * Gilbert:  a bimodal pair spends π_f of its time ``fade_depth``
      lower, so its mean linear gain factor is
      ``(1 − π_f) + π_f·10^(−depth/10)``.

    Returns ``(ou_extra_db, bimodal_extra_db)``; the second applies only
    to pairs resolved as bimodal (non-bimodal pairs get 0).
    """
    ou_extra = temporal_sigma_db * temporal_sigma_db * math.log(10.0) / 20.0
    if bimodal_fraction > 0.0:
        pi_faded = fade_dwell_s / (fade_dwell_s + good_dwell_s)
        factor = (1.0 - pi_faded) + pi_faded * 10.0 ** (-fade_depth_db / 10.0)
        bimodal_extra = 10.0 * math.log10(factor)
    else:
        bimodal_extra = 0.0
    return ou_extra, bimodal_extra


#: MT19937 (CPython's ``random.Random``): state size and twist offset, and
#: below, the constant state ``init_genrand(19650218)`` leaves for every
#: ``init_by_array`` to start from.
_MT_N = 624
_MT_M = 397


def _mt_init_table() -> Any:
    mt = [19650218]
    for i in range(1, _MT_N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


_MT_INIT = _mt_init_table()
_TWOPI = np.array(2.0 * math.pi)
_MINUS_TWO = np.array(-2.0)


def seeded_gauss(seeds: Any, sigma: float) -> Any:
    """``random.Random(seed).gauss(0.0, sigma)`` for every seed, bit for bit.

    ``seeds`` is a buffer of little-endian 64-bit seeds — a uint64 array,
    or the bytearray :meth:`repro.sim.rng.RngManager.once_seeds` writes.
    Returns the draws as a float64 array aligned with the seeds.  One
    array pass replaces a Mersenne Twister reseed per seed
    (:func:`_mt_first_uniforms`).  The Box–Muller step
    ``0.0 + cos(u·2π)·sqrt(−2·log(1 − v))·σ`` then runs with no Python
    bytecode per seed: ``cos`` and ``log`` are CPython's ``math``
    functions, mapped over one array's ``tolist()`` by
    :func:`map_float`, because numpy's transcendentals may differ in the
    last bit; every other step is one numpy ufunc in ``random.gauss``'s
    operand order, and ``+ − × sqrt`` round exactly as CPython's floats
    do.  ``0.0 + …`` is kept: it turns a ``−0.0`` draw into ``0.0``, as
    ``mu + z·sigma`` does.  The pass holds about 17 uint32 arrays of the
    seeds' length: callers bound it by passing seeds in chunks.
    """
    u1, u2 = _mt_first_uniforms(np.frombuffer(seeds, dtype="<u8"))
    u1 *= _TWOPI
    gauss = map_float(math.cos, u1)
    del u1
    np.subtract(_ONE, u2, out=u2)
    radius = map_float(math.log, u2)
    del u2
    np.multiply(_MINUS_TWO, radius, out=radius)
    np.sqrt(radius, out=radius)
    gauss *= radius
    del radius
    gauss *= sigma
    return np.add(_ZERO, gauss, out=gauss)


def map_float(fn: Callable[..., float], *args: Any) -> Any:
    """``fn`` (a CPython ``math`` function) applied per element, as float64.

    Each argument array goes through ``tolist()`` once, and ``map`` calls
    ``fn`` from C, so no Python bytecode runs per element.
    """
    values = map(fn, *(arg.tolist() for arg in args))
    return np.fromiter(values, np.float64, args[0].size)


def _mt_first_uniforms(seeds: Any) -> Tuple[Any, Any]:
    """The first two ``random()`` values of ``random.Random(seed)`` per seed.

    1. CPython seeds with ``init_by_array(key)``, ``key`` the seed's 32-bit
       words, low first (one word below 2³², else two).  Both of its loops
       are serial over the 624 state words but independent across seeds,
       so each step is one uint32 array operation over all seeds.  Loop 1
       adds ``key[j] + j`` with ``j`` cycling through the key, which for
       either length alternates between two per-seed arrays, so one pass
       serves both key lengths.  Loop 2 starts from loop 1's last word, so
       loop 1 runs once to its end and then again in lockstep with loop 2:
       memory stays O(seeds), not 624 words per seed.
    2. The first four tempered outputs come from the twist of state words
       0–4 and 397–400 alone, and ``res53`` is exact in float64.
    """
    n = seeds.size
    u32 = np.uint32
    low = seeds.astype(u32)
    high = (seeds >> np.uint64(32)).astype(u32)
    # Loop 1's addend on odd steps: key[0] + 0 again for a one-word key,
    # key[1] + 1 (mod 2³²) for a two-word key.  Even steps add key[0].
    adds = (low, np.where(high == 0, low, high + u32(1)))
    tmp = np.empty(n, u32)
    mult1 = u32(1664525)
    mult2 = u32(1566083941)

    def mix(prev: Any, old: Any, mult: Any, out: Any) -> Any:
        """``out = old ^ ((prev ^ (prev >> 30)) * mult)`` modulo 2³²."""
        np.right_shift(prev, 30, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mult, out=tmp)
        return np.bitwise_xor(tmp, old, out=out)

    # Loop 1, first word: its predecessor is the constant table's word 0.
    w0 = int(_MT_INIT[0])
    first = low + u32(((w0 ^ (w0 >> 30)) * 1664525 ^ int(_MT_INIT[1])) & 0xFFFFFFFF)
    # Loop 1 to its end: words 2..623, then the wrap rewrites word 1.
    loop1 = (np.empty(n, u32), np.empty(n, u32))
    prev = first
    for i in range(2, _MT_N):
        prev = mix(prev, _MT_INIT[i], mult1, loop1[i & 1])
        prev += adds[(i - 1) & 1]
    rewrapped = mix(prev, first, mult1, np.empty(n, u32))
    rewrapped += adds[(_MT_N - 1) & 1]
    # Loop 2 from word 2, with loop 1 re-run beside it for its old words.
    loop2 = (np.empty(n, u32), np.empty(n, u32))
    prev, prev2 = first, rewrapped
    kept = {}
    for i in range(2, _MT_N):
        prev = mix(prev, _MT_INIT[i], mult1, loop1[i & 1])
        prev += adds[(i - 1) & 1]
        prev2 = mix(prev2, prev, mult2, loop2[i & 1])
        prev2 -= u32(i)
        if i <= 4 or _MT_M <= i <= _MT_M + 4:
            kept[i] = prev2.copy()
    # The wrap: word 0 takes word 623, then word 1 is rewritten last.
    kept[1] = mix(prev2, rewrapped, mult2, rewrapped)
    kept[1] -= u32(1)
    # First four twisted and tempered outputs.  Word 0 is 0x80000000.
    outputs = []
    for k in range(4):
        upper = u32(0x80000000) if k == 0 else kept[k] & u32(0x80000000)
        y = kept[k + 1] & u32(0x7FFFFFFF)
        y |= upper
        v = (y & u32(1)) * u32(0x9908B0DF)
        v ^= kept[k + _MT_M]
        y >>= u32(1)
        v ^= y
        v ^= v >> u32(11)
        v ^= (v << u32(7)) & u32(0x9D2C5680)
        v ^= (v << u32(15)) & u32(0xEFC60000)
        v ^= v >> u32(18)
        outputs.append(v)

    def res53(a: Any, b: Any) -> Any:
        return ((a >> u32(5)) * 67108864.0 + (b >> u32(6))) * (1.0 / 9007199254740992.0)

    return res53(outputs[0], outputs[1]), res53(outputs[2], outputs[3])


def dbm_to_mw(dbm: Any) -> Any:
    """Vectorized dBm→mW (``10^(x/10)`` via ``exp`` — −inf maps to 0)."""
    return np.exp(np.asarray(dbm, dtype=np.float64) * _LN10_OVER_10)


__all__ = [
    "ou_advance",
    "gilbert_advance",
    "prr_table",
    "prr_lookup",
    "lqi_sample",
    "mean_field_extra_db",
    "dbm_to_mw",
    "seeded_gauss",
    "map_float",
    "PRR_TABLE_SNR_MIN_CENTI",
    "PRR_TABLE_SNR_MAX_CENTI",
]
