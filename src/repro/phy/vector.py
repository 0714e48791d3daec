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
* :func:`prr_table` — the SNR→PRR curve sampled on the exact path's
  0.01 dB quantization grid, so a vectorized ``table[idx]`` gather returns
  byte-identical PRR values to ``repro.phy.modulation.prr_fast``.
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
"""

from __future__ import annotations

import math
from typing import Any, Tuple

import numpy as np

from repro.phy.lqi import LQI_MAX, LQI_MIN, _LQI_SPAN
from repro.phy.modulation import _prr_quantized

#: The exact path short-circuits PRR outside the transition region; the
#: table covers exactly the quantized interior, [−8.00 dB, +25.00 dB].
PRR_TABLE_SNR_MIN_CENTI = -800
PRR_TABLE_SNR_MAX_CENTI = 2500

_LN10_OVER_10 = math.log(10.0) / 10.0


def ou_advance(
    x: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    tau_s: float,
    sigma_db: float,
    freeze_s: float,
    gen: Any,
) -> Any:
    """Advance the OU slots listed in ``slots`` to ``t_now``, in place.

    ``x`` / ``t_last`` are the global per-pair state arrays; ``slots`` an
    integer array of slot indices (each at most once).  Queries closer than
    ``freeze_s`` to the previous one see a frozen channel, matching the
    exact path's ``_ou_freeze_s`` behavior.  Returns the post-advance
    ``x[slots]`` values.

    Most calls mix frozen and moving slots; the all-moving case skips the
    two mask gathers.  ``dt/(−τ)`` equals ``−dt/τ`` exactly (IEEE division
    is sign-symmetric), and each in-place step is the same operation, in
    the same operand order, as the textbook expression above.
    """
    dt = t_last[slots]
    np.subtract(t_now, dt, out=dt)
    moving = dt > freeze_s
    n_moving = np.count_nonzero(moving)
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
    np.subtract(1.0, innovation, out=innovation)
    np.maximum(innovation, 0.0, out=innovation)
    np.sqrt(innovation, out=innovation)
    innovation *= sigma_db
    innovation *= gen.standard_normal(n_moving)
    moved = x[upd]
    moved *= decay
    moved += innovation
    x[upd] = moved
    t_last[upd] = t_now
    return x[slots]


def gilbert_advance(
    faded: Any,
    t_last: Any,
    slots: Any,
    t_now: float,
    fade_dwell_s: float,
    good_dwell_s: float,
    gen: Any,
) -> Any:
    """Advance the bimodal (Gilbert) slots in ``slots`` to ``t_now``, in place.

    With good→fade rate ``a = 1/good_dwell`` and fade→good rate
    ``b = 1/fade_dwell``, the state at ``t+dt`` given the state at ``t`` is
    Bernoulli with

        P(faded) = π_f + (1{faded now} − π_f)·e^(−(a+b)·dt),
        π_f = fade_dwell / (fade_dwell + good_dwell)

    — the closed-form CTMC transition the exact path's dwell replay
    simulates.  Returns the post-advance ``faded[slots]`` booleans.
    """
    a = 1.0 / good_dwell_s
    b = 1.0 / fade_dwell_s
    pi_faded = fade_dwell_s / (fade_dwell_s + good_dwell_s)
    dt = t_now - t_last[slots]
    decay = np.exp(-(a + b) * dt)
    was_faded = faded[slots].astype(np.float64)
    p_faded = pi_faded + (was_faded - pi_faded) * decay
    now_faded = gen.random(slots.size) < p_faded
    faded[slots] = now_faded
    t_last[slots] = t_now
    return now_faded


def prr_table(modulation: str, length_bytes: int) -> Any:
    """PRR over the quantized SNR grid for one (modulation, frame length).

    Index ``i`` holds the PRR at ``(PRR_TABLE_SNR_MIN_CENTI + i) / 100``
    dB, computed through the exact path's ``_prr_quantized`` so the two
    backends return bit-identical PRR for any in-range SNR.  Callers cache
    the returned array (≈26 KiB) per (modulation, length).

    The last entry (+25.00 dB) must be exactly 1.0: :func:`prr_lookup`
    relies on it to serve the exact path's ``snr ≥ 25 dB → 1.0``
    short-circuit from the clipped gather.
    """
    centi = range(PRR_TABLE_SNR_MIN_CENTI, PRR_TABLE_SNR_MAX_CENTI + 1)
    table = np.fromiter(
        (_prr_quantized(modulation, q, length_bytes) for q in centi),
        dtype=np.float64,
        count=PRR_TABLE_SNR_MAX_CENTI - PRR_TABLE_SNR_MIN_CENTI + 1,
    )
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
    idx = np.rint(sinr_db * 100.0).astype(np.int64)
    idx -= PRR_TABLE_SNR_MIN_CENTI
    prr = table.take(idx, mode="clip")
    prr[sinr_db <= -8.0] = 0.0
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
    value += 1.0
    np.divide(_LQI_SPAN, value, out=value)
    value += LQI_MIN
    normals *= noise_sigma
    value += normals
    np.maximum(value, LQI_MIN, out=value)
    np.minimum(value, LQI_MAX, out=value)
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
    "PRR_TABLE_SNR_MIN_CENTI",
    "PRR_TABLE_SNR_MAX_CENTI",
]
