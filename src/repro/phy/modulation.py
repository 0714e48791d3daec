"""SNR → BER → PRR models for the simulated radios.

The primary model is the O-QPSK / DSSS expression used for CC2420-class
802.15.4 radios by Zuniga & Krishnamachari ("An Analysis of Unreliability
and Asymmetry in Low-Power Wireless Links", TOSN 2007 — the paper's
reference [24]):

    BER = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))

with γ the linear SNR.  Packet reception ratio for an L-byte frame is then
``(1 − BER)^(8L)``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

# C(16, k) for k = 2..16, precomputed.
_BINOM_16 = [math.comb(16, k) for k in range(17)]

#: Per-term constants of the alternating sum below: the sign-folded
#: binomial coefficient ``(−1)^k·C(16,k)`` and the exponent factor
#: ``1/k − 1``.  Folding the sign into the coefficient and hoisting
#: ``20·γ`` out of the loop leaves the floating-point result bit-identical:
#: ``(−c)·x == −(c·x)`` exactly, and ``20·γ·(1/k − 1)`` already associates
#: as ``(20·γ)·(1/k − 1)``.
_OQPSK_TERMS = [
    ((1.0 if k % 2 == 0 else -1.0) * _BINOM_16[k], 1.0 / k - 1.0) for k in range(2, 17)
]


def oqpsk_dsss_ber(snr_db: float) -> float:
    """Bit error rate of O-QPSK with DSSS (CC2420-class) at ``snr_db``."""
    gamma = 10.0 ** (snr_db / 10.0)
    g20 = 20.0 * gamma
    exp = math.exp
    acc = 0.0
    for coef, factor in _OQPSK_TERMS:
        acc += coef * exp(g20 * factor)
    ber = (8.0 / 15.0) * (1.0 / 16.0) * acc
    # Numerical guard: the alternating sum can underflow to tiny negatives.
    return min(max(ber, 0.0), 1.0)


def prr_from_snr(snr_db: float, length_bytes: int) -> float:
    """Packet reception ratio for an ``length_bytes``-byte frame."""
    if length_bytes <= 0:
        raise ValueError(f"length_bytes must be positive: {length_bytes}")
    ber = oqpsk_dsss_ber(snr_db)
    if ber <= 0.0:
        return 1.0
    if ber >= 1.0:
        return 0.0
    return (1.0 - ber) ** (8 * length_bytes)


def ncfsk_ber(snr_db: float, bandwidth_bitrate_ratio: float = 1.5625) -> float:
    """Non-coherent FSK bit error rate (CC1000-class radios, e.g. Mica2).

    ``BER = ½·exp(−(Eb/N0)/2)`` with ``Eb/N0 = SNR·(B_N/R)``; the default
    ratio uses the CC1000's 30 kHz noise bandwidth at 19.2 kbps, following
    Zuniga & Krishnamachari.  NC-FSK's transition region sits ~10 dB higher
    than O-QPSK/DSSS and is much wider — the famously gray Mica2 links.
    """
    gamma = 10.0 ** (snr_db / 10.0)
    ber = 0.5 * math.exp(-0.5 * gamma * bandwidth_bitrate_ratio)
    return min(max(ber, 0.0), 1.0)


#: Modulation registry: name → BER function.
BER_MODELS = {
    "oqpsk-dsss": oqpsk_dsss_ber,
    "ncfsk": ncfsk_ber,
}


def prr(modulation: str, snr_db: float, length_bytes: int) -> float:
    """Packet reception ratio under the named modulation."""
    if length_bytes <= 0:
        raise ValueError(f"length_bytes must be positive: {length_bytes}")
    ber = BER_MODELS[modulation](snr_db)
    if ber <= 0.0:
        return 1.0
    if ber >= 1.0:
        return 0.0
    return (1.0 - ber) ** (8 * length_bytes)


#: The quantized SNR grid of :func:`prr_grid`, in centi-dB: the transition
#: region :func:`prr_fast` does not short-circuit, [−8.00 dB, +25.00 dB].
PRR_TABLE_SNR_MIN_CENTI = -800
PRR_TABLE_SNR_MAX_CENTI = 2500


@lru_cache(maxsize=None)
def _ber_grid(modulation: str) -> Tuple[float, ...]:
    """The modulation's BER on the :func:`prr_grid` SNR grid, computed once."""
    ber = BER_MODELS[modulation]
    return tuple(
        ber(q / 100.0) for q in range(PRR_TABLE_SNR_MIN_CENTI, PRR_TABLE_SNR_MAX_CENTI + 1)
    )


@lru_cache(maxsize=128)
def prr_grid(modulation: str, length_bytes: int) -> Tuple[float, ...]:
    """:func:`prr` on the 0.01 dB grid for one (modulation, frame length).

    Entry ``i`` is the PRR at ``(PRR_TABLE_SNR_MIN_CENTI + i) / 100`` dB.  This
    is the one PRR table: :func:`prr_fast`, the exact medium's reception
    loop and :func:`repro.phy.vector.prr_table` all index it, so every
    backend returns bit-identical PRR for a given SNR.  A tuple, because
    every caller shares it.  The BER grid is computed once per modulation
    and each frame length only applies :func:`prr`'s last step to it, so
    the many frame lengths of a run (up to 10 on a 12-node Mirage) cost
    one BER sweep between them.
    """
    if length_bytes <= 0:
        raise ValueError(f"length_bytes must be positive: {length_bytes}")
    bits = 8 * length_bytes
    return tuple(
        1.0 if ber <= 0.0 else 0.0 if ber >= 1.0 else (1.0 - ber) ** bits
        for ber in _ber_grid(modulation)
    )


def prr_fast(modulation: str, snr_db: float, length_bytes: int) -> float:
    """:func:`prr` on a 0.01 dB SNR grid (:func:`prr_grid`).

    The medium decides every candidate reception this way; quantizing SNR
    to 0.01 dB changes PRR by far less than the model's own fidelity.  SNRs
    outside any modulation's transition region short-circuit.
    """
    if snr_db >= 25.0:
        return 1.0
    if snr_db <= -8.0:
        return 0.0
    return prr_grid(modulation, length_bytes)[round(snr_db * 100.0) - PRR_TABLE_SNR_MIN_CENTI]


def prr_from_snr_fast(snr_db: float, length_bytes: int) -> float:
    """O-QPSK/DSSS shortcut kept for callers that predate the registry."""
    return prr_fast("oqpsk-dsss", snr_db, length_bytes)


@lru_cache(maxsize=None)
def snr_for_prr(target_prr: float, length_bytes: int) -> float:
    """Invert :func:`prr_from_snr` by bisection (dB, ±0.01 dB).

    Useful for calibrating topologies and white-bit thresholds.
    """
    if not 0.0 < target_prr < 1.0:
        raise ValueError(f"target_prr must be in (0, 1): {target_prr}")
    lo, hi = -10.0, 30.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if prr_from_snr(mid, length_bytes) < target_prr:
            lo = mid
        else:
            hi = mid
        if hi - lo < 0.01:
            break
    return 0.5 * (lo + hi)
