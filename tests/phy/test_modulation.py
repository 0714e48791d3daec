"""Unit and property tests for the SNR→BER→PRR model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.modulation import (
    BER_MODELS,
    PRR_TABLE_SNR_MAX_CENTI,
    PRR_TABLE_SNR_MIN_CENTI,
    oqpsk_dsss_ber,
    prr,
    prr_from_snr,
    prr_from_snr_fast,
    prr_grid,
    snr_for_prr,
)


def test_ber_high_snr_is_tiny():
    assert oqpsk_dsss_ber(15.0) < 1e-9


def test_ber_low_snr_is_large():
    assert oqpsk_dsss_ber(-5.0) > 0.05


def test_ber_monotone_decreasing():
    snrs = [-5 + 0.5 * i for i in range(40)]
    bers = [oqpsk_dsss_ber(s) for s in snrs]
    assert all(a >= b for a, b in zip(bers, bers[1:]))


def test_prr_bounds():
    assert prr_from_snr(20.0, 40) == pytest.approx(1.0, abs=1e-9)
    assert prr_from_snr(-10.0, 40) < 1e-3


def test_prr_monotone_in_snr():
    prrs = [prr_from_snr(s, 40) for s in [-2, 0, 2, 4, 6, 8]]
    assert all(a <= b for a, b in zip(prrs, prrs[1:]))


def test_longer_frames_are_harder():
    snr = 3.0
    assert prr_from_snr(snr, 120) < prr_from_snr(snr, 20)


def test_prr_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        prr_from_snr(5.0, 0)


@pytest.mark.parametrize("modulation", sorted(BER_MODELS))
@pytest.mark.parametrize("length", [1, 17, 43, 133])
def test_prr_grid_entries_equal_prr_exactly(modulation, length):
    # The tables share one BER grid per modulation; each entry must still
    # be prr() at its grid SNR, bit for bit.
    table = prr_grid(modulation, length)
    snrs = [q / 100.0 for q in range(PRR_TABLE_SNR_MIN_CENTI, PRR_TABLE_SNR_MAX_CENTI + 1)]
    assert len(table) == len(snrs)
    assert [x.hex() for x in table] == [prr(modulation, s, length).hex() for s in snrs]


def test_prr_grid_rejects_bad_length_and_modulation():
    with pytest.raises(ValueError):
        prr_grid("oqpsk-dsss", 0)
    with pytest.raises(KeyError):
        prr_grid("no-such-modulation", 20)


def test_transition_region_location():
    # The O-QPSK/DSSS transition for ~40-byte frames sits in the −3..+1 dB
    # band (Zuniga & Krishnamachari, Fig. 2 of the TOSN paper).
    assert prr_from_snr(-3.0, 40) < 0.05
    assert prr_from_snr(-1.5, 40) < 0.6
    assert prr_from_snr(1.0, 40) > 0.95


def test_snr_for_prr_inverts():
    for target in (0.1, 0.5, 0.9, 0.99):
        snr = snr_for_prr(target, 40)
        assert prr_from_snr(snr, 40) == pytest.approx(target, abs=0.02)


def test_snr_for_prr_rejects_degenerate_targets():
    with pytest.raises(ValueError):
        snr_for_prr(0.0, 40)
    with pytest.raises(ValueError):
        snr_for_prr(1.0, 40)


def test_fast_path_matches_exact():
    for snr in [-6.0, -1.3, 0.0, 2.2, 3.7, 5.5, 9.1]:
        assert prr_from_snr_fast(snr, 46) == pytest.approx(
            prr_from_snr(snr, 46), abs=5e-3
        )


def test_fast_path_short_circuits():
    assert prr_from_snr_fast(20.0, 46) == 1.0
    assert prr_from_snr_fast(-15.0, 46) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-10, max_value=25, allow_nan=False),
    st.integers(min_value=1, max_value=200),
)
def test_property_prr_in_unit_interval(snr, length):
    value = prr_from_snr(snr, length)
    assert 0.0 <= value <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-8, max_value=15, allow_nan=False),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    st.integers(min_value=1, max_value=150),
)
def test_property_prr_monotone(snr, delta, length):
    assert prr_from_snr(snr + delta, length) >= prr_from_snr(snr, length)
