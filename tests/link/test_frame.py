"""Unit tests for frame formats and the layer-2.5 wrapping."""

import pytest

from repro.link.frame import (
    BROADCAST,
    AckFrame,
    Frame,
    LinkEstimatorFrame,
    NetworkFrame,
    le_wrap,
)


def test_broadcast_detection():
    assert Frame(src=1, dst=BROADCAST, length_bytes=10).is_broadcast
    assert not Frame(src=1, dst=2, length_bytes=10).is_broadcast


def test_frame_ids_unique():
    a = Frame(src=1, dst=2, length_bytes=10)
    b = Frame(src=1, dst=2, length_bytes=10)
    assert a.frame_id != b.frame_id


def test_le_wrap_adds_header_bytes():
    payload = NetworkFrame(src=1, dst=BROADCAST, length_bytes=20)
    wrapped = le_wrap(payload, le_seq=5)
    assert wrapped.length_bytes == 20 + LinkEstimatorFrame.HEADER_BYTES
    assert wrapped.le_seq == 5
    assert wrapped.payload is payload


def test_le_wrap_adds_footer_bytes():
    payload = NetworkFrame(src=1, dst=BROADCAST, length_bytes=20)
    footer = [(2, 0.9), (3, 0.8)]
    wrapped = le_wrap(payload, le_seq=0, footer=footer)
    expected = 20 + LinkEstimatorFrame.HEADER_BYTES + 2 * LinkEstimatorFrame.FOOTER_ENTRY_BYTES
    assert wrapped.length_bytes == expected
    assert wrapped.footer == footer


def test_le_wrap_preserves_addressing():
    payload = NetworkFrame(src=7, dst=3, length_bytes=20)
    wrapped = le_wrap(payload, le_seq=0)
    assert wrapped.src == 7 and wrapped.dst == 3
    assert not wrapped.is_broadcast


def test_footer_overflow_rejected():
    payload = NetworkFrame(src=1, dst=BROADCAST, length_bytes=20)
    footer = [(i, 1.0) for i in range(LinkEstimatorFrame.MAX_FOOTER_ENTRIES + 1)]
    with pytest.raises(ValueError):
        le_wrap(payload, le_seq=0, footer=footer)


@pytest.mark.parametrize("seq", [-1, 256])
def test_le_seq_out_of_range_rejected(seq):
    payload = NetworkFrame(src=1, dst=BROADCAST, length_bytes=20)
    with pytest.raises(ValueError):
        le_wrap(payload, le_seq=seq)


def test_describe_strings():
    payload = NetworkFrame(src=1, dst=BROADCAST, length_bytes=20)
    wrapped = le_wrap(payload, le_seq=9)
    assert "seq=9" in wrapped.describe()
    assert AckFrame(src=1, dst=2, length_bytes=5, acked_frame_id=77).describe() == "Ack(77)"


def test_network_frame_route_info_default():
    assert not NetworkFrame(src=1, dst=2, length_bytes=10).carries_route_info
