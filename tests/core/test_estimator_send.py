"""Unit tests for the estimator's layer-2.5 send path (header/footer)."""

import pytest

from repro.core.estimator import EstimatorConfig
from repro.link.frame import BROADCAST, LinkEstimatorFrame, NetworkFrame

from tests.core.helpers import beacon, build_estimator


def bcast(src=0) -> NetworkFrame:
    return NetworkFrame(src=src, dst=BROADCAST, length_bytes=16)


def test_broadcast_increments_sequence():
    est, _, engine = build_estimator()
    for expected_seq in range(3):
        assert est.send(bcast())
        engine.run()  # CSMA backoff, transmit, complete
        sent = est.mac.medium.log[-1][2]
        assert isinstance(sent, LinkEstimatorFrame)
        assert sent.le_seq == expected_seq


def test_sequence_wraps_at_256():
    est, _, engine = build_estimator()
    est._seq = 255
    est.send(bcast())
    engine.run()
    assert est._seq == 0


def test_unicast_does_not_increment_sequence():
    est, _, engine = build_estimator()
    est.send(NetworkFrame(src=0, dst=5, length_bytes=16))
    engine.run()
    assert est._seq == 0


def test_send_rejected_while_mac_busy():
    est, _, engine = build_estimator()
    assert est.send(bcast())
    assert not est.send(bcast())
    engine.run()
    assert est.send(bcast())


def test_footers_attached_when_enabled():
    config = EstimatorConfig(send_footers=True, kb=2)
    est, _, engine = build_estimator(config)
    # Two mature inbound neighbors to advertise.
    beacon(est, 7, seq=0)
    beacon(est, 7, seq=1)
    beacon(est, 8, seq=0)
    beacon(est, 8, seq=1)
    est.send(bcast())
    engine.run()
    sent = est.mac.medium.log[-1][2]
    advertised = {addr for addr, _ in sent.footer}
    assert advertised == {7, 8}
    for _, quality in sent.footer:
        assert quality == pytest.approx(1.0)


def test_footers_rotate_over_large_tables():
    config = EstimatorConfig(send_footers=True, kb=2, table_size=None)
    est, _, engine = build_estimator(config)
    for addr in range(10, 30):
        beacon(est, addr, seq=0)
        beacon(est, addr, seq=1)
    advertised = set()
    for _ in range(8):
        est.send(bcast())
        engine.run()
        sent = est.mac.medium.log[-1][2]
        assert len(sent.footer) <= LinkEstimatorFrame.MAX_FOOTER_ENTRIES
        advertised.update(addr for addr, _ in sent.footer)
    # Rotation covers far more neighbors than a single footer holds.
    assert len(advertised) > LinkEstimatorFrame.MAX_FOOTER_ENTRIES * 2


def test_no_footers_when_disabled():
    config = EstimatorConfig(send_footers=False, kb=2)
    est, _, engine = build_estimator(config)
    beacon(est, 7, seq=0)
    beacon(est, 7, seq=1)
    est.send(bcast())
    engine.run()
    sent = est.mac.medium.log[-1][2]
    assert sent.footer == []


def test_beacons_sent_counted():
    est, _, engine = build_estimator()
    est.send(bcast())
    engine.run()
    est.send(NetworkFrame(src=0, dst=5, length_bytes=16))
    engine.run()
    assert est.stats.beacons_sent == 1


def test_non_le_frames_ignored_on_receive():
    est, client, _ = build_estimator()
    est._mac_receive(NetworkFrame(src=3, dst=BROADCAST, length_bytes=16), None)
    assert client.received == []
    assert 3 not in est.table


def test_pin_interface_delegates_to_table():
    est, _, _ = build_estimator()
    beacon(est, 5, seq=0)
    assert est.pin(5)
    assert est.table.find(5).pinned
    assert est.unpin(5)
    assert not est.table.find(5).pinned
    est.pin(5)
    est.clear_pins()
    assert not est.table.find(5).pinned


def test_neighbors_lists_table_contents():
    est, _, _ = build_estimator()
    beacon(est, 5, seq=0)
    beacon(est, 6, seq=0)
    assert sorted(est.neighbors()) == [5, 6]
