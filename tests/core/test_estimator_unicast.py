"""Unit tests for the estimator's unicast (ack bit) stream."""

import math

import pytest

from repro.core.estimator import EstimatorConfig

from tests.core.helpers import beacon, build_estimator, unicast_attempt

NBR = 3


def seeded_estimator(**overrides):
    defaults = dict(ku=5, kb=2, alpha_outer=0.0, alpha_beacon=0.0, use_ack_stream=True)
    defaults.update(overrides)
    est, client, engine = build_estimator(EstimatorConfig(**defaults))
    beacon(est, NBR, seq=0)
    beacon(est, NBR, seq=1)  # table entry + bootstrap estimate of 1.0
    return est


def test_no_sample_before_window_fills():
    est = seeded_estimator()
    for _ in range(4):
        unicast_attempt(est, NBR, acked=True)
    assert est.stats.unicast_samples == 0
    assert est.link_quality(NBR) == pytest.approx(1.0)


def test_all_acked_window_gives_etx_one():
    est = seeded_estimator()
    for _ in range(5):
        unicast_attempt(est, NBR, acked=True)
    assert est.stats.unicast_samples == 1
    assert est.link_quality(NBR) == pytest.approx(1.0)


def test_partial_acks_window():
    est = seeded_estimator()
    for acked in (True, False, True, False, True):
        unicast_attempt(est, NBR, acked)
    # alpha_outer = 0 → quality equals the latest sample: 5/3.
    assert est.link_quality(NBR) == pytest.approx(5.0 / 3.0)


def test_zero_acks_window_uses_consecutive_failures():
    est = seeded_estimator()
    for _ in range(5):
        unicast_attempt(est, NBR, acked=False)
    assert est.link_quality(NBR) == pytest.approx(5.0)
    for _ in range(5):
        unicast_attempt(est, NBR, acked=False)
    # Failures keep accumulating across windows until an ack.
    assert est.link_quality(NBR) == pytest.approx(10.0)


def test_window_resets_after_sample():
    est = seeded_estimator()
    for _ in range(5):
        unicast_attempt(est, NBR, acked=True)
    entry = est.table.find(NBR)
    assert entry.uni_total == 0
    assert entry.uni_acked == 0


def test_unknown_destination_ignored():
    est = seeded_estimator()
    for _ in range(10):
        unicast_attempt(est, 99, acked=False)
    assert est.stats.unicast_samples == 0
    assert math.isinf(est.link_quality(99))


def test_ack_stream_disabled():
    est = seeded_estimator(use_ack_stream=False)
    for _ in range(10):
        unicast_attempt(est, NBR, acked=False)
    # Without the ack bit, data failures leave the estimate untouched —
    # the stock-CTP blindness the paper fixes.
    assert est.link_quality(NBR) == pytest.approx(1.0)


def test_channel_access_failure_not_counted():
    from repro.link.frame import NetworkFrame, le_wrap
    from repro.sim.packets import TxResult

    est = seeded_estimator()
    payload = NetworkFrame(src=0, dst=NBR, length_bytes=30)
    frame = le_wrap(payload, le_seq=0)
    for _ in range(10):
        est._mac_send_done(frame, TxResult(timestamp=0.0, dest=NBR, sent=False, ack_bit=False))
    # Frames that never made it onto the air are not link evidence.
    assert est.stats.unicast_samples == 0


def test_sample_capped():
    est = seeded_estimator(max_etx_sample=20.0)
    for _ in range(200):
        unicast_attempt(est, NBR, acked=False)
    assert est.link_quality(NBR) <= 20.0


def test_ku_window_size_respected():
    est = seeded_estimator(ku=3)
    for _ in range(3):
        unicast_attempt(est, NBR, acked=True)
    assert est.stats.unicast_samples == 1


def test_client_sees_send_done():
    est, client, _ = build_estimator()
    beacon(est, NBR, seq=0)
    unicast_attempt(est, NBR, acked=True)
    assert len(client.send_done) == 1
    frame, sent, acked = client.send_done[0]
    assert sent and acked


def test_ack_resets_consecutive_failure_count():
    est = seeded_estimator()
    for _ in range(10):
        unicast_attempt(est, NBR, acked=False)
    assert est.link_quality(NBR) == pytest.approx(10.0)
    # One ack ends the failure streak: the next window has uni_acked > 0,
    # so the ratio rule applies (5 tx / 1 ack).
    unicast_attempt(est, NBR, acked=True)
    for _ in range(4):
        unicast_attempt(est, NBR, acked=False)
    assert est.link_quality(NBR) == pytest.approx(5.0)
    # The streak restarts from the post-ack failures (4 so far + 5 new).
    for _ in range(5):
        unicast_attempt(est, NBR, acked=False)
    assert est.link_quality(NBR) == pytest.approx(9.0)


def test_quality_version_moves_with_the_etx():
    """``quality_version`` changes exactly when the (neighbor, ETX) view
    does: a fold that moves the ETX bumps it, one that lands on the same
    value does not, and a reboot wipe does."""
    est = seeded_estimator()
    v0 = est.quality_version
    for _ in range(5):
        unicast_attempt(est, NBR, acked=True)  # sample 1.0 onto ETX 1.0
    assert est.stats.unicast_samples == 1
    assert est.link_quality(NBR) == 1.0
    assert est.quality_version == v0
    for acked in (True, False, True, False, True):
        unicast_attempt(est, NBR, acked=acked)  # sample 5/3
    assert est.link_quality(NBR) == pytest.approx(5 / 3)
    assert est.quality_version != v0
    v1 = est.quality_version
    est.reset_state()
    assert est.quality_version != v1
