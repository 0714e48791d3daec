"""Unit tests for Figure 3's link monitor and windowed PRR."""

import random
from types import SimpleNamespace

import pytest

from repro.experiments.fig3_lqi_blind import LinkMonitor
from repro.link.frame import BROADCAST, Frame
from repro.link.mac import Mac
from repro.metrics.timeseries import windowed_prr

from tests.conftest import PerfectMedium, make_radio


def test_windowed_prr_basic():
    tx = [0.5, 1.5, 2.5, 3.5]
    rx = [0.5, 2.5]
    series = windowed_prr(tx, rx, window_s=2.0, t_end=4.0)
    assert series == [(1.0, 0.5), (3.0, 0.5)]


def test_windowed_prr_empty_window_is_none():
    series = windowed_prr([0.5], [0.5], window_s=1.0, t_end=3.0)
    assert series[0][1] == 1.0
    assert series[1][1] is None
    assert series[2][1] is None


def test_windowed_prr_values_in_unit_interval():
    rng = random.Random(1)
    tx = sorted(rng.uniform(0, 100) for _ in range(200))
    rx = [t for t in tx if rng.random() < 0.7]
    for _, prr in windowed_prr(tx, rx, 10.0, 100.0):
        if prr is not None:
            assert 0.0 <= prr <= 1.0


def _macs(engine, medium, n=2):
    macs = {}
    for nid in range(n):
        mac = Mac(engine, medium, make_radio(nid), random.Random(nid))
        medium.attach(mac)
        macs[nid] = mac
    return macs


def _watch(engine, medium, macs, sender=0, receiver=1):
    """A LinkMonitor wired to the medium and MACs the way ``attach`` would."""
    monitor = LinkMonitor(sender=sender, receiver=receiver)
    monitor.attached(SimpleNamespace(engine=engine))
    medium.probe = monitor
    for mac in macs.values():
        mac.probe = monitor
    return monitor


def test_rx_probe_records_and_chains(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    seen = []
    macs[1].on_receive = lambda f, i: seen.append(f)
    monitor = _watch(engine, perfect_medium, macs)
    macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert len(monitor.rx_times) == 1
    assert len(monitor.lqi_samples) == 1
    assert len(seen) == 1  # the MAC's own handler is untouched


def test_rx_probe_filters_by_sender(engine, perfect_medium):
    macs = _macs(engine, perfect_medium, n=3)
    monitor = _watch(engine, perfect_medium, macs, receiver=2)
    macs[1].send(Frame(src=1, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert monitor.rx_times == []


def test_rx_probe_ignores_frames_for_other_nodes(engine, perfect_medium):
    # Node 2 overhears 0 -> 1; only frames addressed to the receiver (or
    # broadcast) count toward the link's PRR.
    macs = _macs(engine, perfect_medium, n=3)
    monitor = _watch(engine, perfect_medium, macs, receiver=2)
    macs[0].send(Frame(src=0, dst=1, length_bytes=20))
    engine.run()
    assert monitor.rx_times == []


def test_rx_probe_mean_lqi_window(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    monitor = _watch(engine, perfect_medium, macs)
    for _ in range(3):
        macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
    assert monitor.mean_lqi_in(0.0, 10.0) == pytest.approx(106.0)
    assert monitor.mean_lqi_in(50.0, 60.0) is None


def test_tx_probe_counts_unacked(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    perfect_medium.drop(1, 0)  # acks never come back
    monitor = _watch(engine, perfect_medium, macs)
    for _ in range(3):
        macs[0].send(Frame(src=0, dst=1, length_bytes=20))
        engine.run()
    assert len(monitor.tx_times) == 3
    assert len(monitor.unacked_times) == 3
    assert monitor.cumulative_unacked([0.0, engine.now]) == [0, 3]


def test_tx_probe_acked_not_counted_as_unacked(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    monitor = _watch(engine, perfect_medium, macs)
    macs[0].send(Frame(src=0, dst=1, length_bytes=20))
    engine.run()
    assert len(monitor.tx_times) == 1
    assert monitor.unacked_times == []


def test_tx_probe_ignores_broadcasts(engine, perfect_medium):
    # A broadcast expects no ack, so it is never an unacked attempt.
    macs = _macs(engine, perfect_medium)
    monitor = _watch(engine, perfect_medium, macs)
    macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert monitor.unacked_times == []


def test_broadcast_log_counts_all_transmissions(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    monitor = _watch(engine, perfect_medium, macs)
    macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    macs[0].send(Frame(src=0, dst=1, length_bytes=20))
    engine.run()
    assert len(monitor.tx_times) == 2


def test_broadcast_log_excludes_acks(engine, perfect_medium):
    macs = _macs(engine, perfect_medium)
    monitor = _watch(engine, perfect_medium, macs, sender=1, receiver=0)
    macs[0].send(Frame(src=0, dst=1, length_bytes=20))
    engine.run()
    # Node 1 sent only an ack, which must not appear in its tx log.
    assert monitor.tx_times == []
