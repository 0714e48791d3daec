"""Unit tests for trace-driven links."""

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.link.mac import Mac
from repro.phy.trace_link import LinkTrace, TraceMedium
from repro.sim.engine import Engine
from repro.sim.rng import RngManager

from tests.conftest import make_radio


def test_constant_trace():
    trace = LinkTrace.constant(0.7)
    assert trace.prr_at(0.0) == 0.7
    assert trace.prr_at(1e6) == 0.7


def test_piecewise_trace_lookup():
    trace = LinkTrace([(0.0, 1.0), (10.0, 0.2), (20.0, 0.9)])
    assert trace.prr_at(5.0) == 1.0
    assert trace.prr_at(10.0) == 0.2
    assert trace.prr_at(15.0) == 0.2
    assert trace.prr_at(25.0) == 0.9


def test_trace_before_first_segment():
    trace = LinkTrace([(5.0, 0.5)])
    assert trace.prr_at(0.0) == 0.5


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        LinkTrace([])


def test_unsorted_trace_rejected():
    with pytest.raises(ValueError):
        LinkTrace([(10.0, 0.5), (0.0, 1.0)])


def test_out_of_range_prr_rejected():
    with pytest.raises(ValueError):
        LinkTrace([(0.0, 1.5)])


def test_square_wave():
    trace = LinkTrace.square_wave(high=1.0, low=0.0, period_s=10.0, duty=0.5, end_s=30.0)
    assert trace.prr_at(2.0) == 1.0
    assert trace.prr_at(7.0) == 0.0
    assert trace.prr_at(12.0) == 1.0
    assert trace.prr_at(17.0) == 0.0


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,prr\n0.0,1.0\n10.0,0.25\n")
    trace = LinkTrace.from_csv(str(path))
    assert trace.prr_at(5.0) == 1.0
    assert trace.prr_at(11.0) == 0.25


def _build_pair(prr: float):
    engine = Engine()
    medium = TraceMedium(engine, RngManager(3))
    macs = {}
    for nid in (0, 1):
        mac = Mac(engine, medium, make_radio(nid), RngManager(3).stream("mac", nid))
        medium.attach(mac)
        macs[nid] = mac
    medium.set_symmetric_link(0, 1, LinkTrace.constant(prr))
    return engine, medium, macs


def test_trace_medium_perfect_link_delivers():
    engine, medium, macs = _build_pair(1.0)
    received = []
    macs[1].on_receive = lambda frame, info: received.append(frame)
    macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert len(received) == 1


def test_trace_medium_dead_link_drops():
    engine, medium, macs = _build_pair(0.0)
    received = []
    macs[1].on_receive = lambda frame, info: received.append(frame)
    for _ in range(5):
        macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
    assert received == []


def test_trace_medium_intermediate_link_statistics():
    engine, medium, macs = _build_pair(0.5)
    received = []
    macs[1].on_receive = lambda frame, info: received.append(frame)
    n = 400
    for _ in range(n):
        macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
    assert 0.4 < len(received) / n < 0.6


def test_trace_medium_rx_info_consistent_with_prr():
    """High-PRR links must report white-bit-worthy SNR/LQI."""
    engine, medium, macs = _build_pair(0.999)
    infos = []
    macs[1].on_receive = lambda frame, info: infos.append(info)
    macs[0].send(Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert infos and infos[0].snr_db > 4.0


def test_trace_medium_unicast_ack_roundtrip():
    engine, medium, macs = _build_pair(1.0)
    results = []
    macs[0].on_send_done = lambda frame, result: results.append(result)
    macs[0].send(Frame(src=0, dst=1, length_bytes=20))
    engine.run()
    assert len(results) == 1
    assert results[0].ack_bit
