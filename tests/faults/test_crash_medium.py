"""Crash and reboot leave the medium as set-up built it, on both backends.

The medium is static after ``finalize``: a crash sets ``node.crashed`` and
wipes the node's state, with no medium detach, and a reboot re-attaches
nothing.  The dead node stays a candidate receiver; its MAC is silent,
and a traced run lists no ``rx`` record at it until it reboots.
"""

import pytest

from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.link.frame import Frame
from repro.sim.trace import instrument_network
from tests.faults.helpers import build_network

CRASHED = 5


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_reboot_storm_keeps_invariants(medium):
    net = build_network("reboot_storm", medium=medium, check_invariants=True)
    result = net.run()
    checker, stats = net.invariant_checker, net.fault_injector.stats
    assert checker is not None and checker.checks_run > 0 and not checker.violations
    assert stats.node_crashes > 0 and stats.node_reboots > 0
    assert result.accepted > 0 and result.unique_delivered > 0


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_crash_and_reboot_leave_the_medium_untouched(medium):
    schedule = FaultSchedule((NodeCrash(at_s=80.0, node=CRASHED, reboot_at_s=110.0),))
    net = build_network(schedule, medium=medium, duration_s=150.0)
    medium_obj = net.medium
    participants = dict(medium_obj._participants)
    if medium == "fast":
        built = (medium_obj._slot_by_pair, medium_obj._slot_by_pair.copy(), dict(medium_obj._soa))
    else:
        built = dict(medium_obj._rx_rows)
    net.run()
    assert (net.fault_injector.stats.node_crashes, net.fault_injector.stats.node_reboots) == (1, 1)
    assert medium_obj._finalized
    assert medium_obj._participants == participants
    assert all(medium_obj._participants[nid] is p for nid, p in participants.items())
    if medium == "fast":
        slot_array, slots, soa = built
        assert medium_obj._slot_by_pair is slot_array
        assert (medium_obj._slot_by_pair == slots).all()
        assert medium_obj._soa.keys() == soa.keys()
        assert all(medium_obj._soa[sid] is batch for sid, batch in soa.items())
    else:
        rx_rows = built
        assert medium_obj._rx_rows.keys() == rx_rows.keys()
        assert all(medium_obj._rx_rows[sid] is rows for sid, rows in rx_rows.items())


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_frame_on_the_air_at_a_crash_is_still_evaluated(medium, monkeypatch):
    crash_at = 90.0
    net = build_network(FaultSchedule((NodeCrash(at_s=crash_at, node=CRASHED),)), medium=medium)
    medium_obj = net.medium
    # A frame addressed to nobody: every decode counts in ``deliveries``
    # and none reaches an upper layer.
    frame = Frame(src=CRASHED, dst=999, length_bytes=36)
    decoded = []
    evaluate = medium_obj._evaluate_receptions

    def spy(tx):
        before = medium_obj.deliveries
        evaluate(tx)
        if tx.frame is frame:
            decoded.append(medium_obj.deliveries - before)

    monkeypatch.setattr(medium_obj, "_evaluate_receptions", spy)
    net.engine.run_until(crash_at - 5e-4)
    airtime = medium_obj.start_transmission(CRASHED, frame)
    assert net.engine.now + airtime > crash_at  # on the air across the crash
    net.engine.run_until(crash_at + airtime)
    assert net.nodes[CRASHED].crashed
    assert len(decoded) == 1 and decoded[0] > 0


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_crashed_node_writes_no_rx_record_until_reboot(medium):
    net = build_network("reboot_storm", medium=medium)
    tracer = instrument_network(net, kinds={"crash", "reboot", "rx"}, max_records=None)
    net.run()
    down = set()
    crashes = rx_records = 0
    for record in tracer.records:
        kind, node = record["kind"], record["node"]
        if kind == "crash":
            down.add(node)
            crashes += 1
        elif kind == "reboot":
            down.discard(node)
        else:
            rx_records += 1
            assert node not in down, f"rx at crashed node {node} at t={record['t']}"
    assert crashes > 0 and rx_records > 0
