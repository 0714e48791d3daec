"""Integration tests: fault events landing on a live collection network."""

import pytest

from repro.faults.schedule import FaultSchedule, LinkBlackout, NodeCrash, QualityShift
from repro.sim.medium import MediumFaultState

from tests.faults.helpers import build_network

#: Highest-id grid node: never the sink (the sink is node 0 in every grid).
VICTIM = 15


# ----------------------------------------------------------------------
# MediumFaultState (unit)
# ----------------------------------------------------------------------
def test_blackout_scopes():
    state = MediumFaultState()
    assert state.offset_for(1, 2) == 0.0
    state.blackout_start()  # whole network
    assert state.offset_for(1, 2) is None
    state.blackout_end()
    state.blackout_start(a=3)  # every link touching node 3
    assert state.offset_for(3, 5) is None
    assert state.offset_for(5, 3) is None
    assert state.offset_for(1, 2) == 0.0
    state.blackout_end(a=3)
    state.blackout_start(a=2, b=7)  # one link, either direction
    assert state.offset_for(2, 7) is None
    assert state.offset_for(7, 2) is None
    assert state.offset_for(2, 6) == 0.0
    state.blackout_end(a=2, b=7)
    assert state.offset_for(2, 7) == 0.0


def test_overlapping_blackouts_refcount():
    state = MediumFaultState()
    state.blackout_start()
    state.blackout_start()
    state.blackout_end()
    assert state.offset_for(1, 2) is None  # one window still open
    state.blackout_end()
    assert state.offset_for(1, 2) == 0.0


def test_quality_shifts_cumulative_across_scopes():
    state = MediumFaultState()
    state.shift(-3.0)
    state.shift(-3.0)
    state.shift(2.0, a=4)
    state.shift(1.0, a=5, b=4)
    assert state.offset_for(1, 2) == pytest.approx(-6.0)
    assert state.offset_for(4, 1) == pytest.approx(-4.0)  # node scope: either end
    assert state.offset_for(1, 4) == pytest.approx(-4.0)
    assert state.offset_for(4, 5) == pytest.approx(-3.0)  # global + node + pair


# ----------------------------------------------------------------------
# Crash / reboot (integration)
# ----------------------------------------------------------------------
def test_crash_wipes_node_state():
    schedule = FaultSchedule(events=(NodeCrash(at_s=90.0, node=VICTIM),), name="kill")
    net = build_network(faults=schedule)
    result = net.run()
    node = net.nodes[VICTIM]
    assert VICTIM not in net.roots
    assert node.crashed
    assert not node.mac.enabled
    assert node.parent is None
    assert node.estimator is not None and len(node.estimator.table) == 0
    assert net.fault_injector is not None
    assert net.fault_injector.stats.node_crashes == 1
    assert net.fault_injector.stats.node_reboots == 0
    # The rest of the network keeps collecting.
    assert result.unique_delivered > 0


def test_reboot_rebootstraps_node():
    schedule = FaultSchedule(
        events=(NodeCrash(at_s=90.0, node=VICTIM, reboot_at_s=110.0),), name="bounce"
    )
    net = build_network(faults=schedule, duration_s=240.0)
    net.run()
    node = net.nodes[VICTIM]
    assert not node.crashed
    assert node.mac.enabled
    # Post-reboot the node found a parent and refilled its table from scratch.
    assert node.parent is not None
    assert node.estimator is not None and len(node.estimator.table) > 0
    assert net.fault_injector is not None
    assert net.fault_injector.stats.node_crashes == 1
    assert net.fault_injector.stats.node_reboots == 1


def test_fault_run_emits_metrics():
    schedule = FaultSchedule(
        events=(NodeCrash(at_s=90.0, node=VICTIM, reboot_at_s=110.0),), name="bounce"
    )
    net = build_network(faults=schedule, collect_metrics=True)
    result = net.run()
    assert result.metrics is not None
    crashes = [v for k, v in result.metrics.items() if k.startswith("faults.injector.node_crashes")]
    assert crashes == [1]


# ----------------------------------------------------------------------
# Blackout (integration)
# ----------------------------------------------------------------------
def test_global_blackout_silences_network_then_recovers():
    schedule = FaultSchedule(
        events=(LinkBlackout(start_s=95.0, end_s=125.0),), name="outage"
    )
    net = build_network(faults=schedule, duration_s=200.0)
    counts = {}

    def probe(tag):
        counts[tag] = net.medium.deliveries

    # Margins inside the window: frames in flight at the edge decode at
    # their own end time, so sample strictly inside.
    net.engine.schedule_at(95.5, probe, "window_open")
    net.engine.schedule_at(124.5, probe, "window_close")
    result = net.run()

    # Not a single frame decoded anywhere while the blackout was up...
    assert counts["window_close"] == counts["window_open"]
    # ...yet the channel was busy (drops counted) and the network recovered.
    assert net.fault_injector is not None
    faults = net.fault_injector._faults
    assert faults.blackout_drops > 0
    assert net.medium.deliveries > counts["window_close"]
    assert result.unique_delivered > 0
    assert net.fault_injector.stats.blackouts_started == 1
    assert net.fault_injector.stats.blackouts_ended == 1


def test_fault_events_reach_the_trace():
    from repro.sim.trace import instrument_network

    schedule = FaultSchedule(
        events=(
            NodeCrash(at_s=90.0, node=VICTIM, reboot_at_s=110.0),
            LinkBlackout(start_s=95.0, end_s=100.0, node_a=3),
        ),
        name="traced",
    )
    net = build_network(faults=schedule)
    tracer = instrument_network(net)
    net.run()
    seen = [
        (rec["t"], rec["kind"], rec["node"])
        for rec in tracer.records
        if rec["kind"] in ("crash", "reboot", "blackout", "blackout-end")
    ]
    assert seen == [
        (90.0, "crash", VICTIM),
        (95.0, "blackout", -1),  # NETWORK_NODE scope; a/b in the fields
        (100.0, "blackout-end", -1),
        (110.0, "reboot", VICTIM),
    ]


# ----------------------------------------------------------------------
# Validation against the built network
# ----------------------------------------------------------------------
def test_crashing_root_rejected():
    schedule = FaultSchedule(events=(NodeCrash(at_s=90.0, node=0),))
    with pytest.raises(ValueError, match="root"):
        build_network(faults=schedule)


def test_unknown_node_rejected():
    schedule = FaultSchedule(events=(NodeCrash(at_s=90.0, node=999),))
    with pytest.raises(ValueError, match="unknown node"):
        build_network(faults=schedule)


@pytest.mark.parametrize("protocol", ["mhlqi", "geo"])
def test_reboot_storm_runs_clean_on_every_stack(protocol):
    """Every collection stack crashes through the one ``CollectionStack``
    path: the storm runs under the invariant checker (a dead node that
    beacons fails it), and each crash drops the node's parent at once."""
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.trace import instrument_network
    from repro.topology.testbeds import PROFILES, scaled_profile

    profile = scaled_profile(PROFILES["mirage"], 12)
    config = SimConfig(
        protocol=protocol, seed=1, duration_s=240.0, warmup_s=60.0,
        faults="reboot_storm", check_invariants=True,
    )
    net = CollectionNetwork(profile.topology(11), config, profile=profile)
    tracer = instrument_network(net, max_records=None, kinds={"crash", "parent-change"})
    result = net.run()
    stats = net.fault_injector.stats
    assert stats.node_crashes > 0 and stats.node_reboots == stats.node_crashes
    assert net.invariant_checker.violations == []
    assert result.unique_delivered > 0
    assert _parent_losses_at_crashes(list(tracer.records)) > 0


def test_medium_faults_allowed_for_any_protocol():
    schedule = FaultSchedule(events=(QualityShift(at_s=90.0, delta_db=-2.0, node_a=VICTIM),))
    net = build_network(faults=schedule, protocol="mhlqi", duration_s=120.0)
    net.run()
    assert net.fault_injector is not None
    assert net.fault_injector.stats.quality_shifts == 1


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_crash_record_is_followed_by_the_parent_loss():
    """A crash wipes the routing state at once, so the node's parent loss is
    stamped at the crash, not at its first route evaluation after reboot."""
    from repro.sim.trace import instrument_network

    net = build_network(faults="reboot_storm")
    tracer = instrument_network(net, max_records=None, kinds={"crash", "parent-change"})
    net.run()
    assert _parent_losses_at_crashes(list(tracer.records)) > 0


def _parent_losses_at_crashes(records):
    """Check that every crash of a node with a parent is followed at once by
    that parent's loss; returns how many such crashes there were."""
    parent = {}
    losses = 0
    for i, record in enumerate(records):
        node = record["node"]
        if record["kind"] == "parent-change":
            parent[node] = record["new"]
        elif record["kind"] == "crash" and parent.get(node, -1) != -1:
            after = records[i + 1]
            assert (after["kind"], after["node"], after["t"]) == ("parent-change", node, record["t"])
            assert after["old"] == parent[node] and after["new"] == -1
            losses += 1
    return losses
