"""Soak: a network's per-run state stops growing over simulated time.

One 12-node Mirage network per backend runs for three equal slices of
simulated time.  Every structure that lives as long as the run is held to
a bound that does not depend on how long the run is:

* the estimator tables (at most ``table_size``) and CTP's ``route_info``
  (at most the node count) fill during the first slice and stay there;
* the fast medium's PRR tables are keyed by (modulation, frame size) and
  are all built in the first slice; its interference cache holds one
  entry per transmitter at most.

The sink's per-delivery ``records`` are the run's output: they grow with
simulated time by design, and the test checks that they do.  The on-air
lists and the engine queue have their own soak test in
``tests/phy/test_noise.py``.
"""

import pytest

from repro.sim.network import CollectionNetwork, SimConfig
from repro.topology.testbeds import PROFILES, scaled_profile

N_NODES = 12
SLICE_S = 300.0


def _sizes(net):
    nodes = net.nodes.values()
    medium = net.medium
    return {
        "table": max(len(n.estimator.table) for n in nodes),
        "route_info": max(len(n.protocol.routing.route_info) for n in nodes),
        "prr_tables": len(getattr(medium, "_prr_tables", {})),
        "inter_cache": len(getattr(medium, "_inter_cache", {})),
        "records": len(net.sink.records),
    }


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_run_state_plateaus_over_simulated_time(medium):
    profile = scaled_profile(PROFILES["mirage"], N_NODES)
    config = SimConfig(
        protocol="4b", seed=1, duration_s=3 * SLICE_S, warmup_s=60.0, medium=medium
    )
    net = CollectionNetwork(profile.topology(11), config, profile=profile)
    slices = []
    for k in (1, 2, 3):
        net.engine.run_until(k * SLICE_S)
        slices.append(_sizes(net))
    first = slices[0]

    table_size = net.nodes[1].estimator.table.capacity
    transmitters = len(net.channel.positions)
    for sizes in slices:
        assert 0 < sizes["table"] <= table_size
        assert 0 < sizes["route_info"] <= N_NODES
        assert sizes["inter_cache"] <= transmitters
        # Filled in the first slice; no later slice adds an entry.
        for key in ("table", "route_info", "prr_tables"):
            assert sizes[key] == first[key], (key, slices)
    if medium == "fast":
        assert first["prr_tables"] > 0 and first["inter_cache"] > 0

    # The run's output, by design: one record per unique delivery.
    records = [sizes["records"] for sizes in slices]
    assert 0 < records[0] < records[1] < records[2]
