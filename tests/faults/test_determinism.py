"""Bit-reproducibility of faulted runs, serially and across processes."""

from repro.campaign.spec import SimulationSpec, simulate
from repro.runner import ExperimentRunner, Task
from repro.runner.hashing import config_digest

from tests.faults.helpers import build_network

#: A 16-node Mirage under the reboot_storm preset, metrics collected.
FAULTED = SimulationSpec.make(
    "collection", profile="mirage", n_nodes=16, duration_s=150.0, warmup_s=60.0,
    protocol="4b", seed=1, faults="reboot_storm", collect_metrics=True,
)


def _sim_fields(result):
    """Result payload minus wall-clock resource accounting.

    The determinism contract covers simulated fields only; ``resources``
    (wall/CPU/RSS, attached by runner workers) varies run to run by design.
    """
    payload = result.to_json_dict()
    payload.pop("resources", None)
    return payload


def _snapshot(net, result):
    """Golden-style canonical outcome: counters plus every ETX table."""
    tables = {
        nid: node.estimator.table_snapshot()
        for nid, node in sorted(net.nodes.items())
        if node.estimator is not None
    }
    return config_digest(
        {
            "result": _sim_fields(result),
            "tables": tables,
            "crashes": net.fault_injector.stats.node_crashes,
            "reboots": net.fault_injector.stats.node_reboots,
        }
    )


def test_same_seed_fault_runs_bit_identical():
    digests = []
    for _ in range(2):
        net = build_network(
            faults="reboot_storm", check_invariants=True, collect_metrics=True
        )
        result = net.run()
        digests.append(_snapshot(net, result))
    assert digests[0] == digests[1]


def test_fault_spec_changes_the_run():
    baseline = build_network()
    faulted = build_network(faults="reboot_storm")
    a, b = baseline.run(), faulted.run()
    assert config_digest(a.to_json_dict()) != config_digest(b.to_json_dict())


def test_serial_and_parallel_runners_agree():
    digests = []
    for workers in (1, 2):
        [result] = ExperimentRunner(workers=workers).run([Task(simulate, FAULTED)])
        digests.append(config_digest(_sim_fields(result.run)))
    assert digests[0] == digests[1]


def test_collection_spec_accepts_fault_overrides():
    result = simulate(FAULTED).run
    totals = {
        k.split("{", 1)[0]: v
        for k, v in sorted(result.metrics.items())
        if k.startswith("faults.")
    }
    assert totals.get("faults.injector.node_crashes", 0) >= 1
    assert "faults.invariants.checks_run" not in totals  # checker was off
