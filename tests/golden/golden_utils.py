"""Golden-run capture for the bit-reproducibility contract.

The pinned scenario below exercises every stochastic subsystem the hot
path touches: a seeded jittered grid, mixed beacon + data traffic (4B's
estimator beacons plus the collection workload), OU temporal fading AND
bimodal deep fades, interference and collisions.  ``golden_snapshot``
reduces the run to a canonical JSON-safe dict — delivery/collision
counters and every node's final ETX table with full float precision — so
the golden test can assert that performance work leaves results
*byte-identical*, not merely statistically similar.

The same scenario is also pinned on the fast medium backend
(``FAST_GOLDEN_CASES``), once per fault preset: ``flaky_burst`` covers
overlap interference and the fault overlay of the vectorized reception
kernel, ``reboot_storm`` covers the estimator/routing state wipes of a
crash and reboot.

Regenerate (only when an intentional behavior change is made) with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import grid

GOLDEN_PATH = Path(__file__).parent / "collection_golden.json"
FAST_GOLDEN_PATH = Path(__file__).parent / "collection_golden_fast.json"

#: Everything that defines the pinned run, in one place.
GOLDEN_CONFIG = {
    "topology": "grid 4x4, spacing 6.0 m, jitter 0.5 m, topo seed 9",
    "protocol": "4b",
    "seed": 5,
    "duration_s": 180.0,
    "warmup_s": 60.0,
    "bimodal_fraction": 0.3,
}

#: Fault presets the fast-backend golden pins, one snapshot each.
FAST_GOLDEN_CASES = ("flaky_burst", "reboot_storm")


def _canon(value):
    """Canonical JSON-safe form: floats become ``repr`` strings.

    ``repr`` round-trips every finite float exactly and represents
    inf/nan, so equality of the canonical forms is bit-equality of the
    underlying numbers.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"unsupported golden value type: {type(value)!r}")


def golden_snapshot(medium: str = "exact", faults: Optional[str] = None) -> Dict[str, object]:
    """Run the pinned scenario and return its canonical outcome dict.

    The defaults are the exact-backend golden; ``medium="fast"`` with a
    fault preset name gives one of the fast-backend cases.
    """
    pinned: Dict[str, object] = dict(GOLDEN_CONFIG)
    if medium != "exact" or faults is not None:
        pinned.update(medium=medium, faults=faults)
    topo = grid(4, 4, spacing_m=6.0, rng=RngManager(9).stream("topo"), jitter_m=0.5)
    config = SimConfig(
        protocol=GOLDEN_CONFIG["protocol"],
        seed=GOLDEN_CONFIG["seed"],
        duration_s=GOLDEN_CONFIG["duration_s"],
        warmup_s=GOLDEN_CONFIG["warmup_s"],
        medium=medium,
        faults=faults,
    )
    net = CollectionNetwork(
        topo, config, channel_overrides={"bimodal_fraction": GOLDEN_CONFIG["bimodal_fraction"]}
    )
    result = net.run()
    etx_tables = {
        nid: node.estimator.table_snapshot()
        for nid, node in sorted(net.nodes.items())
        if node.estimator is not None
    }
    return {
        "config": pinned,
        "counters": {
            "events_run": result.events_run,
            "offered": result.offered,
            "accepted": result.accepted,
            "unique_delivered": result.unique_delivered,
            "duplicates_at_root": result.duplicates_at_root,
            "total_data_tx": result.total_data_tx,
            "beacons_sent": result.beacons_sent,
            "medium_transmissions": net.medium.transmissions,
            "medium_deliveries": net.medium.deliveries,
            "medium_collisions": net.medium.collisions,
            "white_bits_set": net.medium.white_bits_set,
        },
        "final_parents": _canon(result.final_parents),
        "etx_tables": _canon(etx_tables),
    }


def assert_matches_golden(snapshot: Dict[str, object], golden: Dict[str, object]) -> None:
    """Field-by-field equality, so a mismatch names the part that drifted."""
    assert snapshot["config"] == golden["config"], "pinned config drifted"
    assert snapshot["counters"] == golden["counters"]
    assert snapshot["final_parents"] == golden["final_parents"]
    # Compare via canonical JSON so a mismatch shows a readable diff.
    assert json.dumps(snapshot["etx_tables"], sort_keys=True) == json.dumps(
        golden["etx_tables"], sort_keys=True
    )


def write_golden(snapshot: object, path: Path = GOLDEN_PATH) -> None:
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, object]:
    return json.loads(path.read_text())
