"""Trace golden: instrumented runs must export byte-identical JSONL.

Four pinned runs on Mirage scaled to 12 nodes are traced with
``instrument_network(net, max_records=None, etx_sample_s=60)`` and exported
with :meth:`Tracer.to_jsonl`.  The golden stores the SHA-256 of each export
plus its per-kind record counts, so a change to how tracing observes the
layers shows up as a count that moved (readable) or a hash that moved
(exact).  Crash presets are not pinned here.

Regenerate (only when an intentional trace change is made) with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden/test_trace_golden.py -q
"""

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.trace import instrument_network
from repro.topology.testbeds import MIRAGE, scaled_profile

TRACE_GOLDEN_PATH = Path(__file__).parent / "trace_golden.json"

#: case name -> SimConfig overrides on top of the shared pinned settings.
TRACE_CASES = {
    "4b-flaky_burst": {"protocol": "4b", "faults": "flaky_burst"},
    "ctp": {"protocol": "ctp"},
    "4b-fast": {"protocol": "4b", "medium": "fast"},
    "mhlqi": {"protocol": "mhlqi"},
}


def trace_snapshot(case: str, tmp_path: Path) -> dict:
    profile = scaled_profile(MIRAGE, 12)
    config = SimConfig(seed=3, duration_s=400.0, **TRACE_CASES[case])
    net = CollectionNetwork(profile.topology(3), config, profile=profile)
    tracer = instrument_network(net, max_records=None, etx_sample_s=60)
    net.run()
    path = tmp_path / f"{case}.jsonl"
    tracer.to_jsonl(path)
    data = path.read_bytes()
    kinds = Counter(json.loads(line)["kind"] for line in data.splitlines())
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "kinds": dict(sorted(kinds.items())),
    }


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_export_matches_golden(case, tmp_path):
    snapshot = trace_snapshot(case, tmp_path)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        cases = json.loads(TRACE_GOLDEN_PATH.read_text()) if TRACE_GOLDEN_PATH.exists() else {}
        cases[case] = snapshot
        TRACE_GOLDEN_PATH.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    golden = json.loads(TRACE_GOLDEN_PATH.read_text())[case]
    assert snapshot["kinds"] == golden["kinds"]
    assert snapshot["sha256"] == golden["sha256"]
