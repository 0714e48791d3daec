#!/usr/bin/env python3
"""Observe a run from the inside: structured event tracing.

Instruments every node of a small 4B network, runs five minutes of
collection, exports the trace to JSONL, and prints parent changes, a
transmission ledger for the busiest node, one node's estimator table
snapshot and a cross-layer metrics excerpt — the workflow for debugging
a misbehaving deployment.  The listings come from the offline analysis
CLI, which reads the exported file.

Usage:
    python examples/trace_debugging.py
    python -m repro.obs summary results/trace.jsonl      # afterwards
"""

from collections import Counter

from repro import CollectionNetwork, MIRAGE, SimConfig, scaled_profile
from repro.obs import network_metrics
from repro.obs.cli import main as obs_cli
from repro.sim.trace import instrument_network, select


def main() -> None:
    profile = scaled_profile(MIRAGE, 20)
    topology = profile.topology(seed=11)
    config = SimConfig(protocol="4b", seed=4, duration_s=300.0, warmup_s=100.0)
    network = CollectionNetwork(topology, config, profile=profile)
    tracer = instrument_network(network, etx_sample_s=60.0)
    result = network.run()
    path = "results/trace.jsonl"
    count = tracer.to_jsonl(path)

    print(result.summary_row())
    print()
    print("--- parent changes (route dynamics) ---")
    obs_cli(["timeline", path, "--kind", "parent-change", "--limit", "30"])
    print()

    sent = select(tracer.records, kind="tx")
    busiest, tx_count = Counter(r["node"] for r in sent).most_common(1)[0]
    unacked = sum(1 for r in sent if r["node"] == busiest and r["ack"] == 0)
    print(f"--- busiest transmitter: node {busiest} ({tx_count} unicasts, {unacked} unacked) ---")
    obs_cli(["timeline", path, "--kind", "tx", "--node", str(busiest), "--limit", "10"])
    print()

    print(f"--- estimator table of node {busiest} ---")
    for row in network.nodes[busiest].estimator.table_snapshot():
        prr_in = f"{row['prr_in']:.2f}" if row["prr_in"] is not None else "  — "
        etx = f"{row['etx']:.2f}" if row["mature"] else " inf"
        pin = "PIN" if row["pinned"] else "   "
        print(f"  nbr {row['addr']:>3}  {pin}  etx={etx}  prr_in={prr_in}")
    print()

    # Every layer's counters, summed over the nodes into network totals.
    print("--- cross-layer metrics (estimator excerpt) ---")
    for key, value in network_metrics(network, per_node=False).items():
        if key.startswith("est.estimator"):
            print(f"{key} = {value}")
    print()

    print(f"wrote {count} records to {path} — analyze offline with:")
    print(f"  python -m repro.obs summary {path}")
    print(f"  python -m repro.obs flaps {path}")
    print(f"  python -m repro.obs convergence {path} --node {busiest}")


if __name__ == "__main__":
    main()
