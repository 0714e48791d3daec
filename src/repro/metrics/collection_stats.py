"""Collection metrics — the paper's three evaluation quantities.

* **cost**: total data transmissions in the network per unique packet
  delivered at the root.  Includes retransmissions and effort wasted on
  packets that were ultimately dropped (Section 4).
* **average depth**: average number of hops from a node to the root in the
  routing tree (time-averaged over periodic samples).  With perfect links
  depth lower-bounds cost.
* **delivery ratio**: unique messages at the root / messages offered by the
  applications; also reported per node for the Figure 8 distributions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork


def json_sanitize(value):
    """Recursively replace non-finite floats with ``None`` (JSON ``null``),
    and objects with a ``to_json_dict`` (a fault schedule, a mobility
    config) with that dict."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return json_sanitize(value.to_json_dict())
    return value


@dataclass
class CollectionResult:
    """Outcome of one collection run."""

    protocol: str
    seed: int
    duration_s: float
    n_nodes: int
    offered: int
    accepted: int
    unique_delivered: int
    duplicates_at_root: int
    total_data_tx: int
    beacons_sent: int
    mean_packet_hops: float
    avg_tree_depth: float
    disconnected_fraction: float
    #: End-to-end latency of delivered packets (seconds; NaN when unknown).
    latency_mean_s: float = math.nan
    latency_p95_s: float = math.nan
    #: Simulator events executed by the run (throughput accounting).
    events_run: int = 0
    #: Engine profile (``SimConfig(profile_events=True)``): wall time per
    #: event kind, events/sec, queue depth — see ``repro.obs.profile``.
    profile: Optional[Dict[str, object]] = None
    #: Cross-layer metrics snapshot (``SimConfig(collect_metrics=True)``):
    #: the flat ``repro.obs`` registry view of every layer's counters.
    metrics: Optional[Dict[str, float]] = None
    #: Wall/CPU/peak-RSS accounting for the process that executed the run
    #: (``repro.obs.resources`` keys); filled by the runner workers.
    #: Wall-clock accounting is nondeterministic by nature, so it is
    #: excluded from dataclass equality — determinism checks compare
    #: simulated fields only.
    resources: Optional[Dict[str, float]] = field(default=None, compare=False)
    per_node_delivery: Dict[int, float] = field(default_factory=dict)
    final_parents: Dict[int, Optional[int]] = field(default_factory=dict)
    final_depths: Dict[int, Optional[int]] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Transmissions per unique delivered packet (lower is better)."""
        if self.unique_delivered == 0:
            return math.inf
        return self.total_data_tx / self.unique_delivered

    @property
    def delivery_ratio(self) -> float:
        if self.offered == 0:
            return math.nan
        return self.unique_delivered / self.offered

    def delivery_values(self) -> List[float]:
        """Per-node delivery ratios (for boxplots)."""
        return [self.per_node_delivery[nid] for nid in sorted(self.per_node_delivery)]

    def summary_row(self) -> str:
        return (
            f"{self.protocol:<18} cost={self.cost:6.2f}  depth={self.avg_tree_depth:5.2f}  "
            f"delivery={self.delivery_ratio * 100:6.2f}%  tx={self.total_data_tx:7d}  "
            f"delivered={self.unique_delivered:5d}/{self.offered}"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Strict-JSON view of the result.

        ``cost`` is ``inf`` on runs that delivered nothing and the latency
        fields default to ``NaN``; ``json.dump`` serializes those as the
        invalid tokens ``Infinity``/``NaN``.  Here every non-finite float
        becomes ``null`` so the output parses everywhere.
        """
        raw = dataclasses.asdict(self)
        raw["cost"] = self.cost
        raw["delivery_ratio"] = self.delivery_ratio
        return json_sanitize(raw)


def _mean_depth(samples: List[Dict[int, Optional[int]]], roots) -> tuple[float, float]:
    """(time-averaged mean tree depth, mean disconnected fraction).

    ``roots`` is an int or a collection of root ids; roots are excluded
    from the averages (their depth is 0 by definition).
    """
    root_set = {roots} if isinstance(roots, int) else set(roots)
    depth_total = 0.0
    depth_count = 0
    missing_total = 0.0
    for sample in samples:
        values = [d for nid, d in sample.items() if nid not in root_set and d is not None]
        missing = sum(1 for nid, d in sample.items() if nid not in root_set and d is None)
        depth_total += sum(values)
        depth_count += len(values)
        denom = len(sample) - len(root_set)
        missing_total += missing / denom if denom > 0 else 0.0
    if depth_count == 0:
        return math.nan, 1.0
    return depth_total / depth_count, missing_total / max(len(samples), 1)


def compute_result(network: "CollectionNetwork") -> CollectionResult:
    """Assemble the result object from a finished simulation."""
    topo = network.topology
    roots = network.roots
    offered = 0
    accepted = 0
    per_node: Dict[int, float] = {}
    total_data_tx = 0
    beacons = 0
    for nid, node in network.nodes.items():
        total_data_tx += node.data_transmissions()
        beacons += node.mac.stats.tx_broadcast
        if node.source is None:
            continue
        offered += node.source.attempted
        accepted += node.source.accepted
        delivered = network.sink.unique_per_origin.get(nid, 0)
        per_node[nid] = delivered / node.source.attempted if node.source.attempted else math.nan

    samples = network._depth_samples or [network.depth_map()]
    avg_depth, disconnected = _mean_depth(samples, roots)

    latencies = sorted(network.sink.latencies())
    if latencies:
        latency_mean = sum(latencies) / len(latencies)
        latency_p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    else:
        latency_mean = latency_p95 = math.nan

    profiler = getattr(network.engine, "profiler", None)
    metrics_snapshot = None
    if getattr(network.config, "collect_metrics", False):
        from repro.obs.metrics import network_metrics

        metrics_snapshot = network_metrics(network)

    return CollectionResult(
        protocol=network.config.protocol,
        seed=network.config.seed,
        duration_s=network.config.duration_s,
        n_nodes=topo.size,
        offered=offered,
        accepted=accepted,
        unique_delivered=network.sink.unique_delivered,
        duplicates_at_root=network.sink.duplicates,
        total_data_tx=total_data_tx,
        beacons_sent=beacons,
        mean_packet_hops=network.sink.mean_hops(),
        avg_tree_depth=avg_depth,
        disconnected_fraction=disconnected,
        latency_mean_s=latency_mean,
        latency_p95_s=latency_p95,
        events_run=network.engine.events_run,
        profile=profiler.summary() if profiler is not None else None,
        metrics=metrics_snapshot,
        per_node_delivery=per_node,
        final_parents=network.parent_map(),
        final_depths=network.depth_map(),
    )
