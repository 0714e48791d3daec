"""Lift a finished network's per-component counters into one registry.

Every layer keeps its counters as cheap dataclass fields (``MacStats``,
``EstimatorStats``, ``RoutingStats``, ...) so the hot path never pays for
observability.  :func:`network_metrics` walks a
:class:`~repro.sim.network.CollectionNetwork` after (or during) a run and
registers every counter under its canonical ``layer.component.event`` name
with a ``node`` label, plus the network-wide medium and engine counters.

The resulting :class:`~repro.obs.metrics.MetricsRegistry` snapshots to a
flat dict (``CollectionResult.metrics`` when ``collect_metrics=True``) and
merges across runs for sweep-level aggregation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.obs.metrics import MetricsRegistry, register_dataclass_counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork


def register_stats(registry: MetricsRegistry, stats: Any, **labels: Any) -> None:
    """Register every counter of a stats dataclass under its
    ``METRICS_PREFIX`` (e.g. ``link.mac.tx_unicast``)."""
    register_dataclass_counters(registry, stats.METRICS_PREFIX, stats, **labels)


def network_metrics(
    network: "CollectionNetwork",
    registry: Optional[MetricsRegistry] = None,
    per_node: bool = True,
) -> MetricsRegistry:
    """Register every layer's counters from ``network`` into a registry.

    ``per_node=True`` labels each counter with its node id; ``False`` folds
    all nodes into unlabeled totals (smaller snapshots for large networks —
    counters merge by addition, so totals are exact either way).
    """
    if registry is None:
        registry = MetricsRegistry()
    for nid, node in sorted(network.nodes.items()):
        labels = {"node": str(nid)} if per_node else {}
        for stats in node.stats_objects():
            register_stats(registry, stats, **labels)
    medium = network.medium
    registry.counter("phy.medium.transmissions").inc(medium.transmissions)
    registry.counter("phy.medium.deliveries").inc(medium.deliveries)
    registry.counter("phy.medium.collisions").inc(medium.collisions)
    registry.counter("phy.medium.white_bits_set").inc(medium.white_bits_set)
    registry.counter("sim.engine.events_run").inc(network.engine.events_run)
    registry.gauge("sim.engine.pending").set(network.engine.pending)
    registry.gauge("sim.engine.now_s").set(network.engine.now)
    injector = network.fault_injector
    if injector is not None:
        register_stats(registry, injector.synced_stats())
    checker = network.invariant_checker
    if checker is not None:
        registry.counter("faults.invariants.checks_run").inc(checker.checks_run)
        registry.counter("faults.invariants.violations").inc(len(checker.violations))
    return registry
