"""Every layer's counters as one flat dict.

Every layer of the stack keeps cheap per-component stats dataclasses
(:class:`~repro.core.estimator.EstimatorStats`,
:class:`~repro.link.mac.MacStats`, …) so the hot path never pays for
observability it did not ask for.  :func:`network_metrics` walks a
:class:`~repro.sim.network.CollectionNetwork` after (or during) a run and
lifts every counter into one JSON-safe ``{key: number}`` dict
(``CollectionResult.metrics`` when ``collect_metrics=True``, and the
state each telemetry ``snapshot`` record diffs against).

A key is a name following the ``layer.component.event`` convention
(``link.mac.tx_unicast``, ``net.routing.parent_switches``), suffixed with
``{node=N}`` for per-node counters.  Keys are ordered by name, then by the
node label compared as a string, so ``…{node=10}`` precedes ``…{node=2}``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork


def numeric_fields(stats: Any) -> Dict[str, float]:
    """The numeric fields of a stats dataclass, in declaration order.

    Non-numeric fields (lists of failures, nested objects) and bools are
    skipped.
    """
    out: Dict[str, float] = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[f.name] = value
    return out


def network_metrics(network: "CollectionNetwork", per_node: bool = True) -> Dict[str, float]:
    """Every layer's counters from ``network`` as one flat dict.

    ``per_node=True`` labels each node's counters with its id; ``False``
    sums them over all nodes into unlabeled totals (smaller dicts for
    large networks — the totals are exact either way).  The medium's,
    engine's, fault injector's and invariant checker's counters are
    network-wide and never labeled.
    """
    totals: Dict[Tuple[str, str], float] = {}

    def add(name: str, value: float, node: str = "") -> None:
        key = (name, node)
        totals[key] = totals.get(key, 0) + value

    for nid, node in sorted(network.nodes.items()):
        label = str(nid) if per_node else ""
        for stats in node.stats_objects():
            for name, value in numeric_fields(stats).items():
                add(f"{stats.METRICS_PREFIX}.{name}", value, label)
    medium = network.medium
    add("phy.medium.transmissions", medium.transmissions)
    add("phy.medium.deliveries", medium.deliveries)
    add("phy.medium.collisions", medium.collisions)
    add("phy.medium.white_bits_set", medium.white_bits_set)
    engine = network.engine
    add("sim.engine.events_run", engine.events_run)
    # Instantaneous values, not counts.
    totals[("sim.engine.pending", "")] = engine.pending
    totals[("sim.engine.now_s", "")] = engine.now
    injector = network.fault_injector
    if injector is not None:
        stats = injector.synced_stats()
        for name, value in numeric_fields(stats).items():
            add(f"{stats.METRICS_PREFIX}.{name}", value)
    checker = network.invariant_checker
    if checker is not None:
        add("faults.invariants.checks_run", checker.checks_run)
        add("faults.invariants.violations", len(checker.violations))
    return {
        f"{name}{{node={node}}}" if node else name: value
        for (name, node), value in sorted(totals.items())
    }
