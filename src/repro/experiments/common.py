"""What the figure renderers share: a figure's points averaged per cell.

A figure's points come from the paper campaign (``examples/paper.json``,
see :mod:`repro.experiments`): each cell of the figure crossed with the
seed axis.  :func:`averaged` pools a cell's seeds into one
:class:`AveragedResult`, reading each point's ``summary`` for cost, depth
and delivery and its ``run`` (the full collection run, which a resumed
campaign gets back from the result cache) for trees and per-node delivery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import mean
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.metrics.collection_stats import CollectionResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult


@dataclass
class AveragedResult:
    """Seed-averaged metrics for one configuration."""

    protocol: str
    label: str
    cost: float
    avg_tree_depth: float
    delivery_ratio: float
    #: Per-node delivery ratios pooled across seeds (Figure 8 boxplots).
    pooled_node_delivery: List[float] = field(default_factory=list)
    runs: List[CollectionResult] = field(default_factory=list)

    def summary_row(self) -> str:
        return (
            f"{self.label:<18} cost={self.cost:6.2f}  depth={self.avg_tree_depth:5.2f}  "
            f"delivery={self.delivery_ratio * 100:6.2f}%  ({len(self.runs)} seeds)"
        )


def _summary_mean(group: Sequence["SimulationResult"], name: str) -> float:
    """Mean of one summary value over a cell's seeds; a non-finite value
    (``null`` in the summary) counts as NaN."""
    values = [r.summary[name] for r in group]
    return mean(math.nan if v is None else v for v in values)


def averaged(
    results: Sequence["SimulationResult"],
    label: Optional[Callable[[Dict[str, Any]], str]] = None,
) -> List[AveragedResult]:
    """One :class:`AveragedResult` per cell of a figure, in first-seen order.

    Results whose parameters differ only in ``seed`` are one cell.
    ``label`` names a cell from its parameters (default: the protocol).
    """
    cells: Dict[str, List["SimulationResult"]] = {}
    for result in results:
        key = {k: v for k, v in result.params.items() if k != "seed"}
        cells.setdefault(json.dumps(key, sort_keys=True), []).append(result)
    out = []
    for group in cells.values():
        params = group[0].params
        runs = []
        for result in group:
            # The worker measured the whole simulate call; the run carries it.
            result.run.resources = result.resources
            runs.append(result.run)
        out.append(
            AveragedResult(
                protocol=params["protocol"],
                label=label(params) if label else params["protocol"],
                cost=_summary_mean(group, "cost"),
                avg_tree_depth=_summary_mean(group, "avg_tree_depth"),
                delivery_ratio=_summary_mean(group, "delivery_ratio"),
                pooled_node_delivery=[
                    v for r in runs for v in r.delivery_values() if not math.isnan(v)
                ],
                runs=runs,
            )
        )
    return out


def protocol_label(params: Dict[str, Any]) -> str:
    """The display name of the headline's and Figure 7's two protocols."""
    return "4B" if params["protocol"] == "4b" else "MultiHopLQI"


def improvement(baseline: float, contender: float) -> float:
    """Relative reduction of ``contender`` vs ``baseline`` (0.29 = 29% lower)."""
    if baseline == 0 or math.isinf(baseline) or math.isnan(baseline):
        return math.nan
    return (baseline - contender) / baseline
