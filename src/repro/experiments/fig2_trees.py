"""Figure 2: routing trees of CTP (10-entry table), MultiHopLQI, and CTP
with an unrestricted link table, on an 85-node testbed.

Paper observations to reproduce (shape, not absolute values):

* cost ordering: CTP (3.14)  >  MultiHopLQI (2.28)  >  CTP unconstrained (1.86);
* the 10-entry table caps node in-degree, so constrained CTP builds
  *deeper* trees than the same protocol with an unrestricted table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.analysis.render import routing_tree, table
from repro.experiments.common import AveragedResult, averaged

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult

@dataclass
class Fig2Result:
    results: Dict[str, AveragedResult]

    def cost_ordering_holds(self) -> bool:
        """CTP ≥ MultiHopLQI ≥ CTP-unconstrained (the paper's ordering)."""
        return (
            self.results["ctp"].cost
            >= self.results["mhlqi"].cost
            >= self.results["ctp-unconstrained"].cost
        )

    def depth_gap_holds(self) -> bool:
        """Constrained CTP builds deeper trees than unconstrained CTP."""
        return (
            self.results["ctp"].avg_tree_depth
            > self.results["ctp-unconstrained"].avg_tree_depth
        )

    def render(self) -> str:
        parts: List[str] = [
            table(
                ["protocol", "cost (tx/pkt)", "avg depth", "delivery"],
                [
                    [
                        r.label,
                        f"{r.cost:.2f}",
                        f"{r.avg_tree_depth:.2f}",
                        f"{r.delivery_ratio * 100:.1f}%",
                    ]
                    for r in self.results.values()
                ],
                title="Figure 2 — routing trees and cost (paper: CTP 3.14, MultiHopLQI 2.28, CTP-unconstrained 1.86)",
            )
        ]
        for name, r in self.results.items():
            final = r.runs[0]
            parts.append("")
            parts.append(
                routing_tree(
                    final.final_parents,
                    final.final_depths,
                    root=_root_of(final),
                    title=f"--- {name} tree (seed {final.seed}, cost {final.cost:.2f}) ---",
                )
            )
        return "\n".join(parts)


def _root_of(result) -> int:
    for nid, parent in result.final_parents.items():
        if parent is None and result.final_depths.get(nid) == 0:
            return nid
    return 0


def from_results(results: Sequence["SimulationResult"]) -> Fig2Result:
    """Figure 2 from its points: one cell per protocol."""
    return Fig2Result(results={r.protocol: r for r in averaged(results)})
