"""Figure 6: the link-estimation design space in the cost-vs-depth plane.

Points: CTP (stock), CTP + ack bit (unidirectional estimation), CTP +
white/compare bits, 4B (all four bits), and MultiHopLQI, plus the
"Cost = Depth" lower-bound diagonal.

Paper observations to reproduce:

* adding the ack bit to CTP cuts cost and depth sharply (in-degree
  decoupled from table size);
* adding white + compare alone also improves CTP (better table admission);
* only with all three layers (4B) does CTP beat MultiHopLQI — by 29% cost
  and 11% depth on Mirage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.analysis.render import scatter, table
from repro.experiments.common import AveragedResult, averaged, improvement

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult

VARIANTS = {
    "ctp": "CTP T2",
    "ctp-unidir": "CTP + ack bit",
    "ctp-white": "CTP + white/compare",
    "4b": "4B",
    "mhlqi": "MultiHopLQI",
}


@dataclass
class Fig6Result:
    results: Dict[str, AveragedResult]

    def ack_bit_helps(self) -> bool:
        return self.results["ctp-unidir"].cost < self.results["ctp"].cost

    def white_compare_helps(self) -> bool:
        return self.results["ctp-white"].cost < self.results["ctp"].cost

    def fourbit_beats_mhlqi(self) -> bool:
        return self.results["4b"].cost < self.results["mhlqi"].cost

    def fourbit_best(self) -> bool:
        return all(
            self.results["4b"].cost <= r.cost for r in self.results.values()
        )

    def cost_reduction_vs_mhlqi(self) -> float:
        return improvement(self.results["mhlqi"].cost, self.results["4b"].cost)

    def render(self) -> str:
        rows = []
        ctp_cost = self.results["ctp"].cost
        for key, r in self.results.items():
            rows.append(
                [
                    VARIANTS[key],
                    f"{r.cost:.2f}",
                    f"{r.avg_tree_depth:.2f}",
                    f"{r.delivery_ratio * 100:.1f}%",
                    f"{improvement(ctp_cost, r.cost) * 100:+.0f}%",
                ]
            )
        points = {
            VARIANTS[k]: (r.avg_tree_depth, r.cost) for k, r in self.results.items()
        }
        return "\n".join(
            [
                table(
                    ["variant", "cost", "avg depth", "delivery", "cost reduction vs CTP"],
                    rows,
                    title="Figure 6 — design space (paper: ack bit −31% cost; "
                    "white/compare −15%; 4B −29% vs MultiHopLQI)",
                ),
                "",
                scatter(
                    points,
                    xlabel="average tree depth (hops)",
                    ylabel="cost (tx/packet)",
                    title="cost vs depth ('.' diagonal = Cost = Depth lower bound)",
                    diagonal=True,
                ),
                "",
                f"4B cost reduction vs MultiHopLQI: "
                f"{self.cost_reduction_vs_mhlqi() * 100:.0f}% (paper: 29% on Mirage)",
            ]
        )


def from_results(results: Sequence["SimulationResult"]) -> Fig6Result:
    """Figure 6 from its points: one cell per variant protocol."""
    cells = averaged(results, lambda params: VARIANTS[params["protocol"]])
    return Fig6Result(results={r.protocol: r for r in cells})
