"""Figure 7: cost and depth vs transmit power (0 / −10 / −20 dBm).

Paper observations to reproduce:

* both protocols' cost and depth grow as transmit power drops (packets
  need more hops to reach the sink);
* 4B's cost stays 11–29% below MultiHopLQI's across the sweep;
* 4B's cost hugs the depth lower bound (≤13% above it at 0/−10 dBm) while
  MultiHopLQI strays much further (up to ~43%) — the extra cost is
  retransmission/loss, not path length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.analysis.render import scatter, table
from repro.experiments.common import AveragedResult, averaged, improvement, protocol_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult

POWERS_DBM = (0.0, -10.0, -20.0)
PROTOCOLS = ("4b", "mhlqi")


@dataclass
class Fig7Result:
    #: (protocol, power) → averaged result
    results: Dict[Tuple[str, float], AveragedResult]
    powers: Tuple[float, ...] = POWERS_DBM

    def cost_increases_with_lower_power(self, protocol: str) -> bool:
        costs = [self.results[(protocol, p)].cost for p in self.powers]
        return all(b >= a * 0.95 for a, b in zip(costs, costs[1:]))

    def depth_increases_with_lower_power(self, protocol: str) -> bool:
        depths = [self.results[(protocol, p)].avg_tree_depth for p in self.powers]
        return all(b >= a * 0.95 for a, b in zip(depths, depths[1:]))

    def fourbit_wins_everywhere(self) -> bool:
        return all(
            self.results[("4b", p)].cost <= self.results[("mhlqi", p)].cost
            for p in self.powers
        )

    def cost_reduction_at(self, power: float) -> float:
        return improvement(self.results[("mhlqi", power)].cost, self.results[("4b", power)].cost)

    def excess_over_depth(self, protocol: str, power: float) -> float:
        """Fractional cost above the depth lower bound."""
        r = self.results[(protocol, power)]
        return (r.cost - r.avg_tree_depth) / r.avg_tree_depth

    def render(self) -> str:
        rows: List[List[str]] = []
        for power in self.powers:
            for proto in PROTOCOLS:
                r = self.results[(proto, power)]
                rows.append(
                    [
                        f"{power:+.0f} dBm",
                        r.label,
                        f"{r.cost:.2f}",
                        f"{r.avg_tree_depth:.2f}",
                        f"{self.excess_over_depth(proto, power) * 100:.0f}%",
                        f"{r.delivery_ratio * 100:.1f}%",
                    ]
                )
            rows.append(
                [
                    "",
                    "4B cost reduction",
                    f"{self.cost_reduction_at(power) * 100:.0f}%",
                    "",
                    "",
                    "",
                ]
            )
        points = {
            f"{r.label} @{power:+.0f}dBm": (r.avg_tree_depth, r.cost)
            for (proto, power), r in self.results.items()
        }
        return "\n".join(
            [
                table(
                    ["power", "protocol", "cost", "depth", "cost over depth", "delivery"],
                    rows,
                    title="Figure 7 — power sweep (paper: 4B cost 19-28% below "
                    "MultiHopLQI; ≤13% above the depth bound at 0/−10 dBm)",
                ),
                "",
                scatter(
                    points,
                    xlabel="average tree depth (hops)",
                    ylabel="cost (tx/packet)",
                    title="cost vs depth across transmit powers",
                    diagonal=True,
                ),
            ]
        )


def from_results(results: Sequence["SimulationResult"]) -> Fig7Result:
    """Figure 7 from its points: one cell per (protocol, power), the powers
    in the order the cells name them."""
    keys = dict.fromkeys(
        (r.params["protocol"], float(r.params["tx_power_dbm"])) for r in results
    )
    cells = dict(zip(keys, averaged(results, protocol_label)))
    return Fig7Result(results=cells, powers=tuple(dict.fromkeys(p for _proto, p in cells)))
