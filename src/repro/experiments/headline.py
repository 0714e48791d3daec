"""Headline comparison (Sections 1 and 4): 4B vs MultiHopLQI on both testbeds.

Paper claims to reproduce in shape:

* Mirage:   4B cuts packet delivery cost by 29%; delivery 99.9% vs 93%.
* Tutornet: 4B cuts cost by 44%; delivery 99% vs 85%.

(Tutornet, the noisier testbed, shows the larger gap — the harder the
channel, the more the four bits matter.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.analysis.render import table
from repro.experiments.common import AveragedResult, averaged, improvement, protocol_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult

PAPER_CLAIMS = {
    "mirage": {"cost_reduction": 0.29, "delivery_4b": 0.999, "delivery_mhlqi": 0.93},
    "tutornet": {"cost_reduction": 0.44, "delivery_4b": 0.99, "delivery_mhlqi": 0.85},
}


@dataclass
class HeadlineResult:
    #: testbed → protocol → averaged result
    results: Dict[str, Dict[str, AveragedResult]]

    def cost_reduction(self, testbed: str) -> float:
        r = self.results[testbed]
        return improvement(r["mhlqi"].cost, r["4b"].cost)

    def fourbit_wins(self, testbed: str) -> bool:
        """Lower cost at no worse delivery (delivery can tie at 100% on
        small/easy networks)."""
        r = self.results[testbed]
        return (
            r["4b"].cost < r["mhlqi"].cost
            and r["4b"].delivery_ratio >= r["mhlqi"].delivery_ratio - 1e-9
        )

    def gap_larger_on_noisier_testbed(self) -> bool:
        """The paper's Tutornet (noisier) gap exceeds the Mirage gap."""
        return self.cost_reduction("tutornet") > self.cost_reduction("mirage")

    def render(self) -> str:
        rows = []
        for testbed, protos in self.results.items():
            claims = PAPER_CLAIMS[testbed]
            for proto in ("4b", "mhlqi"):
                r = protos[proto]
                paper_delivery = claims["delivery_4b" if proto == "4b" else "delivery_mhlqi"]
                rows.append(
                    [
                        testbed,
                        r.label,
                        f"{r.cost:.2f}",
                        f"{r.delivery_ratio * 100:.1f}%",
                        f"{paper_delivery * 100:.1f}%",
                    ]
                )
            rows.append(
                [
                    testbed,
                    "cost reduction",
                    f"{self.cost_reduction(testbed) * 100:.0f}%",
                    "",
                    f"{claims['cost_reduction'] * 100:.0f}%",
                ]
            )
        return table(
            ["testbed", "protocol", "cost", "delivery (measured)", "paper"],
            rows,
            title="Headline — 4B vs MultiHopLQI on both testbeds",
        )


def from_results(results: Sequence["SimulationResult"]) -> HeadlineResult:
    """The headline table from its points: one cell per (testbed, protocol)."""
    testbeds = dict.fromkeys((r.params["profile"], r.params["protocol"]) for r in results)
    table_: Dict[str, Dict[str, AveragedResult]] = {}
    for (testbed, _protocol), cell in zip(testbeds, averaged(results, protocol_label)):
        table_.setdefault(testbed, {})[cell.protocol] = cell
    return HeadlineResult(results=table_)
