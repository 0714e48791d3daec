"""Figure 8: per-node delivery-ratio distributions vs transmit power.

Boxplots of per-node delivery for MultiHopLQI and 4B at 0/−10/−20 dBm.
Paper observations to reproduce:

* 4B keeps delivery high and tight across the network (≥99% average, worst
  node ≥99.3% at 0/−10 dBm);
* MultiHopLQI's distribution has a long lower tail that grows as power
  drops (average 95.9% with a 64% worst node at 0 dBm) — localized
  asymmetries its physical-layer indicator cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.analysis.render import boxplot, table
from repro.experiments.fig7_power_sweep import Fig7Result


@dataclass
class Fig8Result:
    """Figure 8 from Figure 7's points: the same runs, per-node delivery."""

    sweep: Fig7Result

    def distribution(self, protocol: str, power: float):
        return self.sweep.results[(protocol, power)].pooled_node_delivery

    def _quantile(self, values, q: float) -> float:
        vs = sorted(v for v in values if not math.isnan(v))
        if not vs:
            return math.nan
        idx = q * (len(vs) - 1)
        lo, hi = int(math.floor(idx)), int(math.ceil(idx))
        return vs[lo] * (1 - (idx - lo)) + vs[hi] * (idx - lo)

    def fourbit_tighter(self, power: float) -> bool:
        """4B's worst node beats MultiHopLQI's worst node."""
        fb = self.distribution("4b", power)
        mh = self.distribution("mhlqi", power)
        if not fb or not mh:
            return False
        return min(fb) >= min(mh)

    def fourbit_median_high(self, power: float, floor: float = 0.97) -> bool:
        return self._quantile(self.distribution("4b", power), 0.5) >= floor

    def render(self) -> str:
        groups: Dict[str, list] = {}
        rows = []
        for power in self.sweep.powers:
            for proto, label in (("mhlqi", "MultiHopLQI"), ("4b", "4B")):
                values = self.distribution(proto, power)
                groups[f"{label} @{power:+.0f}dBm"] = values
                rows.append(
                    [
                        f"{power:+.0f} dBm",
                        label,
                        f"{(sum(values) / len(values)) * 100:.1f}%" if values else "n/a",
                        f"{min(values) * 100:.1f}%" if values else "n/a",
                        f"{self._quantile(values, 0.5) * 100:.1f}%" if values else "n/a",
                    ]
                )
        return "\n".join(
            [
                table(
                    ["power", "protocol", "mean", "min node", "median"],
                    rows,
                    title="Figure 8 — per-node delivery (paper: 4B ≥99.9% avg at "
                    "0/−10 dBm; MultiHopLQI 95.9% avg, 64% worst at 0 dBm)",
                ),
                "",
                boxplot(
                    groups,
                    lo=0.0,
                    hi=1.0,
                    title="per-node delivery ratio ([=] box Q1..Q3, # median, | min/max)",
                    fmt="{:.2f}",
                ),
            ]
        )

