"""Ablations of the 4B design choices called out in DESIGN.md.

Each ablation perturbs one knob of the full 4B configuration:

* ``no-pin``        — ignore the pin bit during compare-driven eviction
  (the estimator may flush the route in use; the paper argues at least one
  deployment died from exactly this layer-2/layer-3 disagreement);
* ``evict-worst``   — compare-driven insertion flushes the worst entry
  instead of a random one;
* ``no-white``      — insertion gates on the compare bit alone (as if the
  radio provided no channel-quality information);
* ``ku=1``/``ku=25``— unicast window extremes (agility vs noise);
* ``kb=10``         — sluggish beacon windows;
* ``alpha=0.9``     — heavy outer-EWMA history (slow adaptation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Sequence

from repro.analysis.render import table
from repro.estimators.objectives import TUNABLE_FIELDS
from repro.experiments.common import AveragedResult, averaged

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult

BASELINE = "4b (full)"


def variants() -> Dict[str, Dict[str, Any]]:
    """Variant name → estimator constants set on top of the ``4b`` preset."""
    return {
        BASELINE: {},
        "no-pin": {"honor_pin_bit": False},
        "evict-worst": {"compare_evict": "worst"},
        "no-white": {"require_white_bit": False},
        "ku=1": {"ku": 1},
        "ku=25": {"ku": 25},
        "kb=10": {"kb": 10},
        "alpha=0.9": {"alpha_outer": 0.9},
    }


@dataclass
class AblationResult:
    results: Dict[str, AveragedResult]

    def baseline(self) -> AveragedResult:
        return self.results[BASELINE]

    def render(self) -> str:
        base = self.baseline()
        rows = []
        for name, r in self.results.items():
            rows.append(
                [
                    name,
                    f"{r.cost:.2f}",
                    f"{(r.cost / base.cost - 1) * 100:+.0f}%",
                    f"{r.avg_tree_depth:.2f}",
                    f"{r.delivery_ratio * 100:.2f}%",
                ]
            )
        return table(
            ["variant", "cost", "cost vs full 4B", "depth", "delivery"],
            rows,
            title="4B design ablations",
        )


def variant_name(params: Dict[str, Any]) -> str:
    """The variant whose constants are exactly a point's estimator constants."""
    constants = {k: v for k, v in params.items() if k in TUNABLE_FIELDS}
    for name, variant in variants().items():
        if variant == constants:
            return name
    raise ValueError(f"no ablation variant sets exactly {constants}")


def from_results(results: Sequence["SimulationResult"]) -> AblationResult:
    """The ablation table from its points: one cell per variant."""
    return AblationResult(results={r.label: r for r in averaged(results, variant_name)})
