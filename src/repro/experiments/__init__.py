"""The paper's evaluation: one campaign, one renderer per figure.

``examples/paper.json`` is the only description of the evaluation: a
``grid`` campaign whose ``figures`` key lists each figure's cells (see
:mod:`repro.campaign.sweep`).  ``python -m repro.campaign run
examples/paper.json --workers N`` runs it; :func:`run` runs it through
:class:`~repro.campaign.Campaign` (every point a cache hit after the CLI)
and renders each figure; :func:`scaled` gives the same file at another
scale.  Each module renders, and checks the paper's claims on, its
figure's points: ``fig2_trees``, ``fig3_lqi_blind`` (the ``fig3`` kind),
``fig6_design_space``, ``fig7_power_sweep``, ``fig8_delivery`` (Figure 7's
points), ``headline`` and ``ablation`` (DESIGN.md §4).  Figure 5 is an
exact-arithmetic unit test: ``tests/core/test_hybrid_trace.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.campaign import Campaign, SweepSpec
from repro.experiments import (
    ablation,
    fig2_trees,
    fig3_lqi_blind,
    fig6_design_space,
    fig7_power_sweep,
    fig8_delivery,
    headline,
)
from repro.runner import RunnerError

#: Figure name in a campaign's ``figures`` → its renderer.
RENDERERS = {
    "fig2": fig2_trees.from_results,
    "fig3": fig3_lqi_blind.from_results,
    "fig6": fig6_design_space.from_results,
    "fig7": fig7_power_sweep.from_results,
    "headline": headline.from_results,
    "ablation": ablation.from_results,
}

#: The benchmark suite's scale as :func:`scaled` options: a 30-node shrink
#: of Mirage, 7 simulated minutes, one seed.
BENCH: Dict[str, Any] = {
    "base": {"n_nodes": 30, "duration_s": 420.0, "warmup_s": 120.0},
    "seeds": (1,),
}


def scaled(
    spec: SweepSpec,
    base: Optional[Mapping[str, Any]] = None,
    seeds: Optional[Sequence[int]] = None,
    only: Optional[Sequence[str]] = None,
    **cells: Union[Sequence[Mapping[str, Any]], Mapping[str, Any]],
) -> SweepSpec:
    """``spec`` with ``base`` laid over its base, ``seeds`` as its seed
    axis and only the figures ``only`` names.  A figure named in ``cells``
    gets that list of cells, or a mapping laid over each of its own."""
    data = spec.to_json_dict()
    data["base"] = dict(data.get("base", {}), **(base or {}))
    if seeds is not None:
        data["axes"] = dict(data["axes"], seed=list(seeds))
    figures = data["figures"]
    for name, over in cells.items():
        own = figures[name]
        figures[name] = [dict(c, **over) for c in own] if isinstance(over, Mapping) else over
    data["figures"] = {k: v for k, v in figures.items() if only is None or k in only}
    return SweepSpec.from_json_dict(data)


def run(spec: SweepSpec, **options: Any) -> Dict[str, Any]:
    """Run (or resume) ``spec`` as a :class:`~repro.campaign.Campaign`
    with keyword arguments ``options``, and render every figure from its
    points' results; Figure 8 follows Figure 7, from the same points.
    Raises :class:`~repro.runner.RunnerError` when a point failed."""
    campaign = Campaign(spec, **options)
    campaign.run()
    if campaign.last_stats.failed:
        raise RunnerError(campaign.last_stats.failed)
    out: Dict[str, Any] = {}
    for name, points in spec.figure_points().items():
        out[name] = RENDERERS[name]([campaign.results[p] for p in points])
        if name == "fig7":
            out["fig8"] = fig8_delivery.Fig8Result(sweep=out["fig7"])
    return out
