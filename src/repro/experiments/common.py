"""Shared experiment harness.

Every figure module accepts an :class:`ExperimentScale` so the same code
runs at two sizes: full scale from ``examples/`` (paper-like durations,
multiple seeds) and reduced scale from ``benchmarks/`` (smaller network,
shorter runs — the benchmark suite must regenerate every figure in minutes,
not hours).

Execution goes through :mod:`repro.runner`: each (cell × seed) becomes a
:class:`RunSpec` — a frozen, canonically hashable description of one run —
and a batch of specs fans out across a process pool with on-disk result
caching.  The default runner is serial and uncached (identical to the old
in-line loops); set ``REPRO_WORKERS``/``REPRO_CACHE`` or pass ``runner=``
to parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from statistics import mean
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.collection_stats import CollectionResult, json_sanitize
from repro.obs.profile import merge_profiles
from repro.runner import ExperimentRunner, Task, default_runner
from repro.sim.network import CollectionNetwork, SimConfig
from repro.topology.testbeds import PROFILES, TestbedProfile, scaled_profile


@dataclass(frozen=True)
class ExperimentScale:
    """Size/duration knobs for an experiment."""

    profile_name: str = "mirage"
    #: Shrink the testbed to this many nodes (None = full size).
    n_nodes: Optional[int] = None
    duration_s: float = 1800.0
    warmup_s: float = 300.0
    seeds: Tuple[int, ...] = (1, 2)
    topology_seed: int = 11

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("ExperimentScale needs at least one seed")

    def profile(self) -> TestbedProfile:
        base = PROFILES[self.profile_name]
        if self.n_nodes is None or self.n_nodes == base.n_nodes:
            return base
        return scaled_profile(base, self.n_nodes)


#: Full-scale settings used by the examples (paper runs were 40–69 min on
#: Mirage; we use 30 simulated minutes × 2 seeds).
FULL_SCALE = ExperimentScale(duration_s=1800.0, warmup_s=300.0, seeds=(1, 2))

#: Reduced settings used by the benchmark suite.
BENCH_SCALE = ExperimentScale(n_nodes=30, duration_s=420.0, warmup_s=120.0, seeds=(1,))


def run_one(
    scale: ExperimentScale,
    protocol: str,
    seed: int,
    tx_power_dbm: float = 0.0,
    **config_overrides,
) -> CollectionResult:
    """One collection run of ``protocol`` at the given scale."""
    profile = scale.profile()
    topo = profile.topology(scale.topology_seed)
    config = SimConfig(
        protocol=protocol,
        tx_power_dbm=tx_power_dbm,
        seed=seed,
        duration_s=scale.duration_s,
        warmup_s=scale.warmup_s,
        **config_overrides,
    )
    return CollectionNetwork(topo, config, profile=profile).run()


@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulator run — the unit of fan-out and caching.

    Deliberately *not* built on :class:`ExperimentScale` directly: the
    scale's ``seeds`` tuple describes a whole sweep, and baking it into the
    spec would give the same (protocol, seed) run a different cache key for
    every seed set it appears in.
    """

    profile_name: str
    n_nodes: Optional[int]
    duration_s: float
    warmup_s: float
    topology_seed: int
    protocol: str
    seed: int
    tx_power_dbm: float = 0.0
    #: Extra ``SimConfig`` fields as sorted (name, value) pairs; values must
    #: be canonically hashable (plain data or frozen dataclasses).
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def build(
        cls,
        scale: ExperimentScale,
        protocol: str,
        seed: int,
        tx_power_dbm: float = 0.0,
        **config_overrides,
    ) -> "RunSpec":
        return cls(
            profile_name=scale.profile_name,
            n_nodes=scale.n_nodes,
            duration_s=scale.duration_s,
            warmup_s=scale.warmup_s,
            topology_seed=scale.topology_seed,
            protocol=protocol,
            seed=seed,
            tx_power_dbm=tx_power_dbm,
            overrides=tuple(sorted(config_overrides.items())),
        )

    def scale(self) -> ExperimentScale:
        return ExperimentScale(
            profile_name=self.profile_name,
            n_nodes=self.n_nodes,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            seeds=(self.seed,),
            topology_seed=self.topology_seed,
        )

    def describe(self) -> str:
        extra = f" {dict(self.overrides)}" if self.overrides else ""
        return (
            f"{self.protocol} seed={self.seed} @{self.tx_power_dbm:+.0f}dBm "
            f"{self.profile_name}/{self.n_nodes or 'full'}{extra}"
        )


def execute_spec(spec: RunSpec) -> CollectionResult:
    """Top-level (picklable) entry point the runner's workers call."""
    return run_one(
        spec.scale(), spec.protocol, spec.seed, spec.tx_power_dbm, **dict(spec.overrides)
    )


def run_specs(
    specs: Sequence[RunSpec], runner: Optional[ExperimentRunner] = None
) -> List[CollectionResult]:
    """Execute a batch of specs through the runner, in order."""
    runner = runner or default_runner()
    return runner.run([Task(execute_spec, spec, label=spec.describe()) for spec in specs])


@dataclass(frozen=True)
class Cell:
    """One experiment-grid cell: a configuration averaged over seeds."""

    protocol: str
    label: str = ""
    tx_power_dbm: float = 0.0
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, protocol: str, label: str = "", tx_power_dbm: float = 0.0, **config_overrides
    ) -> "Cell":
        return cls(
            protocol=protocol,
            label=label or protocol,
            tx_power_dbm=tx_power_dbm,
            overrides=tuple(sorted(config_overrides.items())),
        )

    def specs(self, scale: ExperimentScale) -> List[RunSpec]:
        return [
            RunSpec.build(
                scale, self.protocol, seed, self.tx_power_dbm, **dict(self.overrides)
            )
            for seed in scale.seeds
        ]


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
    #: Merged engine profile when the runs were profiled
    #: (``profile_events=True``); see ``repro.obs.profile.merge_profiles``.
    profile: Optional[Dict[str, object]] = None

    def summary_row(self) -> str:
        return (
            f"{self.label:<18} cost={self.cost:6.2f}  depth={self.avg_tree_depth:5.2f}  "
            f"delivery={self.delivery_ratio * 100:6.2f}%  ({len(self.runs)} seeds)"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Strict-JSON view (non-finite floats become ``null``)."""
        return json_sanitize(
            {
                "protocol": self.protocol,
                "label": self.label,
                "cost": self.cost,
                "avg_tree_depth": self.avg_tree_depth,
                "delivery_ratio": self.delivery_ratio,
                "pooled_node_delivery": self.pooled_node_delivery,
                "profile": self.profile,
                "runs": [r.to_json_dict() for r in self.runs],
            }
        )


def average_runs(protocol: str, label: str, runs: Sequence[CollectionResult]) -> AveragedResult:
    """Fold per-seed results into one :class:`AveragedResult`."""
    runs = list(runs)
    pooled = [v for r in runs for v in r.delivery_values() if not math.isnan(v)]
    return AveragedResult(
        protocol=protocol,
        label=label or protocol,
        cost=mean(r.cost for r in runs),
        avg_tree_depth=mean(r.avg_tree_depth for r in runs),
        delivery_ratio=mean(r.delivery_ratio for r in runs),
        pooled_node_delivery=pooled,
        runs=runs,
        profile=merge_profiles([r.profile for r in runs]),
    )


def run_cells(
    scale: ExperimentScale,
    cells: Sequence[Cell],
    runner: Optional[ExperimentRunner] = None,
) -> List[AveragedResult]:
    """Run a whole grid of cells as one batch and average each over seeds.

    Submitting the full (cell × seed) grid at once is what lets the runner
    keep every worker busy; per-cell serial loops would leave the pool idle
    between cells.
    """
    specs = [spec for cell in cells for spec in cell.specs(scale)]
    results = run_specs(specs, runner)
    averaged = []
    n = len(scale.seeds)
    for i, cell in enumerate(cells):
        runs = results[i * n : (i + 1) * n]
        averaged.append(average_runs(cell.protocol, cell.label, runs))
    return averaged


def run_averaged(
    scale: ExperimentScale,
    protocol: str,
    tx_power_dbm: float = 0.0,
    label: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
    **config_overrides,
) -> AveragedResult:
    """Run ``protocol`` across the scale's seeds and average the metrics."""
    cell = Cell.make(protocol, label or protocol, tx_power_dbm, **config_overrides)
    return run_cells(scale, [cell], runner)[0]


def improvement(baseline: float, contender: float) -> float:
    """Relative reduction of ``contender`` vs ``baseline`` (0.29 = 29% lower)."""
    if baseline == 0 or math.isinf(baseline) or math.isnan(baseline):
        return math.nan
    return (baseline - contender) / baseline
