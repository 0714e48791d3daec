"""Closed-loop estimator tuning: propose -> simulate -> score -> shrink.

The paper fixes its estimator constants (EWMA α = 0.9, ku = 1, kb = 3,
table size, white-bit threshold) by argument and testbed iteration; this
module closes that loop mechanically.  :func:`run_optimizer` is a simple
cross-entropy-style search: each round draws a batch of candidate points
from per-parameter :class:`~repro.campaign.sweep.RangeSpec`\\ s, evaluates
them through a caller-supplied ``evaluate`` callable (the campaign queue,
so every evaluation lands in the result cache and re-runs are free), keeps
the ``top_k`` finite-scored survivors, and shrinks the ranges around them.

Failure surfaces are first-class: NaN/inf/missing objectives mark a point
*invalid* — it can never become the incumbent, and a round where every
point is invalid leaves the ranges untouched (the next round re-samples
the same space at fresh seeds).  The ``budget`` is a hard ceiling on
``simulate()`` calls; exhausting it mid-round truncates the batch rather
than overshooting.

Everything is deterministic in ``(spec digest, seed)``: draws come from
``derive_seed``-keyed streams and survivor selection breaks score ties by
canonical digest, so an interrupted tuning campaign replays the identical
trajectory on resume (earlier rounds coming straight from cache).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import KINDS, SimulationResult, SimulationSpec, freeze_params
from repro.campaign.sweep import RangeSpec, shrink_ranges
from repro.runner.hashing import config_digest
from repro.sim.rng import derive_seed

#: An evaluator maps a batch of specs to their results, preserving order.
#: Entries may be ``None`` (skipped/failed run) — counted against the
#: budget but never scored.
Evaluator = Callable[[Sequence[SimulationSpec]], List[Optional[SimulationResult]]]


@dataclass(frozen=True)
class OptimizerSpec:
    """One closed-loop tuning campaign (the ``mode: "optimize"`` file form)."""

    name: str
    kind: str
    #: Constant parameters merged into every candidate (sorted pairs).
    base: Tuple[Tuple[str, Any], ...] = ()
    #: The tuned parameters and their initial search box.
    ranges: Tuple[RangeSpec, ...] = ()
    #: Summary key to optimize (e.g. ``mre``, ``cost``, ``objective``).
    objective: str = "objective"
    minimize: bool = True
    #: Hard ceiling on ``simulate()`` evaluations across all rounds.
    budget: int = 64
    #: Candidate points proposed per round.
    batch: int = 8
    top_k: int = 3
    shrink: float = 0.5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown simulation kind {self.kind!r}; choose from {KINDS}")
        if not self.ranges:
            raise ValueError("optimizer needs at least one range to tune")
        if not self.objective:
            raise ValueError("optimizer needs an objective summary key")
        if self.budget <= 0 or self.batch <= 0 or self.top_k <= 0:
            raise ValueError("optimizer needs budget > 0, batch > 0, top_k > 0")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("optimizer needs 0 < shrink < 1")

    def digest(self) -> str:
        return config_digest(self)

    def to_json_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "campaign": self.name,
            "kind": self.kind,
            "mode": "optimize",
            "ranges": {r.name: r.to_json_dict() for r in self.ranges},
            "objective": self.objective,
            "minimize": self.minimize,
            "budget": self.budget,
            "batch": self.batch,
            "top_k": self.top_k,
            "shrink": self.shrink,
            "seed": self.seed,
        }
        if self.base:
            data["base"] = dict(self.base)
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "OptimizerSpec":
        known = {
            "campaign", "kind", "mode", "base", "ranges", "objective",
            "minimize", "budget", "batch", "top_k", "shrink", "seed",
        }
        unknown = sorted(k for k in data if k not in known)
        if unknown:
            raise ValueError(f"unknown optimizer spec key(s) {unknown}; known: {sorted(known)}")
        mode = str(data.get("mode", "optimize"))
        if mode != "optimize":
            raise ValueError(f"optimizer spec has mode {mode!r}; expected 'optimize'")
        return cls(
            name=str(data.get("campaign", "tune")),
            kind=str(data["kind"]),
            base=freeze_params(str(data["kind"]), dict(data.get("base", {}))),
            ranges=tuple(
                RangeSpec.from_json_dict(str(name), spec)
                for name, spec in dict(data.get("ranges", {})).items()
            ),
            objective=str(data.get("objective", "objective")),
            minimize=bool(data.get("minimize", True)),
            budget=int(data.get("budget", 64)),
            batch=int(data.get("batch", 8)),
            top_k=int(data.get("top_k", 3)),
            shrink=float(data.get("shrink", 0.5)),
            seed=int(data.get("seed", 1)),
        )


@dataclass
class OptimizerOutcome:
    """What a tuning run produced (graceful even when nothing scored)."""

    spec: OptimizerSpec
    #: Best finite-scored point, or ``None`` when every evaluation was
    #: NaN/inf/failed (the graceful-degradation contract).
    best_params: Optional[Dict[str, Any]] = None
    best_score: Optional[float] = None
    evaluations: int = 0
    valid_evaluations: int = 0
    rounds_run: int = 0
    #: True when the run stopped because ``budget`` ran out (vs. rounds
    #: simply completing).
    budget_exhausted: bool = False
    #: Per-round records: ``{"round", "evaluated", "valid", "best_score",
    #: "ranges": {name: [lo, hi]}}`` — the refinement trajectory.
    history: List[Dict[str, Any]] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, Any]:
        from repro.metrics.collection_stats import json_sanitize

        return json_sanitize(
            {
                "campaign": self.spec.name,
                "spec_digest": self.spec.digest(),
                "objective": self.spec.objective,
                "minimize": self.spec.minimize,
                "best_params": self.best_params,
                "best_score": self.best_score,
                "evaluations": self.evaluations,
                "valid_evaluations": self.valid_evaluations,
                "rounds_run": self.rounds_run,
                "budget_exhausted": self.budget_exhausted,
                "history": self.history,
            }
        )


def objective_score(result: Optional[SimulationResult], objective: str) -> Optional[float]:
    """The finite score of one result, or ``None`` when invalid.

    Invalid covers: the run failed (``result is None``), the summary lacks
    the objective key, the value is non-numeric, or it is NaN/±inf.  The
    optimizer treats all four identically — the point simply cannot win.
    """
    if result is None:
        return None
    value = result.summary.get(objective)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    score = float(value)
    if not math.isfinite(score):
        return None
    return score


def _propose(
    spec: OptimizerSpec, ranges: Sequence[RangeSpec], round_index: int, count: int
) -> List[SimulationSpec]:
    base = dict(spec.base)
    points = []
    for i in range(count):
        rng = Random(derive_seed(spec.seed, "campaign", "optimize", round_index, i))
        assignment = {r.name: r.sample(rng) for r in ranges}
        points.append(SimulationSpec.from_params(spec.kind, dict(base, **assignment)))
    return points


def run_optimizer(
    spec: OptimizerSpec,
    evaluate: Evaluator,
    on_round: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> OptimizerOutcome:
    """Run the closed loop to budget exhaustion (see module docstring).

    ``evaluate`` receives each round's batch and must return results in
    order (``None`` entries allowed).  ``on_round`` (optional) observes
    each round's history record as it is produced — the campaign queue
    uses it to emit ``campaign-round`` telemetry and checkpoint progress.
    """
    outcome = OptimizerOutcome(spec=spec)
    ranges: Tuple[RangeSpec, ...] = spec.ranges
    sign = 1.0 if spec.minimize else -1.0
    round_index = 0
    while outcome.evaluations < spec.budget:
        count = min(spec.batch, spec.budget - outcome.evaluations)
        points = _propose(spec, ranges, round_index, count)
        results = evaluate(points)
        if len(results) != len(points):
            raise ValueError(
                f"evaluator returned {len(results)} results for {len(points)} specs"
            )
        outcome.evaluations += len(points)
        scored: List[Tuple[float, str, SimulationSpec]] = []
        for point, result in zip(points, results):
            score = objective_score(result, spec.objective)
            if score is None:
                continue
            # Digest tiebreak keeps survivor order deterministic even when
            # two points score identically (common on plateaus).
            scored.append((sign * score, point.digest(), point))
        scored.sort(key=lambda item: (item[0], item[1]))
        outcome.valid_evaluations += len(scored)
        if scored:
            best_signed, _digest, best_point = scored[0]
            best_score = sign * best_signed
            if outcome.best_score is None or best_signed < sign * outcome.best_score:
                outcome.best_score = best_score
                outcome.best_params = best_point.param_dict()
            survivors = [p.param_dict() for _s, _d, p in scored[: spec.top_k]]
            ranges = shrink_ranges(ranges, survivors, spec.shrink)
        record = {
            "round": round_index,
            "evaluated": len(points),
            "valid": len(scored),
            "best_score": outcome.best_score,
            "ranges": {r.name: [r.lo, r.hi] for r in ranges},
        }
        outcome.history.append(record)
        if on_round is not None:
            on_round(record)
        round_index += 1
    outcome.rounds_run = round_index
    outcome.budget_exhausted = outcome.evaluations >= spec.budget
    return outcome
