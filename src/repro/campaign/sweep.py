"""Declarative campaign specs and the one search loop that runs them.

A :class:`SweepSpec` is the file format of a campaign (JSON, or TOML where
``tomllib`` exists).  Three modes:

``grid``
    The cartesian product of ``axes`` (value lists, in file order — the
    enumeration order is part of the contract, so resumed and sharded
    campaigns serialize point lists byte-identically).  With ``figures``
    (``examples/paper.json``) the points are each figure's cells: a cell of
    the file's ``kind`` laid over ``base`` and crossed with ``axes``, or a
    whole point of another ``kind``; a point figures share runs once.
``random``
    ``samples`` points drawn from per-parameter :class:`RangeSpec`\\ s.
    Every draw comes from its own ``derive_seed``-keyed stream, so the
    point set is a pure function of ``(spec digest, seed)`` — adding a
    parameter or re-running on another machine cannot shift the samples.
``optimize``
    Closed-loop tuning of estimator constants (cross-entropy style):
    rounds of ``batch`` draws until ``budget`` evaluations are spent (the
    last batch truncated, never overshooting); after every round the
    ranges shrink by ``shrink`` around the ``top_k`` best finite-scored
    points.  A NaN/inf/missing objective or a failed run marks a point
    invalid: it counts against the budget but can never win, and a round
    with no valid point leaves the ranges as they were.

:func:`search` is the loop all three run: a generator that yields each
round's points and takes their results back.  Grid and random are its
one-round cases.  Later optimize rounds are pure functions of earlier
*results*, which the result cache persists, so an interrupted campaign
re-derives the identical trajectory on resume, and ``status`` replays the
loop on cache hits alone.

Example sweep file (the paper's ku/kb ablation)::

    {
      "campaign": "ablation-kukb",
      "kind": "collection",
      "mode": "grid",
      "base": {"profile": "mirage", "n_nodes": 20, "duration_s": 240.0},
      "axes": {"ku": [1, 5, 25], "kb": [1, 2, 10], "seed": [1, 2]},
      "objective": "cost"
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple, Union

from repro.campaign.spec import (
    KINDS,
    SimulationResult,
    SimulationSpec,
    check_collection_params,
    freeze_param,
    freeze_params,
)
from repro.runner.hashing import config_digest
from repro.sim.rng import derive_seed

#: Modes a campaign file may name.
SWEEP_MODES = ("grid", "random", "optimize")

#: Results for one round's points, in order; ``None`` is a failed run.
Results = List[Optional[SimulationResult]]

#: An evaluator maps a round's points to their results, preserving order.
Evaluator = Callable[[Sequence[SimulationSpec]], Results]


def _integer(data: Dict[str, Any], key: str, default: int) -> int:
    """``data[key]`` as an int; a fraction, bool or string is an error."""
    value = data.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
    ):
        raise ValueError(f"campaign key {key!r} must be an integer, got {value!r}")
    return int(value)


def _number(data: Dict[str, Any], key: str, default: Any, where: str = "campaign") -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} key {key!r} must be a number, got {value!r}")
    return float(value)


def _table(data: Dict[str, Any], key: str) -> Dict[str, Any]:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"campaign key {key!r} must be an object, got {value!r}")
    return value


def _flag(data: Dict[str, Any], key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"campaign key {key!r} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class RangeSpec:
    """One sampled parameter: ``lo <= value <= hi``.

    ``scale="log"`` samples uniformly in log space (for scale-free
    constants like table size or EWMA time constants); ``type="int"``
    rounds to the nearest integer (inclusive bounds).
    """

    name: str
    lo: float
    hi: float
    scale: str = "linear"
    type: str = "float"

    def __post_init__(self) -> None:
        if self.scale not in ("linear", "log"):
            raise ValueError(f"range {self.name!r}: unknown scale {self.scale!r}")
        if self.type not in ("float", "int"):
            raise ValueError(f"range {self.name!r}: unknown type {self.type!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ValueError(f"range {self.name!r}: need finite lo <= hi, got [{self.lo}, {self.hi}]")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError(f"range {self.name!r}: log scale needs lo > 0")

    def sample(self, rng: Random) -> Union[int, float]:
        if self.scale == "log":
            value = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
        else:
            value = rng.uniform(self.lo, self.hi)
        if self.type == "int":
            return int(min(max(round(value), math.ceil(self.lo)), math.floor(self.hi)))
        return value

    def clamped(self, lo: float, hi: float) -> "RangeSpec":
        """This range narrowed to ``[lo, hi]`` (never widened)."""
        new_lo = max(self.lo, lo)
        new_hi = min(self.hi, hi)
        if new_lo > new_hi:  # degenerate: collapse to the nearer bound
            new_lo = new_hi = min(max(lo, self.lo), self.hi)
        return replace(self, lo=new_lo, hi=new_hi)

    def to_json_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi, "scale": self.scale, "type": self.type}

    @classmethod
    def from_json_dict(cls, name: str, data: Any) -> "RangeSpec":
        where = f"range {name!r}"
        if not isinstance(data, dict):
            raise ValueError(f"{where} must be an object with 'lo' and 'hi'")
        for key in ("lo", "hi"):
            if key not in data:
                raise ValueError(f"{where} is missing {key!r}")
        spec = cls(
            name=name,
            lo=_number(data, "lo", None, where),
            hi=_number(data, "hi", None, where),
            scale=str(data.get("scale", "linear")),
            type=str(data.get("type", "float")),
        )
        # Only a file's range is checked: shrinking may legitimately narrow
        # an int range between two integers (sampling then clamps).
        if spec.type == "int" and math.ceil(spec.lo) > math.floor(spec.hi):
            raise ValueError(f"{where}: int range [{spec.lo}, {spec.hi}] contains no integer")
        return spec


@dataclass(frozen=True)
class SweepSpec:
    """One declarative campaign (see module docstring for the file format)."""

    name: str
    kind: str
    mode: str = "grid"
    #: Constant parameters merged into every point (sorted pairs).
    base: Tuple[Tuple[str, Any], ...] = ()
    #: Cartesian axes in file order: ``((name, (v1, v2, ...)), ...)``.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    #: Sampled parameters and their initial box (random/optimize modes).
    ranges: Tuple[RangeSpec, ...] = ()
    #: Points a ``random`` sweep draws.
    samples: int = 0
    seed: int = 1
    #: Optimize: hard ceiling on evaluations, points per round, survivors
    #: kept, and the factor each surviving range width shrinks by per round.
    budget: int = 64
    batch: int = 8
    top_k: int = 3
    shrink: float = 0.5
    #: Summary key campaigns score/sort by (optional for grid/random —
    #: without it the summary carries no ``best`` entry).
    objective: str = ""
    minimize: bool = True
    #: Grid only: ``((figure, cells), ...)`` in file order, each cell a
    #: spec.  Left out of the digest when empty, so a file without
    #: figures keeps the digest it had before the key existed.
    figures: Tuple[Tuple[str, Tuple[SimulationSpec, ...]], ...] = field(
        default=(), metadata={"digest": "omit_empty"}
    )

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown simulation kind {self.kind!r}; choose from {KINDS}")
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}; choose from {SWEEP_MODES}")
        if self.mode == "grid":
            if not self.axes:
                raise ValueError("grid sweep needs at least one axis")
            for name, values in self.axes:
                if not values:
                    raise ValueError(f"grid axis {name!r} has no values")
            return
        if self.figures:
            raise ValueError("figures need mode 'grid'")
        if not self.ranges:
            raise ValueError(f"{self.mode} sweep needs at least one range")
        if self.mode == "random" and self.samples <= 0:
            raise ValueError("random sweep needs samples > 0")
        if self.mode == "optimize":
            if self.budget <= 0 or self.batch <= 0 or self.top_k <= 0:
                raise ValueError("optimize needs budget > 0, batch > 0, top_k > 0")
            if not (0.0 < self.shrink < 1.0):
                raise ValueError("optimize needs 0 < shrink < 1")
            if not self.objective:
                raise ValueError("optimize needs an objective to refine on")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Canonical campaign identity (state dirs and reproducibility key)."""
        return config_digest(self)

    def total_points(self) -> int:
        """Planned point count: the grid size, ``samples`` or ``budget``."""
        if self.mode == "grid":
            if self.figures:
                return len(self.grid_points())
            total = 1
            for _name, values in self.axes:
                total *= len(values)
            return total
        return self.samples if self.mode == "random" else self.budget

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def _axis_points(self) -> List[Dict[str, Any]]:
        """The cartesian product of ``axes``, last axis fastest."""
        points: List[Dict[str, Any]] = [{}]
        for name, values in self.axes:
            points = [dict(p, **{name: v}) for p in points for v in values]
        return points

    def grid_points(self) -> List[SimulationSpec]:
        """The cartesian product of ``axes`` over ``base``; with figures,
        every figure's points in file order, each shared point once."""
        if self.figures:
            unique = {p: None for points in self.figure_points().values() for p in points}
            return list(unique)
        base = dict(self.base)
        return [SimulationSpec.from_params(self.kind, dict(base, **p)) for p in self._axis_points()]

    def figure_points(self) -> Dict[str, List[SimulationSpec]]:
        """Each figure's points: its cells in order, a cell of the file's
        kind crossed with the axes (last axis fastest)."""
        base = dict(self.base)
        axes = self._axis_points()
        figures = {}
        for figure, cells in self.figures:
            points = []
            for cell in cells:
                if cell.kind != self.kind:
                    points.append(cell)
                    continue
                laid = dict(base, **cell.param_dict())
                points.extend(SimulationSpec.from_params(self.kind, {**laid, **p}) for p in axes)
            figures[figure] = points
        return figures

    def sample_points(
        self,
        round_index: int = 0,
        ranges: Optional[Sequence[RangeSpec]] = None,
        count: Optional[int] = None,
    ) -> List[SimulationSpec]:
        """``count`` (default ``samples``) seeded draws for one round.

        Random and optimize modes draw from separate ``derive_seed``
        streams, so each mode's points — and their cached results — are a
        pure function of the spec and its seed.
        """
        active = tuple(self.ranges if ranges is None else ranges)
        stream = "optimize" if self.mode == "optimize" else "draw"
        base = dict(self.base)
        points = []
        for i in range(self.samples if count is None else count):
            rng = Random(derive_seed(self.seed, "campaign", stream, round_index, i))
            assignment = {r.name: r.sample(rng) for r in active}
            points.append(SimulationSpec.from_params(self.kind, dict(base, **assignment)))
        return points

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "campaign": self.name,
            "kind": self.kind,
            "mode": self.mode,
        }
        if self.base:
            data["base"] = dict(self.base)
        if self.axes:
            data["axes"] = {name: list(values) for name, values in self.axes}
        if self.ranges:
            data["ranges"] = {r.name: r.to_json_dict() for r in self.ranges}
        if self.mode == "random":
            data["samples"] = self.samples
            data["seed"] = self.seed
        if self.mode == "optimize":
            data["budget"] = self.budget
            data["batch"] = self.batch
            data["top_k"] = self.top_k
            data["shrink"] = self.shrink
            data["seed"] = self.seed
        if self.objective:
            data["objective"] = self.objective
            data["minimize"] = self.minimize
        if self.figures:
            data["figures"] = {
                figure: [
                    dict(c.params, **({"kind": c.kind} if c.kind != self.kind else {}))
                    for c in cells
                ]
                for figure, cells in self.figures
            }
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        if data.get("mode") == "adaptive":
            raise ValueError(
                "sweep mode 'adaptive' is now mode 'optimize': set "
                "budget = rounds × samples and batch = samples, and drop 'rounds'"
            )
        known = {
            "campaign", "kind", "mode", "base", "axes", "ranges", "samples", "seed",
            "budget", "batch", "top_k", "shrink", "objective", "minimize", "figures",
        }
        unknown = sorted(k for k in data if k not in known)
        if unknown:
            raise ValueError(f"unknown sweep spec key(s) {unknown}; known: {sorted(known)}")
        if "kind" not in data:
            raise ValueError(f"campaign spec needs a 'kind'; choose from {KINDS}")
        kind = str(data["kind"])
        base_data = _table(data, "base")
        axes_data = _table(data, "axes")
        ranges_data = _table(data, "ranges")
        for name, values in axes_data.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"grid axis {name!r} must be a list of values, got {values!r}")
        if kind == "collection":
            check_collection_params([*base_data, *axes_data, *ranges_data])
        return cls(
            name=str(data.get("campaign", "campaign")),
            kind=kind,
            mode=str(data.get("mode", "grid")),
            base=freeze_params(kind, base_data),
            axes=tuple(
                (str(name), tuple(freeze_param(kind, str(name), v) for v in values))
                for name, values in axes_data.items()
            ),
            ranges=tuple(
                RangeSpec.from_json_dict(str(name), spec)
                for name, spec in ranges_data.items()
            ),
            samples=_integer(data, "samples", 0),
            seed=_integer(data, "seed", 1),
            budget=_integer(data, "budget", 64),
            batch=_integer(data, "batch", 8),
            top_k=_integer(data, "top_k", 3),
            shrink=_number(data, "shrink", 0.5),
            objective=str(data.get("objective", "")),
            minimize=_flag(data, "minimize", True),
            figures=_figures(kind, _table(data, "figures"), set(axes_data)),
        )


def _figures(
    kind: str, data: Dict[str, Any], axes: Set[str]
) -> Tuple[Tuple[str, Tuple[SimulationSpec, ...]], ...]:
    """A file's ``figures``, each cell a checked spec of its ``kind`` (the
    file's by default); a cell of the file's kind may not set an axis."""
    figures = []
    for figure, cells in data.items():
        if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
            raise ValueError(f"figure {figure!r} must be a list of objects, got {cells!r}")
        specs = []
        for cell in cells:
            params = {k: v for k, v in cell.items() if k != "kind"}
            spec = SimulationSpec.from_params(str(cell.get("kind", kind)), params)
            clash = sorted(axes.intersection(params)) if spec.kind == kind else []
            if clash:
                raise ValueError(f"figure {figure!r}: a cell may not set axis parameter(s) {clash}")
            if spec.kind == "collection":
                check_collection_params(params)
            elif spec.kind == "fig3":
                from repro.experiments.fig3_lqi_blind import settings_from_params

                settings_from_params(params)
            specs.append(spec)
        figures.append((str(figure), tuple(specs)))
    return tuple(figures)


def objective_score(result: Optional[SimulationResult], objective: str) -> Optional[float]:
    """The finite score of one result, or ``None`` when invalid.

    Invalid covers: the run failed (``result is None``), the summary lacks
    the objective key, the value is non-numeric, or it is NaN/±inf.  All
    four are treated alike — the point simply cannot win.
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


def rank(
    pairs: Sequence[Tuple[SimulationSpec, Optional[SimulationResult]]],
    objective: str,
    minimize: bool,
) -> List[Tuple[float, str, SimulationSpec, SimulationResult]]:
    """Validly scored points best-first as ``(signed score, digest, point,
    result)``; the digest breaks score ties, so the order is deterministic
    even on plateaus."""
    sign = 1.0 if minimize else -1.0
    ranked = []
    for point, result in pairs:
        score = objective_score(result, objective)
        if score is not None and result is not None:
            ranked.append((sign * score, point.digest(), point, result))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return ranked


def search(spec: SweepSpec) -> Generator[List[SimulationSpec], Results, List[Dict[str, Any]]]:
    """The campaign loop: yields each round's points, takes their results.

    Grid and random campaigns are one round.  Optimize proposes ``batch``
    points per round from the current ranges (the last round truncated to
    the ``budget``), then shrinks the ranges around the round's ``top_k``
    best.  Returns the per-round history, empty unless optimizing:
    ``{"round", "evaluated", "valid", "best_score", "ranges": {name: [lo,
    hi]}}``, where ``best_score`` is the best so far.
    """
    if spec.mode != "optimize":
        yield spec.grid_points() if spec.mode == "grid" else spec.sample_points()
        return []
    ranges = spec.ranges
    history: List[Dict[str, Any]] = []
    best: Optional[float] = None
    evaluated = 0
    while evaluated < spec.budget:
        round_index = len(history)
        points = spec.sample_points(round_index, ranges, min(spec.batch, spec.budget - evaluated))
        results = yield points
        if len(results) != len(points):
            raise ValueError(f"evaluator returned {len(results)} results for {len(points)} specs")
        evaluated += len(points)
        ranked = rank(list(zip(points, results)), spec.objective, spec.minimize)
        if ranked and (best is None or ranked[0][0] < best):
            best = ranked[0][0]
        survivors = [point.param_dict() for _s, _d, point, _r in ranked[: spec.top_k]]
        ranges = shrink_ranges(ranges, survivors, spec.shrink)
        history.append(
            {
                "round": round_index,
                "evaluated": len(points),
                "valid": len(ranked),
                "best_score": None if best is None else (best if spec.minimize else -best),
                "ranges": {r.name: [r.lo, r.hi] for r in ranges},
            }
        )
    return history


def run_search(spec: SweepSpec, evaluate: Evaluator) -> List[Dict[str, Any]]:
    """Drive :func:`search` to the end through ``evaluate``; returns its history.

    An exception ``evaluate`` raises (an interruption) ends the loop there.
    """
    loop = search(spec)
    try:
        points = next(loop)
        while True:
            points = loop.send(evaluate(points))
    except StopIteration as done:
        return done.value


def shrink_ranges(
    ranges: Sequence[RangeSpec],
    survivors: Sequence[Dict[str, Any]],
    shrink: float,
) -> Tuple[RangeSpec, ...]:
    """Each range re-centered on the survivors, width scaled by ``shrink``.

    Log-scaled ranges shrink in log space around the geometric mean; every
    result stays clamped inside the *current* bounds, so a search box only
    ever contracts.  With no survivors the ranges pass through unchanged.
    """
    if not survivors:
        return tuple(ranges)
    refined: List[RangeSpec] = []
    for rng_spec in ranges:
        values = [float(s[rng_spec.name]) for s in survivors if rng_spec.name in s]
        if not values:
            refined.append(rng_spec)
            continue
        if rng_spec.scale == "log":
            center_log = sum(math.log(v) for v in values) / len(values)
            half = (math.log(rng_spec.hi) - math.log(rng_spec.lo)) * shrink / 2.0
            lo = math.exp(center_log - half)
            hi = math.exp(center_log + half)
        else:
            center = sum(values) / len(values)
            half = (rng_spec.hi - rng_spec.lo) * shrink / 2.0
            lo = center - half
            hi = center + half
        refined.append(rng_spec.clamped(lo, hi))
    return tuple(refined)


def read_spec_data(path: Union[str, Path]) -> Dict[str, Any]:
    """Decode a campaign file: JSON always, TOML where ``tomllib`` exists."""
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise ValueError(
                f"{path}: TOML campaign files need Python >= 3.11 (tomllib); "
                "use the JSON form of the spec instead"
            ) from None
        return tomllib.loads(raw.decode("utf-8"))
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: campaign spec must be a JSON object")
    return data
