"""Declarative sweep specs: cartesian grids, seeded sampling, refinement.

A :class:`SweepSpec` is the file format of a campaign (JSON, or TOML where
``tomllib`` exists).  Three modes:

``grid``
    The cartesian product of ``axes`` (value lists, in file order — the
    enumeration order is part of the contract, so resumed and sharded
    campaigns serialize point lists byte-identically).
``random``
    ``samples`` points drawn from per-parameter :class:`RangeSpec`\\ s.
    Every draw comes from its own ``derive_seed``-keyed stream, so the
    point set is a pure function of ``(spec digest, seed)`` — adding a
    parameter or re-running on another machine cannot shift the samples.
``adaptive``
    ``rounds`` rounds of ``samples`` draws each; after every round the
    ranges shrink around the ``top_k`` best completed points
    (cross-entropy style).  Later rounds are pure functions of earlier
    *results*, which the result cache persists — so an interrupted
    adaptive campaign re-derives the identical refinement path on resume.

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
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import KINDS, SimulationSpec, freeze_param, freeze_params
from repro.runner.hashing import config_digest
from repro.sim.rng import derive_seed

#: Sweep modes a spec file may name (``optimize`` lives in
#: :mod:`repro.campaign.optimize` but shares the file format).
SWEEP_MODES = ("grid", "random", "adaptive")


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
    def from_json_dict(cls, name: str, data: Dict[str, Any]) -> "RangeSpec":
        return cls(
            name=name,
            lo=float(data["lo"]),
            hi=float(data["hi"]),
            scale=str(data.get("scale", "linear")),
            type=str(data.get("type", "float")),
        )


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
    #: Sampled parameters (random/adaptive modes).
    ranges: Tuple[RangeSpec, ...] = ()
    #: Points per draw (total for ``random``, per round for ``adaptive``).
    samples: int = 0
    seed: int = 1
    #: Adaptive refinement: number of rounds, survivors kept, and the
    #: factor each surviving range width shrinks by per round.
    rounds: int = 1
    top_k: int = 3
    shrink: float = 0.5
    #: Summary key campaigns score/sort by (optional for grid/random —
    #: without it the summary carries no ``best`` entry).
    objective: str = ""
    minimize: bool = True

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
        else:
            if not self.ranges:
                raise ValueError(f"{self.mode} sweep needs at least one range")
            if self.samples <= 0:
                raise ValueError(f"{self.mode} sweep needs samples > 0")
        if self.mode == "adaptive":
            if self.rounds <= 0 or self.top_k <= 0 or not (0.0 < self.shrink < 1.0):
                raise ValueError("adaptive sweep needs rounds > 0, top_k > 0, 0 < shrink < 1")
            if not self.objective:
                raise ValueError("adaptive sweep needs an objective to refine on")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Canonical campaign identity (state dirs and reproducibility key)."""
        return config_digest(self)

    def n_rounds(self) -> int:
        return self.rounds if self.mode == "adaptive" else 1

    def total_points(self) -> Optional[int]:
        """Planned point count (grid/random; adaptive counts via rounds)."""
        if self.mode == "grid":
            total = 1
            for _name, values in self.axes:
                total *= len(values)
            return total
        return self.samples * self.n_rounds()

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def grid_points(self) -> List[SimulationSpec]:
        """The cartesian product of ``axes``, last axis fastest."""
        points: List[Dict[str, Any]] = [{}]
        for name, values in self.axes:
            points = [dict(p, **{name: v}) for p in points for v in values]
        base = dict(self.base)
        return [SimulationSpec.from_params(self.kind, dict(base, **p)) for p in points]

    def sample_points(
        self, round_index: int = 0, ranges: Optional[Sequence[RangeSpec]] = None
    ) -> List[SimulationSpec]:
        """``samples`` seeded draws for one round (pure in spec + seed)."""
        active = tuple(self.ranges if ranges is None else ranges)
        base = dict(self.base)
        points = []
        for i in range(self.samples):
            rng = Random(derive_seed(self.seed, "campaign", "draw", round_index, i))
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
        if self.mode != "grid":
            data["samples"] = self.samples
            data["seed"] = self.seed
        if self.mode == "adaptive":
            data["rounds"] = self.rounds
            data["top_k"] = self.top_k
            data["shrink"] = self.shrink
        if self.objective:
            data["objective"] = self.objective
            data["minimize"] = self.minimize
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        known = {
            "campaign", "kind", "mode", "base", "axes", "ranges", "samples",
            "seed", "rounds", "top_k", "shrink", "objective", "minimize",
        }
        unknown = sorted(k for k in data if k not in known)
        if unknown:
            raise ValueError(f"unknown sweep spec key(s) {unknown}; known: {sorted(known)}")
        kind = str(data["kind"])
        axes_data = data.get("axes", {})
        ranges_data = data.get("ranges", {})
        return cls(
            name=str(data.get("campaign", "campaign")),
            kind=kind,
            mode=str(data.get("mode", "grid")),
            base=freeze_params(kind, dict(data.get("base", {}))),
            axes=tuple(
                (str(name), tuple(freeze_param(kind, str(name), v) for v in values))
                for name, values in axes_data.items()
            ),
            ranges=tuple(
                RangeSpec.from_json_dict(str(name), spec)
                for name, spec in ranges_data.items()
            ),
            samples=int(data.get("samples", 0)),
            seed=int(data.get("seed", 1)),
            rounds=int(data.get("rounds", 1)),
            top_k=int(data.get("top_k", 3)),
            shrink=float(data.get("shrink", 0.5)),
            objective=str(data.get("objective", "")),
            minimize=bool(data.get("minimize", True)),
        )


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
