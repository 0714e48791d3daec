"""The declarative simulation contract: ``spec -> simulate() -> summary``.

A :class:`SimulationSpec` is a frozen, canonically hashable description of
one simulation — the unit the campaign queue enumerates, digests, shards,
caches, and resumes.  :func:`simulate` is the single top-level (picklable)
entry point the runner's workers call; it dispatches on ``spec.kind``:

``collection``
    A full :class:`~repro.sim.network.CollectionNetwork` run on a testbed
    profile, as in ``examples/paper.json``.  Parameters name the testbed
    (``profile``, ``n_nodes``, ``topology_seed``), any
    :class:`~repro.sim.network.SimConfig` field by its own name
    (``protocol``, ``seed``, ``duration_s``, ``tx_power_dbm``,
    ``white_bit``, ``medium``, ``faults``, ...), and estimator constants on
    top of the protocol's preset (``ku``, ``kb``, ``alpha_outer``,
    ``honor_pin_bit``, ``compare_evict``, ...).  ``faults`` takes a preset
    name, a JSON file or an inline object; a file is read when the spec is
    built, so its digest follows the content.
``fig3``
    Figure 3's scripted chain (:mod:`repro.experiments.fig3_lqi_blind`):
    parameters are the ``Fig3Settings`` field names, and the summary is
    ``Fig3Result.to_json_dict()``.
``accuracy``
    A scripted single-link estimator-accuracy run
    (:mod:`repro.estimators.accuracy`) scored against ground-truth ETX —
    the cheap objective the closed-loop tuner iterates on.
``synthetic``
    A closed-form objective (quadratic bowl, or deliberately NaN/inf
    surfaces) with no simulator behind it — the harness the campaign's own
    property tests and throughput benchmarks run against.

Every kind returns a :class:`SimulationResult` whose ``summary`` contains
only **deterministic, strict-JSON-safe** values: two runs of the same spec
— serial or pooled, fresh or resumed — serialize byte-identically.  Wall
-clock accounting stays on the separate ``resources`` slot, which the
runner fills, and a ``collection`` run's full
:class:`~repro.metrics.collection_stats.CollectionResult` on ``run`` (the
figure renderers read it); summaries include neither.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.metrics.collection_stats import CollectionResult, json_sanitize
from repro.runner.hashing import config_digest

#: Simulation kinds :func:`simulate` can execute.
KINDS = ("collection", "fig3", "accuracy", "synthetic")

#: ``collection`` parameters that pick the testbed; every other name is a
#: ``SimConfig`` field or an estimator constant.
_TESTBED_PARAMS = ("profile", "n_nodes", "topology_seed")

#: ``accuracy`` scenario parameters (see ``objectives.scenario_from_params``).
_ACCURACY_PARAMS = (
    "scenario",
    "prr",
    "high",
    "low",
    "step_at_s",
    "duration_s",
    "warmup_s",
    "beacon_period_s",
    "data_rate_pps",
    "sample_period_s",
    "seed",
    "preset",
)


def freeze_value(value: Any) -> Any:
    """Normalize JSON-decoded values into canonically hashable form.

    Lists become tuples (recursively) so a spec loaded from JSON equals —
    and digests identically to — the same spec built in Python.  Dicts
    become sorted ``(key, value)`` tuples for the same reason: the frozen
    dataclass stays hashable and the encoding order-independent.  A finite
    float with an integral value becomes its int, so ``seed=2.0`` and
    ``seed=2`` are one run with one cache entry.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), freeze_value(v)) for k, v in value.items()))
    if type(value) is float and math.isfinite(value) and value.is_integer():
        return int(value)
    return value


def _faults(value: Any) -> Any:
    """A ``faults`` value: a preset name stays a name; a JSON file or an
    inline object becomes its :class:`FaultSchedule`, so the digest covers
    the scenario's content rather than the path it was read from."""
    from repro.faults.presets import PRESET_NAMES as presets
    from repro.faults.schedule import FaultSchedule

    if value is None or isinstance(value, FaultSchedule) or (
        isinstance(value, str) and value in presets
    ):
        return value
    if isinstance(value, str):
        if not Path(value).is_file():
            raise ValueError(f"faults {value!r}: not a preset {sorted(presets)} and no such file")
        value = json.loads(Path(value).read_text())
    if not isinstance(value, dict):
        raise ValueError(f"faults must be a preset name, a JSON file or an object, got {value!r}")
    try:
        return FaultSchedule.from_json_dict(value)
    except TypeError as exc:  # an unknown field in an event row
        raise ValueError(f"faults: {exc}") from None


def freeze_param(kind: str, name: str, value: Any) -> Any:
    """One parameter value in canonical form (see :func:`freeze_value`);
    a ``collection`` spec's ``faults`` is resolved here."""
    if kind == "collection" and name == "faults":
        return _faults(value)
    return freeze_value(value)


def freeze_params(kind: str, params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """``params`` as sorted, canonical ``(name, value)`` pairs."""
    return tuple(sorted((str(k), freeze_param(kind, str(k), v)) for k, v in params.items()))


@dataclass(frozen=True)
class SimulationSpec:
    """One fully specified simulation — the unit of caching and fan-out."""

    kind: str
    #: Sorted ``(name, value)`` pairs; values are plain data or frozen
    #: scenario configs (canonically hashable), so the spec digests stably
    #: across processes.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown simulation kind {self.kind!r}; choose from {KINDS}")

    @classmethod
    def make(cls, kind: str, **params: Any) -> "SimulationSpec":
        return cls.from_params(kind, params)

    @classmethod
    def from_params(cls, kind: str, params: Dict[str, Any]) -> "SimulationSpec":
        return cls(kind=kind, params=freeze_params(kind, params))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def digest(self) -> str:
        """Canonical identity — the cache key component and resume anchor."""
        return config_digest(self)

    def to_json_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": json_sanitize(self.param_dict())}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SimulationSpec":
        return cls.from_params(str(data["kind"]), dict(data.get("params", {})))

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({parts})"


@dataclass
class SimulationResult:
    """Outcome of one :func:`simulate` call.

    ``summary`` is the deliverable: deterministic, strict-JSON-safe
    metrics keyed by name.  ``objectives`` read straight out of it — the
    campaign scores ``summary[spec.objective]``.
    """

    kind: str
    digest: str
    params: Dict[str, Any]
    summary: Dict[str, Any]
    #: Simulator events executed (runner throughput accounting; 0 for
    #: closed-form kinds).
    events_run: int = 0
    #: Wall/CPU/RSS deltas attached by the runner workers — inherently
    #: nondeterministic, excluded from equality and from summaries.
    resources: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The full ``collection`` run (per-node delivery, tree samples, engine
    #: profile, metrics) the figure renderers read; ``None`` for the other
    #: kinds.  Deterministic, but kept out of summaries.
    run: Optional[CollectionResult] = None

    @property
    def profile(self) -> Optional[Dict[str, object]]:
        """The run's engine profile, which the runner folds into its stats."""
        return None if self.run is None else self.run.profile

    def to_json_dict(self) -> Dict[str, Any]:
        """Deterministic strict-JSON view (``resources`` and ``run`` absent)."""
        return json_sanitize(
            {
                "kind": self.kind,
                "digest": self.digest,
                "params": self.params,
                "summary": self.summary,
            }
        )


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Execute one spec.  Top-level and picklable: the pool worker entry."""
    params = spec.param_dict()
    run = None
    if spec.kind == "synthetic":
        summary: Dict[str, Any] = _simulate_synthetic(params)
        events = 0
    elif spec.kind == "accuracy":
        summary = _simulate_accuracy(params)
        events = int(summary.pop("_events_run", 0))
    elif spec.kind == "fig3":
        # Local import: campaign start-up never loads the figure modules.
        from repro.experiments.fig3_lqi_blind import execute, settings_from_params

        figure = execute(settings_from_params(params))
        summary = figure.to_json_dict()
        events = figure.events_run
    else:
        run = _simulate_collection(params)
        summary = {name: getattr(run, name) for name in _COLLECTION_SUMMARY}
        events = run.events_run
    return SimulationResult(
        kind=spec.kind,
        digest=spec.digest(),
        params=json_sanitize(params),
        summary=json_sanitize(summary),
        events_run=events,
        run=run,
    )


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------
def _simulate_synthetic(params: Dict[str, Any]) -> Dict[str, Any]:
    """Closed-form objective surfaces for tests and benchmarks.

    Coordinates are every parameter whose name starts with ``x``; the
    objective is the squared distance to ``optimum`` (default 0.0, one
    shared target per coordinate).  ``mode`` selects failure surfaces an
    optimize campaign must degrade gracefully on:

    * ``"quadratic"`` (default) — the convex bowl;
    * ``"nan"`` / ``"inf"`` — the objective is never finite;
    * ``"nan_below"`` — NaN wherever any coordinate falls below
      ``threshold`` (a partially invalid region).
    """
    mode = str(params.get("mode", "quadratic"))
    optimum = float(params.get("optimum", 0.0))
    coords = sorted((k, float(v)) for k, v in params.items() if k.startswith("x"))
    if not coords:
        raise ValueError("synthetic spec needs at least one coordinate parameter (x0, x1, ...)")
    if mode == "nan":
        objective = math.nan
    elif mode == "inf":
        objective = math.inf
    elif mode == "nan_below":
        threshold = float(params.get("threshold", 0.0))
        if any(v < threshold for _k, v in coords):
            objective = math.nan
        else:
            objective = sum((v - optimum) ** 2 for _k, v in coords)
    elif mode == "quadratic":
        objective = sum((v - optimum) ** 2 for _k, v in coords)
    else:
        raise ValueError(f"unknown synthetic mode {mode!r}")
    return {"objective": objective, "dims": len(coords)}


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------
def _simulate_accuracy(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.estimators.objectives import (
        accuracy_summary,
        estimator_config_from_params,
        scenario_from_params,
        split_estimator_params,
    )

    est_params, rest = split_estimator_params(params)
    unknown = sorted(k for k in rest if k not in _ACCURACY_PARAMS)
    if unknown:
        raise ValueError(
            f"unknown accuracy parameter(s) {unknown}; "
            f"scenario parameters are {sorted(_ACCURACY_PARAMS)} and estimator "
            "constants follow EstimatorConfig field names"
        )
    config = estimator_config_from_params(est_params, preset=str(rest.get("preset", "4b")))
    scenario = scenario_from_params(rest)
    return accuracy_summary(config, scenario)


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------
#: ``CollectionResult`` fields a ``collection`` summary reports.
_COLLECTION_SUMMARY = (
    "cost", "delivery_ratio", "avg_tree_depth", "mean_packet_hops", "disconnected_fraction",
    "offered", "unique_delivered", "duplicates_at_root", "total_data_tx", "beacons_sent",
    "events_run",
)


def _integral(name: str, value: Any) -> int:
    """``value`` as an int, refusing a fraction rather than truncating it."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"collection parameter {name} must be an integer, got {value!r}")


def _config_fields() -> Set[str]:
    """The ``SimConfig`` fields a ``collection`` parameter may name: all but
    the estimator, which is set only through flat constants on top of the
    protocol's preset."""
    # Local import keeps the closed-form kinds import-light (the property
    # tests churn through thousands of synthetic specs).
    from repro.sim.network import SimConfig

    return {f.name for f in dataclasses.fields(SimConfig)} - {"estimator_config"}


def check_collection_params(names: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every ``collection`` parameter no run
    accepts.  A campaign file is checked with this when it loads, and
    every run checks its own parameters again."""
    from repro.estimators.objectives import TUNABLE_FIELDS

    names = set(names)
    if "mobility" in names:
        raise ValueError(
            "collection parameter 'mobility' was removed: the medium is static "
            "after set-up, as the paper's testbeds are; drop the key"
        )
    config_fields = _config_fields()
    unknown = sorted(
        k for k in names
        if k not in config_fields and k not in _TESTBED_PARAMS and k not in TUNABLE_FIELDS
    )
    if unknown:
        raise ValueError(
            f"unknown collection parameter(s) {unknown}; known: "
            f"{sorted(config_fields.union(_TESTBED_PARAMS))} plus EstimatorConfig field names"
        )


def _simulate_collection(params: Dict[str, Any]) -> CollectionResult:
    # Local imports keep the closed-form kinds import-light (the property
    # tests churn through thousands of synthetic specs).
    from repro.estimators.objectives import (
        estimator_config_from_params,
        split_estimator_params,
    )
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.topology.testbeds import PROFILES, scaled_profile

    check_collection_params(params)
    est_params, rest = split_estimator_params(params)
    profile = PROFILES.get(rest.get("profile", "mirage"))
    if profile is None:
        raise ValueError(
            f"unknown collection profile {rest['profile']!r}; choose from {sorted(PROFILES)}"
        )
    n_nodes = rest.get("n_nodes")
    if n_nodes is not None:
        n_nodes = _integral("n_nodes", n_nodes)
        if n_nodes < 2:
            raise ValueError(f"collection parameter n_nodes must be at least 2, got {n_nodes}")
        if n_nodes != profile.n_nodes:
            profile = scaled_profile(profile, n_nodes)
    config_fields = _config_fields()
    config = {k: v for k, v in rest.items() if k in config_fields and v is not None}
    protocol = str(config.get("protocol", "4b"))
    config.update(
        protocol=protocol,
        seed=_integral("seed", config.get("seed", 1)),
        tx_power_dbm=float(config.get("tx_power_dbm", 0.0)),
        duration_s=float(config.get("duration_s", 420.0)),
        warmup_s=float(config.get("warmup_s", 120.0)),
    )
    if est_params:
        config["estimator_config"] = estimator_config_from_params(est_params, preset=protocol)
    topology = profile.topology(_integral("topology_seed", rest.get("topology_seed", 11)))
    return CollectionNetwork(topology, SimConfig(**config), profile=profile).run()


#: Names of deterministic summary keys per kind — what sweep files may name
#: as an ``objective`` (documentation + spec validation aid).
OBJECTIVE_KEYS = {
    "synthetic": ("objective",),
    "accuracy": ("mre", "availability", "detection_delay_s", "beacon_tx", "data_tx"),
    "collection": _COLLECTION_SUMMARY,
    "fig3": ("delivery_ratio", "cost"),
}
