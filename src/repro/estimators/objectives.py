"""Objective adapters: parameter points -> estimator configs -> scores.

The campaign orchestrator tunes the estimator's constants (EWMA α, ku, kb,
table size, white-bit threshold) as plain ``{name: value}`` points.  This
module is the bridge: it folds such a point into an
:class:`~repro.core.estimator.EstimatorConfig` (on top of a named preset)
and scores it on the offline accuracy harness
(:mod:`repro.estimators.accuracy`), returning the deterministic summary
dict an optimize campaign minimizes.

The accuracy/cost trade-off the paper negotiates by hand becomes two
summary keys: ``mre`` (mean relative ETX error against ground truth — the
accuracy objective) and ``beacon_tx``/``data_tx`` (transmissions consumed —
the cost objective); a campaign file names either, or combines
them with a secondary-objective weight.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Tuple

from repro.core.estimator import EstimatorConfig
from repro.estimators.accuracy import (
    AccuracyScenario,
    evaluate,
    step_scenario,
    steady_scenario,
)
from repro.estimators.presets import PRESETS

#: EstimatorConfig fields a campaign point may set, with their types.
#: ``table_size`` may be ``None`` (unconstrained table); numeric fields are
#: coerced from JSON numbers so ``{"ku": 5.0}`` in a spec file means
#: ``ku=5``.  The boolean and string fields are the ablation switches and
#: take a value of their own type only.
TUNABLE_FIELDS: Dict[str, type] = {
    **dict.fromkeys(("ku", "kb", "table_size", "reboot_gap", "immature_evict_expected"), int),
    **dict.fromkeys(("alpha_outer", "alpha_beacon", "max_etx_sample", "evict_etx_threshold"), float),
    **dict.fromkeys(("honor_pin_bit", "require_white_bit"), bool),
    "compare_evict": str,
}


def split_estimator_params(params: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a parameter point into (estimator overrides, everything else)."""
    est: Dict[str, Any] = {}
    rest: Dict[str, Any] = {}
    for name, value in sorted(params.items()):
        if name in TUNABLE_FIELDS:
            est[name] = value
        else:
            rest[name] = value
    return est, rest


def estimator_config_from_params(
    params: Dict[str, Any], preset: str = "4b"
) -> EstimatorConfig:
    """An :class:`EstimatorConfig`: the named preset with ``params`` applied."""
    try:
        base = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown estimator preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    overrides: Dict[str, Any] = {}
    for name, value in sorted(params.items()):
        if name not in TUNABLE_FIELDS:
            raise ValueError(
                f"unknown estimator parameter {name!r}; tunable: {sorted(TUNABLE_FIELDS)}"
            )
        kind = TUNABLE_FIELDS[name]
        if value is None and name == "table_size":
            overrides[name] = None
        elif kind in (int, float):
            overrides[name] = kind(value)
        elif isinstance(value, kind):
            overrides[name] = value
        else:
            raise ValueError(
                f"estimator parameter {name!r} must be a {kind.__name__}, got {value!r}"
            )
    return dataclasses.replace(base, **overrides)


def scenario_from_params(params: Dict[str, Any]) -> AccuracyScenario:
    """Build the scripted-link scenario an ``accuracy`` spec names.

    ``scenario`` selects the trace shape: ``"steady"`` (constant PRR
    ``prr``) or ``"step"`` (PRR ``high`` dropping to ``low`` at
    ``step_at_s`` — the paper's burst-loss trap, which rewards agile
    windows and punishes heavy EWMA history).
    """
    shape = str(params.get("scenario", "steady"))
    common: Dict[str, Any] = {}
    for name in ("duration_s", "warmup_s", "beacon_period_s", "data_rate_pps", "sample_period_s"):
        if params.get(name) is not None:
            common[name] = float(params[name])
    if params.get("seed") is not None:
        common["seed"] = int(params["seed"])
    if shape == "steady":
        return steady_scenario(float(params.get("prr", 0.7)), **common)
    if shape == "step":
        return step_scenario(
            high=float(params.get("high", 0.9)),
            low=float(params.get("low", 0.3)),
            at_s=float(params.get("step_at_s", 300.0)),
            **common,
        )
    raise ValueError(f"unknown accuracy scenario {shape!r}; choose 'steady' or 'step'")


def accuracy_summary(config: EstimatorConfig, scenario: AccuracyScenario) -> Dict[str, Any]:
    """Run one estimator over the scenario and fold the score into a summary.

    Keys (all deterministic in the spec):

    * ``mre`` — mean relative ETX error over scored samples (the accuracy
      objective; NaN when no sample produced an estimate).
    * ``availability`` — fraction of scored instants with any estimate.
    * ``detection_delay_s`` — reaction time to the largest PRR step (NaN
      when the trace has no step or the estimate never crossed).
    * ``beacon_tx`` / ``data_tx`` — transmissions consumed by the run (the
      cost objective: bigger windows are cheaper but slower).
    * ``samples`` — scored sample count (sanity floor for sweeps).
    """
    result = evaluate(config, scenario)
    cost = result.cost_counters
    delay = result.detection_delay_s
    return {
        "mre": result.mean_relative_error(),
        "availability": result.availability(),
        "detection_delay_s": math.nan if delay is None else delay,
        "beacon_tx": cost.get("beacon_tx", 0),
        "data_tx": cost.get("data_tx", 0),
        "samples": len(result.samples),
        "_events_run": cost.get("events_run", 0),
    }
