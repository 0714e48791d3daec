"""SimulationSpec contract: canonical identity, round-trips, dispatch."""

import math

import pytest

from repro.campaign.spec import (
    OBJECTIVE_KEYS,
    SimulationSpec,
    freeze_value,
    simulate,
)


def test_spec_digest_is_order_independent():
    a = SimulationSpec.make("synthetic", x0=1.0, x1=2.0)
    b = SimulationSpec.from_params("synthetic", {"x1": 2.0, "x0": 1.0})
    assert a == b
    assert a.digest() == b.digest()


def test_spec_json_round_trip_preserves_digest():
    spec = SimulationSpec.make(
        "collection", profile="mirage", n_nodes=10, seed=3, ku=5,
        white_bit="lqi", white_bit_threshold=100.0,
    )
    back = SimulationSpec.from_json_dict(spec.to_json_dict())
    assert back == spec
    assert back.digest() == spec.digest()


def test_freeze_value_normalizes_json_shapes():
    assert freeze_value([1, [2, 3]]) == (1, (2, 3))
    assert freeze_value({"b": 2, "a": [1]}) == (("a", (1,)), ("b", 2))
    # A spec built from JSON-decoded lists equals one built from tuples.
    via_list = SimulationSpec.make("synthetic", x0=1.0, xs=[1, 2])
    via_tuple = SimulationSpec.make("synthetic", x0=1.0, xs=(1, 2))
    assert via_list.digest() == via_tuple.digest()


def test_collection_rejects_bad_scale_parameters():
    # Each is refused before any simulation, naming the parameter: a
    # fraction is never truncated into a different run than the spec records.
    cases = [
        ({"seed": 1.7}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"n_nodes": 2.5}, "n_nodes"),
        ({"n_nodes": -3}, "n_nodes"),
        ({"n_nodes": 1}, "n_nodes"),
        ({"topology_seed": 0.5}, "topology_seed"),
        ({"topology_seed": True}, "topology_seed"),
        ({"profile": "atlantis"}, "profile"),
    ]
    for params, name in cases:
        spec = SimulationSpec.make("collection", duration_s=60.0, warmup_s=10.0, **params)
        with pytest.raises(ValueError, match=name):
            simulate(spec)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown simulation kind"):
        SimulationSpec.make("quantum")


def test_synthetic_quadratic_objective():
    result = simulate(SimulationSpec.make("synthetic", x0=3.0, x1=4.0))
    assert result.summary == {"objective": 25.0, "dims": 2}
    assert result.events_run == 0
    assert result.digest == SimulationSpec.make("synthetic", x0=3.0, x1=4.0).digest()


def test_synthetic_optimum_shifts_the_bowl():
    result = simulate(SimulationSpec.make("synthetic", x0=0.7, optimum=0.7))
    assert result.summary["objective"] == 0.0


def test_synthetic_failure_surfaces_are_json_null():
    # NaN/inf objectives sanitize to None: strict-JSON-safe, and the
    # optimizer treats them as invalid.
    for mode in ("nan", "inf"):
        result = simulate(SimulationSpec.make("synthetic", x0=1.0, mode=mode))
        assert result.summary["objective"] is None
    below = simulate(
        SimulationSpec.make("synthetic", x0=-1.0, mode="nan_below", threshold=0.0)
    )
    assert below.summary["objective"] is None
    above = simulate(
        SimulationSpec.make("synthetic", x0=1.0, mode="nan_below", threshold=0.0)
    )
    assert above.summary["objective"] == 1.0


def test_synthetic_requires_coordinates():
    with pytest.raises(ValueError, match="coordinate"):
        simulate(SimulationSpec.make("synthetic", mode="quadratic"))


def test_accuracy_kind_runs_and_reports_cost():
    spec = SimulationSpec.make(
        "accuracy", scenario="steady", prr=0.8, duration_s=120.0, warmup_s=30.0,
        ku=5, kb=2,
    )
    result = simulate(spec)
    for key in OBJECTIVE_KEYS["accuracy"]:
        assert key in result.summary
    assert result.summary["samples"] > 0
    assert result.summary["beacon_tx"] > 0
    assert result.events_run > 0
    assert "_events_run" not in result.summary


def test_accuracy_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown accuracy parameter"):
        simulate(SimulationSpec.make("accuracy", prr=0.8, warp_factor=9))


def test_accuracy_determinism():
    spec = SimulationSpec.make("accuracy", scenario="steady", prr=0.7, duration_s=90.0)
    a = simulate(spec)
    b = simulate(spec)
    assert a.summary == b.summary


def test_result_json_dict_excludes_resources():
    result = simulate(SimulationSpec.make("synthetic", x0=1.0))
    result.resources = {"wall_s": 1.23}
    doc = result.to_json_dict()
    assert "resources" not in doc
    assert set(doc) == {"kind", "digest", "params", "summary"}


def test_result_equality_ignores_resources():
    a = simulate(SimulationSpec.make("synthetic", x0=1.0))
    b = simulate(SimulationSpec.make("synthetic", x0=1.0))
    b.resources = {"wall_s": math.pi}
    assert a == b
