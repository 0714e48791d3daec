"""SimulationSpec contract: canonical identity, round-trips, dispatch."""

import json
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


def test_integral_float_and_int_are_one_run():
    for name, as_int, as_float in (("seed", 2, 2.0), ("duration_s", 150, 150.0)):
        a = SimulationSpec.make("collection", **{name: as_int})
        b = SimulationSpec.make("collection", **{name: as_float})
        assert a == b and a.digest() == b.digest(), name
    # Fractions, bools and non-finite floats keep their own identity.
    assert freeze_value(2.5) == 2.5
    assert freeze_value(True) is True
    assert math.isnan(freeze_value(math.nan))
    assert freeze_value(-math.inf) == -math.inf
    assert freeze_value([1.0, {"k": 3.0}]) == (1, (("k", 3),))
    # A collection smoke point summarizes byte-identically either way.
    base = {"profile": "mirage", "n_nodes": 8, "warmup_s": 60}
    spelled_int = simulate(SimulationSpec.make("collection", seed=2, duration_s=150, **base))
    spelled_float = simulate(
        SimulationSpec.make("collection", seed=2.0, duration_s=150.0, **base)
    )
    assert json.dumps(spelled_int.to_json_dict()) == json.dumps(spelled_float.to_json_dict())


def test_scenario_files_are_digested_by_content(tmp_path, capsys):
    from repro.campaign.cli import main
    from repro.campaign.sweep import SweepSpec
    from repro.faults.schedule import FaultSchedule, NodeCrash

    faults = tmp_path / "faults.json"
    doc = {
        "campaign": "scenario-files", "kind": "collection", "mode": "grid",
        "base": {"faults": str(faults)}, "axes": {"seed": [1]},
    }

    def load_point():
        (point,) = SweepSpec.from_json_dict(doc).grid_points()
        return point

    FaultSchedule((NodeCrash(at_s=60.0, node=3),)).to_json_file(faults)
    first = load_point()
    assert first.param_dict()["faults"] == FaultSchedule((NodeCrash(at_s=60.0, node=3),))
    # The same path with new content is a new run, not a stale cache hit.
    FaultSchedule((NodeCrash(at_s=90.0, node=3),)).to_json_file(faults)
    assert load_point().digest() != first.digest()
    # An inline object is the same scenario as the file that holds it.
    doc["base"]["faults"] = json.loads(faults.read_text())
    assert load_point() == SimulationSpec.make("collection", faults=str(faults), seed=1)

    # An unknown preset or a missing file fails the spec at load time.
    for name, value in (("preset", "no_such_preset"), ("file", str(tmp_path / "gone.json"))):
        bad = dict(doc, base={"faults": value})
        path = tmp_path / f"bad-{name}.json"
        path.write_text(json.dumps(bad))
        state = tmp_path / f"state-{name}"
        code = main(["run", str(path), "--state-dir", str(state),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        assert "not a preset" in capsys.readouterr().err
        assert not state.exists()
