"""SweepSpec: enumeration order, seeded sampling, refinement, file formats."""

import json
import sys

import pytest

from repro.campaign.sweep import RangeSpec, SweepSpec, read_spec_data, shrink_ranges
from repro.campaign.queue import load_campaign_file


GRID = {
    "campaign": "grid3",
    "kind": "synthetic",
    "mode": "grid",
    "base": {"optimum": 0.5},
    "axes": {"x0": [0.0, 1.0], "x1": [0.0, 1.0, 2.0], "x2": [3.0, 4.0]},
    "objective": "objective",
}


def test_grid_is_cartesian_in_axis_order():
    spec = SweepSpec.from_json_dict(GRID)
    points = spec.grid_points()
    assert len(points) == 12 == spec.total_points()
    # Last axis varies fastest; file order of axes is the enumeration order.
    dicts = [p.param_dict() for p in points]
    assert dicts[0] == {"optimum": 0.5, "x0": 0.0, "x1": 0.0, "x2": 3.0}
    assert dicts[1] == {"optimum": 0.5, "x0": 0.0, "x1": 0.0, "x2": 4.0}
    assert dicts[2] == {"optimum": 0.5, "x0": 0.0, "x1": 1.0, "x2": 3.0}
    assert dicts[-1] == {"optimum": 0.5, "x0": 1.0, "x1": 2.0, "x2": 4.0}


def test_grid_round_trip_preserves_digest_and_order():
    spec = SweepSpec.from_json_dict(GRID)
    back = SweepSpec.from_json_dict(spec.to_json_dict())
    assert back == spec
    assert back.digest() == spec.digest()
    assert [p.digest() for p in back.grid_points()] == [
        p.digest() for p in spec.grid_points()
    ]


def test_random_sampling_reproducible_from_spec_and_seed():
    data = {
        "campaign": "r", "kind": "synthetic", "mode": "random",
        "ranges": {"x0": {"lo": -1.0, "hi": 1.0}, "k": {"lo": 1, "hi": 10, "type": "int"}},
        "samples": 25, "seed": 42,
    }
    a = SweepSpec.from_json_dict(data)
    b = SweepSpec.from_json_dict(json.loads(json.dumps(data)))
    assert [p.digest() for p in a.sample_points(0)] == [
        p.digest() for p in b.sample_points(0)
    ]
    # A different seed is a different point set...
    c = SweepSpec.from_json_dict(dict(data, seed=43))
    assert [p.digest() for p in c.sample_points(0)] != [
        p.digest() for p in a.sample_points(0)
    ]
    # ...and so is a different round of the same spec.
    assert [p.digest() for p in a.sample_points(1)] != [
        p.digest() for p in a.sample_points(0)
    ]


def test_range_sampling_respects_bounds_and_types():
    spec = SweepSpec.from_json_dict(
        {
            "campaign": "r", "kind": "synthetic", "mode": "random",
            "ranges": {
                "x0": {"lo": -2.0, "hi": 2.0},
                "size": {"lo": 4, "hi": 64, "scale": "log", "type": "int"},
            },
            "samples": 200, "seed": 7,
        }
    )
    for point in spec.sample_points(0):
        params = point.param_dict()
        assert -2.0 <= params["x0"] <= 2.0
        assert isinstance(params["size"], int) and 4 <= params["size"] <= 64


def test_range_validation():
    with pytest.raises(ValueError, match="lo <= hi"):
        RangeSpec("x", lo=2.0, hi=1.0)
    with pytest.raises(ValueError, match="log scale needs lo > 0"):
        RangeSpec("x", lo=0.0, hi=1.0, scale="log")
    with pytest.raises(ValueError, match="unknown scale"):
        RangeSpec("x", lo=0.0, hi=1.0, scale="cubic")
    with pytest.raises(ValueError, match="unknown type"):
        RangeSpec("x", lo=0.0, hi=1.0, type="complex")


def test_shrink_ranges_contracts_and_clamps():
    ranges = (RangeSpec("x0", lo=0.0, hi=10.0),)
    narrowed = shrink_ranges(ranges, [{"x0": 9.9}], shrink=0.5)
    (r,) = narrowed
    assert r.hi <= 10.0 and r.lo >= 0.0
    assert (r.hi - r.lo) <= 5.0 + 1e-9
    assert r.lo <= 9.9 <= r.hi
    # No survivors: pass-through.
    assert shrink_ranges(ranges, [], shrink=0.5) == ranges


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="at least one axis"):
        SweepSpec.from_json_dict({"campaign": "x", "kind": "synthetic", "mode": "grid"})
    with pytest.raises(ValueError, match="samples > 0"):
        SweepSpec.from_json_dict(
            {"campaign": "x", "kind": "synthetic", "mode": "random",
             "ranges": {"x0": {"lo": 0, "hi": 1}}}
        )
    # The retired adaptive mode names its replacement and the conversion.
    with pytest.raises(ValueError, match=r"'optimize'.*budget = rounds × samples.*batch = samples"):
        SweepSpec.from_json_dict(
            {"campaign": "x", "kind": "synthetic", "mode": "adaptive",
             "ranges": {"x0": {"lo": 0, "hi": 1}}, "samples": 4, "rounds": 3,
             "objective": "objective"}
        )
    with pytest.raises(ValueError, match="unknown sweep spec key"):
        SweepSpec.from_json_dict(dict(GRID, turbo=True))


def test_load_campaign_file_dispatches_on_mode(tmp_path):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(GRID))
    assert isinstance(load_campaign_file(sweep_file), SweepSpec)

    tune_file = tmp_path / "tune.json"
    tune_file.write_text(json.dumps(
        {"campaign": "t", "kind": "synthetic", "mode": "optimize",
         "ranges": {"x0": {"lo": -1, "hi": 1}}, "objective": "objective"}
    ))
    tune = load_campaign_file(tune_file)
    assert isinstance(tune, SweepSpec) and tune.mode == "optimize"
    assert tune.total_points() == tune.budget == 64


def test_load_campaign_file_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_campaign_file(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_campaign_file(lst)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_toml_spec_loads_and_digests_identically(tmp_path):
    toml_file = tmp_path / "sweep.toml"
    toml_file.write_text(
        'campaign = "grid3"\n'
        'kind = "synthetic"\n'
        'mode = "grid"\n'
        'objective = "objective"\n'
        "[base]\noptimum = 0.5\n"
        "[axes]\nx0 = [0.0, 1.0]\nx1 = [0.0, 1.0, 2.0]\nx2 = [3.0, 4.0]\n"
    )
    via_toml = load_campaign_file(toml_file)
    via_json = SweepSpec.from_json_dict(GRID)
    assert via_toml.digest() == via_json.digest()


@pytest.mark.skipif(sys.version_info >= (3, 11), reason="checks the pre-3.11 error")
def test_toml_spec_errors_clearly_without_tomllib(tmp_path):
    toml_file = tmp_path / "sweep.toml"
    toml_file.write_text('campaign = "x"\n')
    with pytest.raises(ValueError, match="tomllib"):
        read_spec_data(toml_file)
