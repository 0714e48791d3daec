"""Optimize mode of the search loop: convergence, budgets, failure surfaces."""

import pytest

from repro.campaign.spec import SimulationSpec, simulate
from repro.campaign.sweep import SweepSpec, objective_score, rank, run_search


def _evaluate(points):
    return [simulate(p) for p in points]


def _spec(**overrides):
    data = {
        "campaign": "t",
        "kind": "synthetic",
        "mode": "optimize",
        "base": {"optimum": 1.5},
        "ranges": {"x0": {"lo": -8.0, "hi": 8.0}, "x1": {"lo": -8.0, "hi": 8.0}},
        "objective": "objective",
        "budget": 64,
        "batch": 8,
        "top_k": 3,
        "shrink": 0.5,
        "seed": 11,
    }
    data.update(overrides)
    return SweepSpec.from_json_dict(data)


def _tune(spec, evaluate=_evaluate):
    """Run the loop; returns (history, evaluated pairs, best ranked pair or None)."""
    pairs = []

    def recording(points):
        results = evaluate(points)
        pairs.extend(zip(points, results))
        return results

    history = run_search(spec, recording)
    ranked = rank(pairs, spec.objective, spec.minimize)
    return history, pairs, (ranked[0] if ranked else None)


def _best(best):
    """(params, score) of a ranked entry."""
    _signed, _digest, point, result = best
    return point.param_dict(), result.summary["objective"]


def test_converges_on_convex_objective_within_budget():
    history, pairs, best = _tune(_spec())
    params, score = _best(best)
    assert score < 0.5 and history[-1]["best_score"] == score
    assert abs(params["x0"] - 1.5) < 1.0
    assert abs(params["x1"] - 1.5) < 1.0
    assert len(pairs) == sum(h["evaluated"] for h in history) == 64
    # Refinement visibly contracted the search box.
    first, last = history[0], history[-1]
    width = lambda r: r["x0"][1] - r["x0"][0]  # noqa: E731
    assert width(last["ranges"]) < width(first["ranges"])


def test_budget_is_a_hard_ceiling_with_truncated_last_batch():
    history, pairs, _best_entry = _tune(_spec(budget=10, batch=4))
    assert len(pairs) == 10
    assert [h["evaluated"] for h in history] == [4, 4, 2]


def test_all_nan_objective_degrades_gracefully():
    history, pairs, best = _tune(_spec(base={"mode": "nan"}))
    assert best is None and history[-1]["best_score"] is None
    assert sum(h["valid"] for h in history) == 0
    assert len(pairs) == 64  # still spent the budget looking
    # Ranges never shrank: every round re-samples the full box.
    assert history[-1]["ranges"] == history[0]["ranges"]


def test_all_inf_objective_degrades_gracefully():
    history, _pairs, best = _tune(_spec(base={"mode": "inf"}, budget=16))
    assert best is None
    assert sum(h["valid"] for h in history) == 0


def test_partially_invalid_surface_still_converges():
    # NaN below 0: half the box is poisoned, the search must route
    # around it and still find the bowl at optimum=1.5.
    spec = _spec(base={"optimum": 1.5, "mode": "nan_below", "threshold": 0.0})
    history, pairs, best = _tune(spec)
    params, score = _best(best)
    assert sum(h["valid"] for h in history) < len(pairs)
    # The shrinking box can trap one coordinate slightly off-optimum when
    # half the surface is invalid; what matters is a finite, sane score.
    assert score < 10.0
    assert params["x0"] >= 0.0
    assert params["x1"] >= 0.0


def test_maximize_mode():
    # Maximizing the quadratic pushes toward the corners, away from optimum.
    history, _pairs, best = _tune(_spec(minimize=False, budget=32))
    _params, score = _best(best)
    assert score > 50.0 and history[-1]["best_score"] == score


def test_failed_runs_count_against_budget_but_never_score():
    calls = []

    def flaky(points):
        calls.append(len(points))
        return [None for _ in points]

    history, _pairs, best = _tune(_spec(budget=8, batch=4), flaky)
    assert calls == [4, 4]
    assert sum(h["valid"] for h in history) == 0
    assert best is None


def test_evaluator_length_mismatch_is_an_error():
    with pytest.raises(ValueError, match="evaluator returned"):
        run_search(_spec(budget=4, batch=4), lambda points: [])


def test_trajectory_is_deterministic():
    a_history, a_pairs, _a = _tune(_spec())
    b_history, b_pairs, _b = _tune(_spec())
    assert a_history == b_history
    assert [p.digest() for p, _r in a_pairs] == [p.digest() for p, _r in b_pairs]


def test_objective_score_invalid_shapes():
    result = simulate(SimulationSpec.make("synthetic", x0=1.0))
    assert objective_score(result, "objective") == 1.0
    assert objective_score(result, "missing_key") is None
    assert objective_score(None, "objective") is None
    nan_result = simulate(SimulationSpec.make("synthetic", x0=1.0, mode="nan"))
    assert objective_score(nan_result, "objective") is None


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one range"):
        SweepSpec.from_json_dict(
            {"campaign": "x", "kind": "synthetic", "mode": "optimize", "objective": "objective"}
        )
    with pytest.raises(ValueError, match="needs an objective"):
        SweepSpec.from_json_dict(
            {"campaign": "x", "kind": "synthetic", "mode": "optimize",
             "ranges": {"x0": {"lo": 0, "hi": 1}}}
        )
    with pytest.raises(ValueError, match="0 < shrink < 1"):
        _spec(shrink=1.5)
    with pytest.raises(ValueError, match="budget > 0"):
        _spec(budget=0)


def test_round_trip():
    spec = _spec()
    back = SweepSpec.from_json_dict(spec.to_json_dict())
    assert back == spec and back.digest() == spec.digest()
