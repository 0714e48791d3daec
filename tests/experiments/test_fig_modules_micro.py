"""Micro-scale end-to-end runs of every figure through the paper campaign.

These guard the experiment *plumbing* (campaign cells, renderers) at a few
seconds for all figures; the scientific assertions live in the benchmark
suite and EXPERIMENTS.md.
"""

import json

import pytest

from repro.campaign.spec import SimulationSpec
from repro.experiments import run
from repro.experiments.fig3_lqi_blind import Fig3Result, execute, settings_from_params
from repro.runner.cache import ResultCache

from tests.experiments.micro import FIG3_MICRO, PAPER, micro_paper


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    root = tmp_path_factory.mktemp("paper")
    return run(micro_paper(), state_root=root / "state", cache=ResultCache(root / "cache"))


def test_fig2_micro(figures):
    result = figures["fig2"]
    assert set(result.results) == {"ctp", "mhlqi", "ctp-unconstrained"}
    out = result.render()
    assert "Figure 2" in out and "depth histogram" in out


def test_fig6_micro(figures):
    result = figures["fig6"]
    assert len(result.results) == 5
    assert "Cost = Depth" in result.render()


def test_fig7_fig8_micro_share_runs(tmp_path):
    cells = [c for c in PAPER.to_json_dict()["figures"]["fig7"] if c["tx_power_dbm"] == 0]
    spec = micro_paper(only=["fig7"], fig7=cells)
    figures = run(spec, state_root=tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
    sweep, delivery = figures["fig7"], figures["fig8"]
    assert delivery.sweep is sweep  # no re-simulation
    assert sweep.powers == (0.0,)
    assert delivery.distribution("4b", 0.0)
    assert "Figure 7" in sweep.render()
    assert "Figure 8" in delivery.render()


def test_headline_micro(figures):
    result = figures["headline"]
    assert set(result.results) == {"mirage", "tutornet"}
    assert "Headline" in result.render()


def test_fig3_micro(figures):
    result = figures["fig3"]
    assert result.prr_series and result.lqi_series and result.unacked_series
    assert "Figure 3" in result.render()


def test_figure_specs_round_trip_through_json():
    points = micro_paper().figure_points()
    assert {name: len(p) for name, p in points.items()} == {
        "fig2": 3, "fig3": 1, "fig6": 5, "fig7": 6, "headline": 4, "ablation": 8,
    }
    for spec in (p for figure in points.values() for p in figure):
        assert spec.kind == ("fig3" if spec in points["fig3"] else "collection")
        # Plain data: strict JSON and back gives the same spec and digest.
        doc = json.loads(json.dumps(spec.to_json_dict(), allow_nan=False))
        back = SimulationSpec.from_json_dict(doc)
        assert back == spec
        assert back.digest() == spec.digest()


def test_fig3_spec_round_trips_with_a_stable_digest():
    spec = SimulationSpec.from_params("fig3", FIG3_MICRO)
    back = SimulationSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert back == spec and back.digest() == spec.digest()
    # Key order and an integral float's spelling do not move the digest.
    respelled = dict(reversed(list(FIG3_MICRO.items())), seed=7.0)
    assert SimulationSpec.from_params("fig3", respelled).digest() == spec.digest()


def test_fig3_unknown_param_is_named():
    with pytest.raises(ValueError, match="burst_windw"):
        settings_from_params({"burst_windw": [1.0, 2.0]})
    with pytest.raises(ValueError, match="burst_windw"):
        micro_paper(fig3=[dict(FIG3_MICRO, burst_windw=[1.0, 2.0])])


def test_rebuilt_fig3_renders_like_execute(figures):
    settings = settings_from_params({k: v for k, v in FIG3_MICRO.items() if k != "kind"})
    direct = execute(settings)
    assert figures["fig3"].render() == direct.render()
    assert Fig3Result.from_json_dict(direct.to_json_dict()) == direct
