"""Micro-scale end-to-end runs of every figure module.

These guard the experiment *plumbing* (construction, instrumentation,
rendering) at a few seconds per figure; the scientific assertions live in
the benchmark suite and EXPERIMENTS.md.
"""

import dataclasses
import json

import pytest

from repro.campaign.spec import SimulationSpec, simulate
from repro.experiments.common import ExperimentScale

MICRO = ExperimentScale(n_nodes=12, duration_s=180.0, warmup_s=60.0, seeds=(1,))


def test_fig2_micro():
    from repro.experiments.fig2_trees import run

    result = run(MICRO)
    assert set(result.results) == {"ctp", "mhlqi", "ctp-unconstrained"}
    out = result.render()
    assert "Figure 2" in out and "depth histogram" in out


def test_fig6_micro():
    from repro.experiments.fig6_design_space import run

    result = run(MICRO)
    assert len(result.results) == 5
    assert "Cost = Depth" in result.render()


def test_fig7_fig8_micro_share_runs():
    from repro.experiments.fig7_power_sweep import run as run7
    from repro.experiments.fig8_delivery import run as run8

    sweep = run7(MICRO, powers=(0.0,))
    delivery = run8(MICRO, powers=(0.0,), sweep=sweep)
    assert delivery.sweep is sweep  # no re-simulation
    assert delivery.distribution("4b", 0.0)
    assert "Figure 7" in sweep.render()
    assert "Figure 8" in delivery.render()


def test_headline_micro():
    from repro.experiments.headline import run

    result = run(dataclasses.replace(MICRO, duration_s=180.0))
    assert set(result.results) == {"mirage", "tutornet"}
    assert "Headline" in result.render()


def test_fig3_micro():
    from repro.experiments.fig3_lqi_blind import Fig3Settings, run

    result = run(Fig3Settings(duration_s=300.0, burst_window=(100.0, 200.0)))
    assert result.prr_series and result.lqi_series and result.unacked_series
    assert "Figure 3" in result.render()


class _Captured(Exception):
    pass


class _SpecRecorder:
    """Runner stand-in: records a figure's batch of tasks, then stops it."""

    def __init__(self):
        self.tasks = []

    def run(self, tasks):
        self.tasks.extend(tasks)
        raise _Captured()


def test_figure_specs_round_trip_through_json():
    from repro.experiments import ablation, fig2_trees, fig6_design_space, fig7_power_sweep, headline

    recorder = _SpecRecorder()
    for module in (fig2_trees, fig6_design_space, fig7_power_sweep, headline, ablation):
        with pytest.raises(_Captured):
            module.run(MICRO, runner=recorder)
    assert len(recorder.tasks) == 3 + 5 + 2 * len(fig7_power_sweep.POWERS_DBM) + 4 + 8
    for task in recorder.tasks:
        spec = task.arg
        assert task.fn is simulate and spec.kind == "collection"
        # Plain data: strict JSON and back gives the same spec and digest.
        doc = json.loads(json.dumps(spec.to_json_dict(), allow_nan=False))
        back = SimulationSpec.from_json_dict(doc)
        assert back == spec
        assert back.digest() == spec.digest()
