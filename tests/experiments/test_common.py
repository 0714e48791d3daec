"""Unit tests for what the figure renderers share, and the paper spec's scales."""

import math

import pytest

from repro.campaign.spec import SimulationSpec, simulate
from repro.experiments import BENCH
from repro.experiments.common import averaged, improvement
from repro.topology.testbeds import PROFILES

from tests.experiments.micro import MICRO_BASE, PAPER, micro_paper


def micro(protocol="4b", seed=1, **params):
    """One micro-scale ``collection`` point."""
    return SimulationSpec.make(
        "collection", profile="mirage", protocol=protocol, seed=seed,
        **dict(MICRO_BASE, **params),
    )


def test_full_scale_uses_paper_size():
    base = dict(PAPER.base)
    assert "n_nodes" not in base and PROFILES[base["profile"]].n_nodes == 85
    assert base["duration_s"] >= 1800.0


def test_bench_scale_is_reduced():
    base = dict(PAPER.base)
    assert BENCH["base"]["n_nodes"] < PROFILES[base["profile"]].n_nodes
    assert BENCH["base"]["duration_s"] < base["duration_s"]
    assert len(BENCH["seeds"]) < len(dict(PAPER.axes)["seed"])


def test_scale_profile_resizes():
    assert simulate(micro()).run.n_nodes == 12


def test_scale_full_size_passthrough():
    # Naming the profile's own size runs the profile itself, not a rescaled copy.
    short = dict(duration_s=60.0, warmup_s=20.0)
    full = simulate(micro(**short, n_nodes=85))
    assert full.run.n_nodes == 85
    assert full.summary == simulate(micro(**dict(short, n_nodes=None))).summary


def test_scale_rejects_empty_seeds():
    with pytest.raises(ValueError, match="axis 'seed' has no values"):
        micro_paper(seeds=())


def test_collection_point_produces_result():
    result = simulate(micro())
    assert result.run.protocol == "4b"
    assert result.run.n_nodes == 12
    assert result.run.unique_delivered > 0


def test_collection_point_reproducible():
    assert simulate(micro()).run.cost == simulate(micro()).run.cost


def test_averaged_pools_seeds():
    results = [simulate(micro(seed=seed)) for seed in (1, 2)]
    [cell] = averaged(results)
    assert len(cell.runs) == 2
    assert cell.label == "4b"
    per_seed = [r.cost for r in cell.runs]
    assert cell.cost == pytest.approx(sum(per_seed) / 2)
    # Pooled per-node delivery spans both seeds.
    assert len(cell.pooled_node_delivery) == 2 * 11


def test_averaged_custom_label():
    [cell] = averaged([simulate(micro())], lambda params: "Four-Bit")
    assert "Four-Bit" in cell.summary_row()


def test_improvement():
    assert improvement(2.0, 1.0) == pytest.approx(0.5)
    assert improvement(2.0, 2.5) == pytest.approx(-0.25)
    assert math.isnan(improvement(0.0, 1.0))
    assert math.isnan(improvement(math.inf, 1.0))


def test_tx_power_passed_through():
    low = simulate(micro(tx_power_dbm=-10.0))
    assert low.params["tx_power_dbm"] == -10
    assert low.run.unique_delivered > 0  # network still functions at −10 dBm
