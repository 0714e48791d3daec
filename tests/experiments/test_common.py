"""Unit tests for the experiment harness."""

import dataclasses
import math

import pytest

from repro.experiments.common import (
    BENCH_SCALE,
    FULL_SCALE,
    ExperimentScale,
    improvement,
    run_averaged,
    run_one,
)

#: One micro-run shared by the harness tests (seconds, not minutes).
MICRO = ExperimentScale(n_nodes=12, duration_s=180.0, warmup_s=60.0, seeds=(1, 2))


def test_full_scale_uses_paper_size():
    assert FULL_SCALE.profile().n_nodes == 85
    assert FULL_SCALE.duration_s >= 1800.0


def test_bench_scale_is_reduced():
    assert BENCH_SCALE.profile().n_nodes < FULL_SCALE.profile().n_nodes
    assert BENCH_SCALE.duration_s < FULL_SCALE.duration_s


def test_scale_profile_resizes():
    assert MICRO.profile().n_nodes == 12


def test_scale_full_size_passthrough():
    scale = ExperimentScale(n_nodes=85)
    assert scale.profile().name == "mirage-85"


def test_scale_rejects_empty_seeds():
    with pytest.raises(ValueError, match="at least one seed"):
        ExperimentScale(seeds=())


def test_run_one_produces_result():
    result = run_one(MICRO, "4b", seed=1)
    assert result.protocol == "4b"
    assert result.n_nodes == 12
    assert result.unique_delivered > 0


def test_run_one_reproducible():
    a = run_one(MICRO, "4b", seed=1)
    b = run_one(MICRO, "4b", seed=1)
    assert a.cost == b.cost


def test_run_averaged_pools_seeds():
    averaged = run_averaged(MICRO, "4b")
    assert len(averaged.runs) == 2
    assert averaged.label == "4b"
    per_seed = [r.cost for r in averaged.runs]
    assert averaged.cost == pytest.approx(sum(per_seed) / 2)
    # Pooled per-node delivery spans both seeds.
    assert len(averaged.pooled_node_delivery) == 2 * 11


def test_run_averaged_custom_label():
    averaged = run_averaged(MICRO, "4b", label="Four-Bit")
    assert "Four-Bit" in averaged.summary_row()


def test_improvement():
    assert improvement(2.0, 1.0) == pytest.approx(0.5)
    assert improvement(2.0, 2.5) == pytest.approx(-0.25)
    assert math.isnan(improvement(0.0, 1.0))
    assert math.isnan(improvement(math.inf, 1.0))


def test_tx_power_passed_through():
    low = run_one(MICRO, "4b", seed=1, tx_power_dbm=-10.0)
    assert low.unique_delivered > 0  # network still functions at −10 dBm
