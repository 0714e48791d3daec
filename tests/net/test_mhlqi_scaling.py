"""Tests for MultiHopLQI's config: timing auto-scaling and validation."""

import math

import pytest

from repro.net.multihoplqi import MhlqiConfig
from repro.phy.radio import CC1000, CC2420


def test_scaled_matches_cc2420_defaults():
    scaled = MhlqiConfig.scaled_for(CC2420)
    stock = MhlqiConfig()
    assert scaled.retry_min_s == pytest.approx(stock.retry_min_s, rel=0.25)
    assert scaled.retry_max_s == pytest.approx(stock.retry_max_s, rel=0.25)


def test_scaled_stretches_for_cc1000():
    scaled = MhlqiConfig.scaled_for(CC1000)
    assert scaled.retry_min_s > 0.15
    assert scaled.retry_max_s > scaled.retry_min_s
    assert scaled.pace_max_s > scaled.pace_min_s


def test_scaling_preserves_ordering_invariants():
    for params in (CC2420, CC1000):
        cfg = MhlqiConfig.scaled_for(params)
        assert cfg.retry_min_s < cfg.retry_max_s
        assert cfg.pace_min_s < cfg.pace_max_s
        assert cfg.retry_min_s > cfg.pace_max_s  # retries back off longer than pacing


@pytest.mark.parametrize(
    "bad",
    [
        # The datapath fields, checked as the forwarding engine's config.
        {"retry_min_s": -1.0, "retry_max_s": -0.5},
        {"pace_min_s": 0.02, "pace_max_s": 0.01},
        {"queue_size": 0},
        {"max_retries": -1},
        {"max_thl": 0},
        {"dup_cache_size": -1},
        {"no_route_retry_s": 0.0},
        # MultiHopLQI's own route fields.
        {"beacon_period_s": 0.0},
        {"beacon_period_s": -32.0},
        {"beacon_period_s": math.nan},
        {"beacon_jitter_s": -1.0},
        {"first_beacon_max_s": 0.05},
        {"switch_factor": 0.0},
        {"switch_factor": 1.5},
        {"switch_factor": math.nan},
        {"parent_timeout_periods": 0},
    ],
)
def test_config_rejects_bad_values_at_construction(bad):
    with pytest.raises(ValueError):
        MhlqiConfig(**bad)


def test_config_accepts_its_boundaries():
    config = MhlqiConfig(
        beacon_jitter_s=0.0, first_beacon_max_s=0.1, switch_factor=1.0, parent_timeout_periods=1
    )
    assert config.forwarding_config().max_retries == config.max_retries
