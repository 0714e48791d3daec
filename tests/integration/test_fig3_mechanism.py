"""Integration test of the Figure 3 mechanism at reduced duration."""

import pytest

from repro.experiments.fig3_lqi_blind import Fig3Settings, execute


@pytest.fixture(scope="module")
def short_result():
    return execute(Fig3Settings(duration_s=600.0, burst_window=(200.0, 400.0)))


def test_prr_collapses_during_burst(short_result):
    stats = short_result.window_stats()
    assert stats["prr_outside"] > 0.85
    assert stats["prr_inside"] < stats["prr_outside"] - 0.15


def test_lqi_of_received_packets_stays_high(short_result):
    stats = short_result.window_stats()
    assert stats["lqi_inside"] > 95.0
    assert abs(stats["lqi_outside"] - stats["lqi_inside"]) < 5.0


def test_blindness_predicate(short_result):
    assert short_result.blindness_holds()


def test_unacked_count_inflects_during_burst(short_result):
    t0, t1 = short_result.settings.burst_window
    series = short_result.unacked_series
    window_span = t1 - t0

    def rate(lo, hi):
        points = [(t, v) for t, v in series if lo <= t <= hi]
        if len(points) < 2:
            return 0.0
        return (points[-1][1] - points[0][1]) / (points[-1][0] - points[0][0])

    inside = rate(t0, t1)
    before = rate(0.0, t0)
    # MultiHopLQI keeps transmitting on the degraded link, so unacked
    # packets accumulate much faster during the episode.
    assert inside > before * 2 + 1e-9


def test_mhlqi_keeps_hammering_but_mostly_delivers(short_result):
    # Retransmissions absorb a 0.6-PRR episode; the cost shows the waste.
    assert short_result.delivery_ratio > 0.9
    assert short_result.cost > 2.0


def test_render_produces_all_panels(short_result):
    out = short_result.render()
    assert "PRR" in out
    assert "LQI" in out
    assert "unack" in out.lower()


def test_4b_contrast_lower_cost():
    fourbit = execute(
        Fig3Settings(duration_s=600.0, burst_window=(200.0, 400.0), protocol="4b")
    )
    assert fourbit.delivery_ratio > 0.97
    assert fourbit.cost < 2.0
