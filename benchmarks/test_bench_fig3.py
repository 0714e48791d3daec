"""Figure 3 benchmark: PRR collapse invisible to the LQI (paper: PRR drops
0.9 → 0.6 between hours 4–6 while received-packet LQI stays high and
unacknowledged packets pile up)."""

SETTINGS = {"duration_s": 900.0, "burst_window": [300.0, 600.0]}


def test_fig3_lqi_blindness(bench_figure):
    result = bench_figure("fig3", fig3=SETTINGS)["fig3"]
    print()
    print(result.render())
    stats = result.window_stats()
    assert stats["prr_outside"] > 0.85
    assert stats["prr_inside"] < stats["prr_outside"] - 0.15
    assert abs(stats["lqi_outside"] - stats["lqi_inside"]) < 5.0
    assert result.blindness_holds()
