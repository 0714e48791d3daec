"""Figure 7 benchmark: cost/depth vs transmit power (paper: both grow as
power drops; 4B cost 19–28% below MultiHopLQI across 0/−10/−20 dBm)."""

from benchmarks.conftest import paper_cells

POWERS = (0.0, -10.0)  # −20 dBm disconnects the shrunken bench topology
CELLS = [c for c in paper_cells("fig7") if c["tx_power_dbm"] in POWERS]


def test_fig7_power_sweep(bench_figure):
    result = bench_figure("fig7", fig7=CELLS)["fig7"]
    print()
    print(result.render())
    assert result.fourbit_wins_everywhere()
    for proto in ("4b", "mhlqi"):
        assert result.depth_increases_with_lower_power(proto)
    # 4B hugs the depth lower bound at least as tightly as MultiHopLQI at
    # 0 dBm.  At bench scale both excesses are a few percent, so allow
    # noise-level slack; the full-scale run (EXPERIMENTS.md: 10% vs 19%)
    # carries the real comparison.
    assert result.excess_over_depth("4b", 0.0) <= result.excess_over_depth("mhlqi", 0.0) + 0.05
