"""Figure 8 benchmark: per-node delivery distributions vs power (paper: 4B
≥99% tight; MultiHopLQI mean 95.9% with a 64% worst node at 0 dBm,
degrading further at lower power)."""

from benchmarks.test_bench_fig7 import CELLS, POWERS


def test_fig8_delivery_distributions(bench_figure):
    # Figure 8 reads Figure 7's points.
    result = bench_figure("fig7", fig7=CELLS)["fig8"]
    print()
    print(result.render())
    for power in POWERS:
        assert result.fourbit_median_high(power, floor=0.9)
        assert result.fourbit_tighter(power)
