"""Figure 2 benchmark: routing trees and cost of CTP / MultiHopLQI /
CTP-unconstrained (paper: 3.14 / 2.28 / 1.86 transmissions per packet)."""


def test_fig2_routing_trees(bench_figure):
    result = bench_figure("fig2")["fig2"]
    print()
    print(result.render())
    # Shape assertions (not absolute values): the constrained table hurts.
    assert result.results["ctp"].cost > result.results["ctp-unconstrained"].cost
    assert result.depth_gap_holds()
    # All three protocols form working trees.
    for r in result.results.values():
        assert r.delivery_ratio > 0.5
