"""Figure 6 benchmark: the estimator design space in the cost-depth plane
(paper: ack bit −31% cost; white/compare −15%; only full 4B beats
MultiHopLQI, by 29%)."""


def test_fig6_design_space(bench_figure):
    result = bench_figure("fig6")["fig6"]
    print()
    print(result.render())
    assert result.ack_bit_helps()
    assert result.white_compare_helps()
    assert result.fourbit_beats_mhlqi()
    # 4B delivers essentially everything on the bench-scale network.
    assert result.results["4b"].delivery_ratio > 0.97
