"""Headline benchmark: 4B vs MultiHopLQI on both testbeds (paper: −29%
cost / 99.9% vs 93% delivery on Mirage; −44% / 99% vs 85% on Tutornet)."""


def test_headline_both_testbeds(bench_figure):
    result = bench_figure("headline")["headline"]
    print()
    print(result.render())
    for testbed in ("mirage", "tutornet"):
        assert result.fourbit_wins(testbed), f"4B must win on {testbed}"
        assert result.results[testbed]["4b"].delivery_ratio > 0.97
    assert result.cost_reduction("mirage") > 0.05
