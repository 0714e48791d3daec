"""Ablation benchmark for 4B design choices (DESIGN.md §4): eviction
policy, white-bit requirement, window sizes, outer-EWMA weight, pin bit."""

from repro.experiments.ablation import BASELINE, variant_name, variants

from benchmarks.conftest import paper_cells


def test_ablations(bench_figure):
    result = bench_figure("ablation")["ablation"]
    print()
    print(result.render())
    base = result.baseline()
    assert base.delivery_ratio > 0.97
    # Every ablated variant still functions (these are perturbations, not
    # amputations); gross failure would indicate a wiring bug.
    for name, r in result.results.items():
        assert r.delivery_ratio > 0.80, f"{name} collapsed: {r.summary_row()}"
    # The full design is never grossly worse than any ablation.
    for name, r in result.results.items():
        assert base.cost <= r.cost * 1.35, f"{name} unexpectedly beat 4B by >35%"


def test_variant_catalog_is_complete():
    names = set(variants())
    assert BASELINE in names
    assert {"no-pin", "evict-worst", "no-white", "ku=1", "ku=25", "kb=10", "alpha=0.9"} <= names
    # The paper campaign runs every variant, and names each cell by one.
    assert [variant_name(c) for c in paper_cells("ablation")] == list(variants())
