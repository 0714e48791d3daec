"""Experiment modules — one per figure/table of the paper's evaluation.

====================  ======================================================
module                reproduces
====================  ======================================================
``fig2_trees``        Figure 2 — routing trees / cost of CTP, MultiHopLQI,
                      CTP-unconstrained
``fig3_lqi_blind``    Figure 3 — PRR collapse invisible to LQI
``fig6_design_space`` Figure 6 — cost vs depth across estimator variants
``fig7_power_sweep``  Figure 7 — cost/depth vs transmit power
``fig8_delivery``     Figure 8 — per-node delivery distributions
``headline``          Section 1/4 headline numbers on both testbeds
``ablation``          design-choice ablations (DESIGN.md §4)
====================  ======================================================

Figure 5 (the worked hybrid-estimator example) is an exact-arithmetic unit
test: ``tests/core/test_hybrid_trace.py``.
"""

from repro.experiments.common import (
    BENCH_SCALE,
    FULL_SCALE,
    AveragedResult,
    ExperimentScale,
    improvement,
    run_one,
)

__all__ = [
    "BENCH_SCALE",
    "FULL_SCALE",
    "AveragedResult",
    "ExperimentScale",
    "improvement",
    "run_one",
]
