"""Golden test for the fast medium backend: the vectorized reception
kernel and everything above it must stay *bit-identical* run to run.

The exact-backend golden (``test_bit_reproducibility``) never touches
:mod:`repro.sim.medium_fast` or :mod:`repro.phy.vector`, so this pins the
same scenario on ``medium="fast"`` — once per fault preset in
``FAST_GOLDEN_CASES``.  A failure means a kernel "optimization" changed a
draw, an operation order or a float result; fix it, do not regenerate.
"""

import os

import pytest

from tests.golden.golden_utils import (
    FAST_GOLDEN_CASES,
    FAST_GOLDEN_PATH,
    assert_matches_golden,
    golden_snapshot,
    load_golden,
    write_golden,
)


@pytest.mark.parametrize("faults", FAST_GOLDEN_CASES)
def test_fast_backend_run_matches_golden(faults):
    snapshot = golden_snapshot(medium="fast", faults=faults)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        cases = load_golden(FAST_GOLDEN_PATH) if FAST_GOLDEN_PATH.exists() else {}
        cases[faults] = snapshot
        write_golden(cases, FAST_GOLDEN_PATH)
    assert FAST_GOLDEN_PATH.exists(), (
        "fast golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = load_golden(FAST_GOLDEN_PATH)
    assert faults in golden, f"no fast golden pinned for faults={faults!r}"
    assert_matches_golden(snapshot, golden[faults])
