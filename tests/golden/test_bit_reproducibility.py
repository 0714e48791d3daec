"""Golden test: the optimized hot path must be *bit-identical* to the seed.

The stored golden was captured before the PR-3 hot-path optimizations; if
this test fails, an "optimization" changed simulated behavior (different
RNG draw order, reordered float arithmetic, dropped evaluation) and must
be fixed, not regenerated around — see DESIGN.md's determinism contract.
"""

import os

from tests.golden.golden_utils import (
    GOLDEN_PATH,
    assert_matches_golden,
    golden_snapshot,
    load_golden,
    write_golden,
)


def test_pinned_run_matches_golden():
    snapshot = golden_snapshot()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        write_golden(snapshot)
    assert GOLDEN_PATH.exists(), (
        "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert_matches_golden(snapshot, load_golden())


def test_snapshot_is_self_reproducible():
    """Two in-process runs of the pinned scenario are identical."""
    assert golden_snapshot() == golden_snapshot()
