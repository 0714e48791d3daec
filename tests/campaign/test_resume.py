"""Kill/resume property tests: exactly-once execution, byte-identical output.

The campaign contract under interruption is:

* a campaign killed after any ``k`` completed runs and then resumed
  produces a ``summary.json`` byte-identical to an uninterrupted run;
* no point ever executes twice — the resumed session sees exactly ``k``
  cache hits and executes exactly ``N - k`` points (asserted on
  :class:`CampaignSessionStats` counters).

Uses hypothesis to randomize the interruption point when available;
otherwise falls back to 20+ seeded interruption points so the property
still runs in minimal environments.
"""

import json
import random
from pathlib import Path

import pytest

from repro.campaign.queue import (
    Campaign,
    CampaignInterrupted,
    load_campaign_file,
)
from repro.campaign.sweep import SweepSpec
from repro.runner.cache import ResultCache

from tests.experiments.micro import micro_paper

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False

# 3-axis cartesian sweep (3 * 3 * 3 = 27 points) over the synthetic
# quadratic: cheap enough to run dozens of kill/resume cycles.
GRID = SweepSpec.from_json_dict(
    {
        "campaign": "resume-grid",
        "kind": "synthetic",
        "mode": "grid",
        "base": {"optimum": 0.5},
        "axes": {
            "x0": [0.0, 0.5, 1.0],
            "x1": [-1.0, 0.0, 1.0],
            "x2": [0.25, 0.5, 0.75],
        },
        "objective": "objective",
    }
)
N_POINTS = 27

# The real simulator under the same contract: 3 protocols x 2 seeds on an
# 8-node Mirage, 120 s each (the CI campaign-smoke job runs the same file).
COLLECTION = load_campaign_file(
    Path(__file__).resolve().parents[2] / "examples" / "collection_smoke.json"
)

# The paper campaign at micro scale: every figure, Figure 3's chain included.
PAPER = micro_paper()

OPTIMIZE = SweepSpec.from_json_dict(
    {
        "campaign": "resume-tune",
        "kind": "synthetic",
        "mode": "optimize",
        "base": {"optimum": -0.8},
        "ranges": {"x0": {"lo": -4.0, "hi": 4.0}},
        "objective": "objective",
        "budget": 24,
        "batch": 6,
        "seed": 5,
    }
)

# Two ranges, three full rounds of 6: the shape the retired adaptive mode
# ran (budget = rounds x samples, batch = samples).
OPTIMIZE_2D = SweepSpec.from_json_dict(
    {
        "campaign": "resume-tune-2d",
        "kind": "synthetic",
        "mode": "optimize",
        "base": {"optimum": 0.3},
        "ranges": {"x0": {"lo": -4.0, "hi": 4.0}, "x1": {"lo": -4.0, "hi": 4.0}},
        "budget": 18,
        "batch": 6,
        "seed": 9,
        "objective": "objective",
    }
)


def _campaign(spec, root: Path, workers: int = 1, stop_after=None) -> Campaign:
    return Campaign(
        spec,
        state_root=root / "state",
        cache=ResultCache(root / "cache"),
        workers=workers,
        stop_after=stop_after,
    )


def _reference_bytes(spec, tmp_path_factory, name: str) -> bytes:
    root = tmp_path_factory.mktemp(name)
    campaign = _campaign(spec, root)
    campaign.run()
    return campaign.summary_path.read_bytes()


@pytest.fixture(scope="module")
def grid_reference(tmp_path_factory) -> bytes:
    return _reference_bytes(GRID, tmp_path_factory, "grid-ref")


def _kill_then_resume(spec, root: Path, k: int, reference: bytes, total: int) -> None:
    """One kill/resume cycle asserting both properties for interruption at k."""
    interrupted = _campaign(spec, root, stop_after=k)
    with pytest.raises(CampaignInterrupted):
        interrupted.run()
    assert interrupted.last_stats.executed == k
    assert not interrupted.summary_path.exists()
    manifest = json.loads(interrupted.manifest_path.read_text())
    assert manifest["interrupted"] is True

    resumed = _campaign(spec, root)
    resumed.run()
    # Exactly-once: every one of the k interrupted-session runs comes back
    # as a cache hit; only the unfinished tail executes.
    assert resumed.last_stats.cache_hits == k
    assert resumed.last_stats.executed == total - k
    assert interrupted.last_stats.executed + resumed.last_stats.executed == total
    assert resumed.summary_path.read_bytes() == reference


if HAVE_HYPOTHESIS:

    @settings(max_examples=24, deadline=None)
    @given(k=st.integers(min_value=1, max_value=N_POINTS - 1))
    def test_grid_kill_resume_property(k, grid_reference, tmp_path_factory):
        root = tmp_path_factory.mktemp("kill")
        _kill_then_resume(GRID, root, k, grid_reference, N_POINTS)

else:  # pragma: no cover - exercised only without hypothesis

    _KS = sorted(set(random.Random(0x4B17).choices(range(1, N_POINTS), k=26)))

    @pytest.mark.parametrize("k", _KS)
    def test_grid_kill_resume_property(k, grid_reference, tmp_path):
        _kill_then_resume(GRID, tmp_path, k, grid_reference, N_POINTS)


def test_serial_pool_and_resumed_twice_are_byte_identical(
    grid_reference, tmp_path
):
    # 4-worker pool: scheduling order differs, bytes must not.
    pooled = _campaign(GRID, tmp_path / "pool", workers=4)
    pooled.run()
    assert pooled.summary_path.read_bytes() == grid_reference

    # Interrupted twice at different depths, resumed to completion.
    root = tmp_path / "twice"
    for stop in (5, 13):
        attempt = _campaign(GRID, root, stop_after=stop)
        with pytest.raises(CampaignInterrupted):
            attempt.run()
    final = _campaign(GRID, root)
    final.run()
    # Session 1 executed 5; session 2 hit those 5 and executed 13 more
    # (stop_after counts *executions*, not completions).
    assert final.last_stats.cache_hits == 18
    assert final.last_stats.executed == N_POINTS - 18
    assert final.summary_path.read_bytes() == grid_reference


def test_adaptive_sweep_resumes_byte_identical(tmp_path_factory, tmp_path):
    # The retired adaptive mode's shape, now an optimize file. Interrupt
    # mid-round-2: the refinement trajectory must re-derive identically
    # from the cached round-1 results on resume.
    reference = _reference_bytes(OPTIMIZE_2D, tmp_path_factory, "adaptive-ref")
    _kill_then_resume(OPTIMIZE_2D, tmp_path, 8, reference, OPTIMIZE_2D.budget)


def test_optimizer_resumes_byte_identical(tmp_path_factory, tmp_path):
    # Interrupt mid-round: later rounds re-derive from cached earlier ones.
    reference = _reference_bytes(OPTIMIZE, tmp_path_factory, "optimize-ref")
    _kill_then_resume(OPTIMIZE, tmp_path, 13, reference, OPTIMIZE.budget)


def test_collection_grid_resumes_byte_identical(tmp_path_factory, tmp_path):
    reference = _reference_bytes(COLLECTION, tmp_path_factory, "collection-ref")
    _kill_then_resume(COLLECTION, tmp_path, 4, reference, 6)


def test_paper_campaign_resumes_byte_identical(tmp_path_factory, tmp_path):
    reference = _reference_bytes(PAPER, tmp_path_factory, "paper-ref")
    figures = PAPER.figure_points()
    total = PAPER.total_points()
    # Figures share points (Figure 6's 4B cell is Figure 7's at 0 dBm, the
    # headline's on Mirage and the ablation's baseline), and each runs once.
    assert total < sum(len(points) for points in figures.values())
    assert json.loads(reference)["figures"] == {
        name: [p.digest() for p in points] for name, points in figures.items()
    }
    # Stopped after Figure 3's chain (the fourth point) and mid-way through
    # the collection points.
    _kill_then_resume(PAPER, tmp_path, total // 2, reference, total)
    assert _campaign(PAPER, tmp_path).status()["figures"] == {
        name: {"planned_points": len(points), "cached_points": len(points)}
        for name, points in figures.items()
    }


def test_rerun_of_completed_campaign_is_all_cache_hits(tmp_path):
    root = tmp_path
    first = _campaign(GRID, root)
    doc = first.run()
    assert first.last_stats.executed == N_POINTS
    assert doc["n_points"] == N_POINTS and doc["n_failed"] == 0

    again = _campaign(GRID, root)
    again.run()
    assert again.last_stats.executed == 0
    assert again.last_stats.cache_hits == N_POINTS
    assert again.summary_path.read_bytes() == first.summary_path.read_bytes()


def test_status_reports_resumable_progress(tmp_path):
    campaign = _campaign(GRID, tmp_path, stop_after=10)
    with pytest.raises(CampaignInterrupted):
        campaign.run()
    status = _campaign(GRID, tmp_path).status()
    assert status["cached_points"] == 10
    assert status["planned_points"] == N_POINTS
    assert status["interrupted"] is True
    assert status["summary_written"] is False

    finished = _campaign(GRID, tmp_path)
    finished.run()
    status = finished.status()
    assert status["cached_points"] == N_POINTS
    assert status["summary_written"] is True
    assert status["interrupted"] is False


def test_status_counts_a_point_cached_under_the_key_run_wrote(tmp_path):
    campaign = _campaign(GRID, tmp_path, stop_after=5)
    with pytest.raises(CampaignInterrupted):
        campaign.run()
    # run keys each point's result by the point's spec digest ...
    points = GRID.grid_points()
    assert [p for p in points if p.digest() in campaign.cache] == points[:5]
    # ... and status counts a point as cached through that same key.
    assert campaign.status()["cached_points"] == 5


def test_status_replays_optimize_rounds_from_the_cache(tmp_path):
    # Stops land mid-round 0, on the round-0/1 boundary and mid-round 2;
    # status re-derives later rounds from cached earlier ones.
    cached = 0
    for stop in (3, 3, 8):
        with pytest.raises(CampaignInterrupted):
            _campaign(OPTIMIZE, tmp_path, stop_after=stop).run()
        cached += stop
        status = _campaign(OPTIMIZE, tmp_path).status()
        assert status["cached_points"] == cached
        assert status["planned_points"] == OPTIMIZE.budget
        assert status["interrupted"] is True and status["summary_written"] is False

    finished = _campaign(OPTIMIZE, tmp_path)
    doc = finished.run()
    status = finished.status()
    assert status["cached_points"] == status["enumerable_points"] == OPTIMIZE.budget
    assert status["summary_written"] is True
    assert [h["evaluated"] for h in doc["history"]] == [6, 6, 6, 6]
    assert doc["n_points"] == OPTIMIZE.budget and doc["best"] is not None


def test_status_keeps_rounds_done_after_each_session(tmp_path):
    # Stopped mid-round 2 (8 of 18 points, rounds of 6): the interrupted
    # and the completed manifest keep the last round checkpoint.
    with pytest.raises(CampaignInterrupted):
        _campaign(OPTIMIZE_2D, tmp_path, stop_after=8).run()
    status = _campaign(OPTIMIZE_2D, tmp_path).status()
    assert status["interrupted"] is True
    assert status["rounds_done"] == 1

    resumed = _campaign(OPTIMIZE_2D, tmp_path)
    resumed.run()
    status = resumed.status()
    assert status["summary_written"] is True
    assert status["rounds_done"] == OPTIMIZE_2D.budget // OPTIMIZE_2D.batch == 3
    manifest = json.loads(resumed.manifest_path.read_text())
    assert manifest["points_enumerated"] == manifest["points_completed"] == 18


def test_request_stop_interrupts_like_a_signal(tmp_path):
    campaign = _campaign(GRID, tmp_path)

    class ArmedSink:
        def __init__(self, target):
            self.target = target
            self.seen = 0

        def emit(self, record):
            if record.get("rec") == "run-result":
                self.seen += 1
                if self.seen == self.target:
                    campaign.request_stop()

        def close(self):
            pass

    campaign.telemetry = ArmedSink(7)
    with pytest.raises(CampaignInterrupted):
        campaign.run()
    assert campaign.last_stats.executed == 7

    resumed = _campaign(GRID, tmp_path)
    resumed.run()
    assert resumed.last_stats.cache_hits == 7
    assert resumed.last_stats.executed == N_POINTS - 7


def test_campaign_requires_a_result_cache(tmp_path):
    with pytest.raises(TypeError, match="requires a ResultCache"):
        Campaign(GRID, state_root=tmp_path, cache="not-a-cache")


def test_random_sweep_resume_reuses_spec_seeded_draw(tmp_path):
    spec = SweepSpec.from_json_dict(
        {
            "campaign": "resume-random",
            "kind": "synthetic",
            "mode": "random",
            "ranges": {"x0": {"lo": -2.0, "hi": 2.0}, "x1": {"lo": -2.0, "hi": 2.0}},
            "samples": 15,
            "seed": 77,
            "objective": "objective",
        }
    )
    ref_root = tmp_path / "ref"
    reference = _campaign(spec, ref_root)
    reference.run()
    _kill_then_resume(
        spec, tmp_path / "kill", 6, reference.summary_path.read_bytes(), 15
    )


def test_spec_file_round_trip_through_disk_matches_in_memory(tmp_path):
    # A campaign loaded from its own persisted spec.json resumes the same
    # campaign (digest-stable provenance).
    campaign = _campaign(GRID, tmp_path, stop_after=4)
    with pytest.raises(CampaignInterrupted):
        campaign.run()
    persisted = json.loads(campaign.spec_path.read_text())
    digest = persisted.pop("digest")
    assert digest == GRID.digest()
    reloaded_path = tmp_path / "reloaded.json"
    reloaded_path.write_text(json.dumps(persisted))
    reloaded = load_campaign_file(reloaded_path)
    assert reloaded.digest() == GRID.digest()
