"""Tests for engine run profiling."""

from repro.obs.profile import EngineProfiler, merge_profiles
from repro.sim.engine import Engine
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import grid


def _noop():
    pass


def _other():
    pass


def test_profiler_records_event_kinds():
    engine = Engine()
    profiler = engine.enable_profiling()
    for _ in range(3):
        engine.schedule(1.0, _noop)
    engine.schedule(2.0, _other)
    engine.run_until(10.0)
    assert profiler.events == 4
    counts = dict((k, c) for k, c, _ in profiler.by_kind())
    assert counts["_noop"] == 3
    assert counts["_other"] == 1
    summary = profiler.summary()
    assert summary["events"] == 4
    assert set(summary["by_kind"]) == {"_noop", "_other"}


def test_profiler_queue_depth_sampling():
    engine = Engine()
    profiler = EngineProfiler(queue_sample_every=1)
    engine.enable_profiling(profiler)
    for i in range(5):
        engine.schedule(float(i + 1), _noop)
    engine.run_until(10.0)
    assert len(profiler.queue_samples) == 5
    depths = [d for _, d in profiler.queue_samples]
    assert depths == [4, 3, 2, 1, 0]  # queue drains monotonically


def test_profiling_disabled_by_default():
    engine = Engine()
    engine.schedule(1.0, _noop)
    engine.run_until(10.0)
    assert engine.profiler is None


def test_profile_events_config_surfaces_on_result():
    topo = grid(2, 2, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0,
                       profile_events=True)
    net = CollectionNetwork(topo, config)
    result = net.run()
    assert result.profile is not None
    assert result.profile["events"] == result.events_run
    assert result.profile["events_per_s"] > 0
    assert result.profile["by_kind"]


def test_profile_not_collected_when_disabled():
    topo = grid(2, 2, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0)
    result = CollectionNetwork(topo, config).run()
    assert result.profile is None


def test_record_kernel_buckets():
    prof = EngineProfiler()
    prof.record("Medium._deliver", 0.01, sim_time=1.0, queue_depth=0)
    prof.record_kernel("medium_fast.prr_decode", 0.004, n=3)
    prof.record_kernel("medium_fast.cull", 0.006)
    prof.record_kernel("medium_fast.cull", 0.001)
    summary = prof.summary()
    kernels = summary["kernels"]
    assert kernels["medium_fast.prr_decode"] == {"count": 3, "wall_s": 0.004}
    assert kernels["medium_fast.cull"]["count"] == 2
    # Sorted by wall time, most expensive first.
    assert list(kernels) == ["medium_fast.cull", "medium_fast.prr_decode"]


def test_merge_profiles_folds_kernels():
    a = {"events": 1, "wall_s": 1.0,
         "by_kind": {"x": {"count": 1, "wall_s": 1.0}},
         "kernels": {"k.a": {"count": 2, "wall_s": 0.5}}}
    b = {"events": 1, "wall_s": 1.0,
         "by_kind": {"x": {"count": 1, "wall_s": 1.0}},
         "kernels": {"k.a": {"count": 1, "wall_s": 0.25},
                     "k.b": {"count": 4, "wall_s": 0.75}}}
    merged = merge_profiles([a, b])
    assert merged["kernels"]["k.a"] == {"count": 3, "wall_s": 0.75}
    assert list(merged["kernels"]) == ["k.a", "k.b"]
    # No kernels anywhere → the key stays absent, as before this field.
    assert "kernels" not in merge_profiles(
        [{"events": 1, "wall_s": 1.0, "by_kind": {}}]
    )


def test_fast_medium_profiles_kernel_buckets():
    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0,
                       medium="fast", profile_events=True)
    result = CollectionNetwork(topo, config).run()
    kernels = result.profile["kernels"]
    assert {"medium_fast.cull", "medium_fast.fading", "medium_fast.interference",
            "medium_fast.prr_decode"} <= set(kernels)
    for row in kernels.values():
        assert row["count"] > 0 and row["wall_s"] >= 0.0


def test_merge_profiles():
    a = {"events": 10, "wall_s": 1.0,
         "by_kind": {"x": {"count": 10, "wall_s": 1.0}}}
    b = {"events": 20, "wall_s": 1.0,
         "by_kind": {"x": {"count": 5, "wall_s": 0.25},
                     "y": {"count": 15, "wall_s": 0.75}}}
    merged = merge_profiles([a, None, b])
    assert merged["events"] == 30
    assert merged["wall_s"] == 2.0
    assert merged["events_per_s"] == 15.0
    assert merged["by_kind"]["x"] == {"count": 15, "wall_s": 1.25}
    assert merged["runs"] == 2
    assert list(merged["by_kind"]) == ["x", "y"]  # sorted by wall time
    assert merge_profiles([None, None]) is None


def test_runner_stats_absorb_profile():
    from repro.runner.runner import RunnerStats

    stats = RunnerStats()
    assert "no profile data" in stats.profile_report()
    stats.absorb_profile({"events": 10, "wall_s": 1.0,
                          "by_kind": {"x": {"count": 10, "wall_s": 1.0}}})
    stats.absorb_profile({"events": 6, "wall_s": 0.5,
                          "by_kind": {"x": {"count": 6, "wall_s": 0.5}}})
    assert stats.profile["events"] == 16
    assert stats.profile["runs"] == 2
    report = stats.profile_report()
    assert "16 events" in report and "2 run(s)" in report
