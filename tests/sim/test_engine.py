"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_schedule_and_run_single_event(engine):
    fired = []
    engine.schedule(1.5, fired.append, "a")
    engine.run()
    assert fired == ["a"]
    assert engine.now == 1.5


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(3.0, order.append, 3)
    engine.schedule(1.0, order.append, 1)
    engine.schedule(2.0, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_fifo(engine):
    order = []
    for i in range(10):
        engine.schedule(1.0, order.append, i)
    engine.run()
    assert order == list(range(10))


def test_negative_delay_rejected(engine):
    for delay in (-0.1, math.nan):
        with pytest.raises(ValueError):
            engine.schedule(delay, lambda: None)
    assert engine.pending == 0


def test_schedule_in_past_rejected(engine):
    engine.schedule(1.0, lambda: None)
    engine.run()
    for time in (0.5, math.nan):
        with pytest.raises(ValueError):
            engine.schedule_at(time, lambda: None)
    assert engine.pending == 0


def test_cancel_prevents_firing(engine):
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent(engine):
    handle = engine.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    engine.run()


def test_run_until_stops_at_boundary(engine):
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(5.0, fired.append, "late")
    engine.schedule(1e9, fired.append, "far")
    with pytest.raises(ValueError):
        engine.run_until(math.nan)  # would otherwise run the whole queue
    assert fired == [] and engine.now == 0.0
    engine.run_until(2.0)
    assert fired == ["early"]
    assert engine.now == 2.0
    engine.run_until(10.0)
    assert fired == ["early", "late"]


def test_run_until_includes_boundary_events(engine):
    fired = []
    engine.schedule(2.0, fired.append, "at")
    engine.run_until(2.0)
    assert fired == ["at"]


def test_run_until_advances_clock_without_events(engine):
    engine.run_until(42.0)
    assert engine.now == 42.0


def test_events_scheduled_during_execution(engine):
    order = []

    def first():
        order.append("first")
        engine.schedule(1.0, lambda: order.append("nested"))

    engine.schedule(1.0, first)
    engine.schedule(5.0, lambda: order.append("last"))
    engine.run()
    assert order == ["first", "nested", "last"]


def test_run_max_events(engine):
    for i in range(10):
        engine.schedule(float(i + 1), lambda: None)
    count = engine.run(max_events=3)
    assert count == 3
    assert engine.pending == 7


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False


def test_events_run_counter(engine):
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_run == 5


def test_zero_delay_event_fires(engine):
    fired = []
    engine.schedule(0.0, fired.append, 1)
    engine.run()
    assert fired == [1]


def test_callback_args_passed(engine):
    got = []
    engine.schedule(1.0, lambda a, b: got.append((a, b)), 1, 2)
    engine.run()
    assert got == [(1, 2)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_arbitrary_delays_fire_in_order(delays):
    engine = Engine()
    fired = []
    for d in delays:
        engine.schedule(d, lambda d=d: fired.append(d))
    engine.run()
    assert fired == sorted(fired, key=lambda x: x)
    assert len(fired) == len(delays)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_canceled_events_never_fire(schedule):
    engine = Engine()
    fired = []
    for i, (delay, cancel) in enumerate(schedule):
        handle = engine.schedule(delay, fired.append, i)
        if cancel:
            handle.cancel()
    engine.run()
    expected = [i for i, (_, cancel) in enumerate(schedule) if not cancel]
    assert sorted(fired) == expected


# ----------------------------------------------------------------------
# Canceled-event bookkeeping (heap compaction)
# ----------------------------------------------------------------------
def test_pending_counts_live_events_only(engine):
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert engine.pending == 10
    for h in handles[:4]:
        h.cancel()
    assert engine.pending == 6


def test_mass_cancel_compacts_queue(engine):
    """Canceling most of a large queue must shrink it immediately, not
    leave dead entries to be popped one by one (the old leak)."""
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(200)]
    for h in handles[:150]:
        h.cancel()
    # Compaction keeps dead entries below ~half the queue (150 canceled
    # but never 150 retained), and pending tracks live events exactly.
    assert len(engine._queue) <= 100
    assert engine.pending == 50
    # Survivors still fire, in order.
    fired = []
    for i, h in enumerate(handles[150:]):
        h.fn = fired.append
        h.args = (i,)
    engine.run()
    assert fired == list(range(50))


def test_small_queue_not_compacted(engine):
    """Below the size floor we tolerate dead entries (compaction is O(n))."""
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
    for h in handles:
        h.cancel()
    assert len(engine._queue) == 10  # dead, but below COMPACT_MIN_QUEUE
    assert engine.pending == 0
    engine.run()
    assert engine.events_run == 0


def test_cancel_after_fire_is_harmless(engine):
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    engine.schedule(2.0, lambda: None)
    engine.run()
    handle.cancel()  # late cancel of an executed event
    assert fired == ["x"]
    assert engine.pending == 0
    # Counter must not go stale/negative and later events still run.
    engine.schedule(1.0, fired.append, "y")
    engine.run()
    assert fired == ["x", "y"]


def test_interleaved_cancel_and_run(engine):
    fired = []
    keep = []
    for i in range(300):
        h = engine.schedule(float(i + 1), fired.append, i)
        if i % 3 == 0:
            keep.append(i)
        else:
            h.cancel()
    engine.run()
    assert fired == keep
    assert engine.pending == 0


def test_compaction_counter_and_profiler_surface(engine):
    profiler = engine.enable_profiling()
    assert engine.compactions == 0
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(200)]
    for h in handles[:150]:
        h.cancel()
    assert engine.compactions >= 1
    assert profiler.compactions == engine.compactions
    summary = profiler.summary()
    assert summary["compactions"] == engine.compactions
