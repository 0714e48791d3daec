"""Unit tests for the CTP forwarding engine."""

import math
import random

import pytest

from repro.net.ctp.forwarding import CtpForwardingConfig, CtpForwardingEngine
from repro.net.ctp.frames import make_data_frame
from repro.net.ctp.routing import CtpRoutingConfig, CtpRoutingEngine

from tests.net.helpers import FakeEstimator
from tests.conftest import make_rx_info


def build(engine, qualities=None, is_root=False, node_id=10, **fwd_config):
    estimator = FakeEstimator(qualities)
    routing = CtpRoutingEngine(
        engine, estimator, node_id=node_id, is_root=is_root, rng=random.Random(5)
    )
    forwarding = CtpForwardingEngine(
        engine,
        estimator,
        routing,
        node_id=node_id,
        rng=random.Random(6),
        config=CtpForwardingConfig(**fwd_config),
    )
    return forwarding, routing, estimator


def give_route(routing, neighbor=1, path_etx=0.0):
    from repro.net.ctp.frames import make_routing_frame

    routing.on_beacon_received(
        make_routing_frame(src=neighbor, parent=0, path_etx=path_etx), make_rx_info(), neighbor
    )


def data_sent(est):
    from repro.net.ctp.frames import CtpDataFrame

    return [f for f in est.sent if isinstance(f, CtpDataFrame)]


def data(origin=50, seq=0, thl=0, etx=10.0):
    return make_data_frame(
        src=99, dst=10, origin=origin, origin_seq=seq, thl=thl, etx_at_sender=etx
    )


def test_app_send_transmits_to_parent(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing)
    assert fwd.send_from_app()
    engine.run_until(1.0)
    sent = data_sent(est)
    assert len(sent) == 1
    assert sent[0].dst == 1
    assert sent[0].origin == 10


def test_ack_dequeues_and_counts(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing)
    fwd.send_from_app()
    engine.run_until(1.0)
    fwd.on_send_done(data_sent(est)[0], sent=True, acked=True)
    engine.run_until(2.0)
    assert fwd.queue_length == 0
    assert fwd.stats.tx_acked == 1


def test_noack_retries_until_limit(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0}, max_retries=3)
    give_route(routing)
    fwd.send_from_app()
    engine.run_until(1.0)
    seen = 0
    for _ in range(10):
        pending = data_sent(est)
        if len(pending) <= seen:
            break
        seen = len(pending)
        fwd.on_send_done(pending[-1], sent=True, acked=False)
        engine.run_until(engine.now + 1.0)
    assert fwd.stats.drops_retries == 1
    assert fwd.queue_length == 0
    # 1 initial + 3 retries
    assert fwd.stats.tx_attempts == 4


def test_no_route_waits(engine):
    fwd, routing, est = build(engine)
    fwd.send_from_app()
    engine.run_until(5.0)
    assert est.sent == []
    assert fwd.queue_length == 1


def test_route_found_pumps_queue(engine):
    fwd, routing, est = build(engine, qualities={})
    fwd.send_from_app()
    engine.run_until(2.0)
    assert data_sent(est) == []
    est.set_quality(1, 1.0)
    give_route(routing)  # triggers on_route_found → pump
    engine.run_until(4.0)
    assert len(data_sent(est)) == 1


def test_queue_overflow_drops(engine):
    fwd, routing, est = build(engine, queue_size=2)
    assert fwd.send_from_app()
    assert fwd.send_from_app()
    assert not fwd.send_from_app()
    assert fwd.stats.drops_queue_full == 1


def test_root_delivers_up(engine):
    fwd, routing, est = build(engine, is_root=True, node_id=0)
    delivered = []
    fwd.on_deliver = lambda *args: delivered.append(args)
    fwd.on_data_received(data(origin=50, seq=3, thl=2))
    assert delivered == [(50, 3, 2, engine.now, 0.0)]
    assert fwd.stats.delivered_at_root == 1


def test_forwarding_increments_thl(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing)
    fwd.on_data_received(data(origin=50, seq=1, thl=4))
    engine.run_until(1.0)
    assert data_sent(est)[0].thl == 5
    assert fwd.stats.forwarded == 1


def test_duplicate_suppression(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing)
    fwd.on_data_received(data(origin=50, seq=1))
    fwd.on_data_received(data(origin=50, seq=1))
    assert fwd.stats.duplicates_suppressed == 1
    assert fwd.stats.forwarded == 1


def test_dup_cache_bounded(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0}, dup_cache_size=4, queue_size=100)
    give_route(routing)
    for seq in range(10):
        fwd.on_data_received(data(origin=50, seq=seq))
    # Oldest entries were evicted from the cache; a replay of seq 0 forwards.
    fwd.on_data_received(data(origin=50, seq=0))
    assert fwd.stats.duplicates_suppressed == 0
    assert fwd.stats.forwarded == 11


def test_thl_limit_drops(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0}, max_thl=5)
    give_route(routing)
    fwd.on_data_received(data(origin=50, seq=1, thl=5))
    assert fwd.stats.drops_thl == 1
    assert fwd.queue_length == 0


def test_gradient_violation_signals_loop(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing, path_etx=4.0)  # my cost: 5.0
    before = routing.stats.loop_signals
    fwd.on_data_received(data(origin=50, seq=1, etx=3.0))  # sender below me
    assert routing.stats.loop_signals == before + 1


def test_consistent_gradient_no_signal(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing, path_etx=4.0)  # my cost: 5.0
    fwd.on_data_received(data(origin=50, seq=1, etx=8.0))
    assert routing.stats.loop_signals == 0


def test_data_frames_carry_current_cost(engine):
    fwd, routing, est = build(engine, qualities={1: 2.0})
    give_route(routing, path_etx=3.0)  # my cost 5.0
    fwd.send_from_app()
    engine.run_until(1.0)
    assert data_sent(est)[0].etx_at_sender == pytest.approx(5.0)


def test_generated_counter(engine):
    fwd, routing, est = build(engine, qualities={1: 1.0})
    give_route(routing)
    fwd.send_from_app()
    fwd.send_from_app()
    assert fwd.stats.generated == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"queue_size": 0},
        {"max_retries": -1},
        {"max_thl": 0},
        {"dup_cache_size": -1},
        {"retry_min_s": -1.0, "retry_max_s": -0.5},
        {"retry_min_s": 0.05, "retry_max_s": 0.01},
        {"retry_max_s": math.inf},
        {"retry_min_s": math.nan},
        {"pace_min_s": -0.001},
        {"pace_min_s": 0.02, "pace_max_s": 0.01},
        {"pace_max_s": math.nan},
        {"no_route_retry_s": 0.0},
        {"no_route_retry_s": math.inf},
        {"no_route_retry_s": math.nan},
    ],
)
def test_config_rejects_bad_values_at_construction(bad):
    """A bad datapath value fails when the config is built, not as the
    engine's negative-delay error mid-run."""
    with pytest.raises(ValueError):
        CtpForwardingConfig(**bad)


def test_config_accepts_its_boundaries():
    config = CtpForwardingConfig(
        queue_size=1, max_retries=0, max_thl=1, dup_cache_size=0,
        retry_min_s=0.0, retry_max_s=0.0, pace_min_s=0.0, pace_max_s=0.0,
    )
    assert config.max_retries == 0
