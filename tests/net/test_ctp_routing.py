"""Unit tests for the CTP routing engine (parent selection + 2 network bits)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import EstimatorConfig
from repro.link.frame import le_wrap
from repro.net.ctp.frames import NO_PARENT, CtpRoutingFrame, make_routing_frame
from repro.net.ctp.routing import CtpRoutingConfig, CtpRoutingEngine
from repro.sim.engine import Engine

from tests.conftest import make_rx_info
from tests.core.helpers import build_estimator, unicast_attempt
from tests.net.helpers import FakeEstimator


def make_engine(engine, qualities=None, is_root=False, node_id=10, **config):
    estimator = FakeEstimator(qualities)
    routing = CtpRoutingEngine(
        engine,
        estimator,
        node_id=node_id,
        is_root=is_root,
        rng=random.Random(5),
        config=CtpRoutingConfig(**config),
    )
    return routing, estimator


def hear(routing, src, parent, path_etx, pull=False):
    frame = make_routing_frame(src=src, parent=parent, path_etx=path_etx, pull=pull)
    routing.on_beacon_received(frame, make_rx_info(), src)


def test_root_path_etx_zero(engine):
    routing, _ = make_engine(engine, is_root=True)
    assert routing.path_etx() == 0.0


def test_no_route_is_infinite(engine):
    routing, _ = make_engine(engine)
    assert math.isinf(routing.path_etx())
    assert routing.parent is None


def test_selects_min_cost_parent(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0})
    hear(routing, 1, parent=0, path_etx=2.0)
    hear(routing, 2, parent=0, path_etx=0.0)
    assert routing.parent == 2
    assert routing.path_etx() == pytest.approx(1.0)


def test_parent_is_pinned(engine):
    routing, est = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)
    assert est.pinned == {1}


def test_switch_unpins_old_parent(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0})
    hear(routing, 1, parent=0, path_etx=5.0)
    assert routing.parent == 1
    hear(routing, 2, parent=0, path_etx=0.0)
    assert routing.parent == 2
    assert est.pinned == {2}


def test_hysteresis_prevents_marginal_switch(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0}, parent_switch_threshold=1.5)
    hear(routing, 1, parent=0, path_etx=1.0)
    assert routing.parent == 1  # cost 2.0
    hear(routing, 2, parent=0, path_etx=0.0)  # cost 1.0, gain 1.0 < 1.5
    assert routing.parent == 1
    hear(routing, 2, parent=0, path_etx=0.0)
    est.set_quality(1, 3.0)  # old parent degrades: cost 4.0 vs 1.0
    routing.update_route()
    assert routing.parent == 2


def test_high_etx_links_unusable(engine):
    routing, _ = make_engine(engine, qualities={1: 50.0}, max_link_etx=10.0)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert routing.parent is None


def test_neighbor_advertising_me_as_parent_skipped(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, node_id=10)
    hear(routing, 1, parent=10, path_etx=3.0)  # immediate loop
    assert routing.parent is None


def test_root_never_selects_parent(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, is_root=True)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert routing.parent is None


def test_compare_bit_true_when_better_than_current_route(engine):
    routing, _ = make_engine(engine, qualities={1: 2.0}, compare_new_link_etx=1.0)
    hear(routing, 1, parent=0, path_etx=4.0)  # my cost: 6.0
    frame = make_routing_frame(src=9, parent=0, path_etx=2.0)  # 2+1 < 6
    assert routing.compare_bit(frame, make_rx_info())
    assert routing.stats.compare_true == 1


def test_compare_bit_false_when_worse(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)  # my cost 1.0
    frame = make_routing_frame(src=9, parent=0, path_etx=3.0)
    assert not routing.compare_bit(frame, make_rx_info())


def test_compare_bit_true_when_no_route(engine):
    routing, _ = make_engine(engine)
    frame = make_routing_frame(src=9, parent=0, path_etx=7.0)
    assert routing.compare_bit(frame, make_rx_info())


def test_compare_bit_false_for_unrouted_beacon(engine):
    routing, _ = make_engine(engine)
    frame = make_routing_frame(src=9, parent=NO_PARENT, path_etx=math.inf)
    assert not routing.compare_bit(frame, make_rx_info())


def test_compare_bit_false_for_non_routing_frames(engine):
    from repro.link.frame import NetworkFrame

    routing, _ = make_engine(engine)
    assert not routing.compare_bit(NetworkFrame(src=1, dst=2, length_bytes=5), make_rx_info())


def test_beacons_carry_route_state(engine):
    routing, est = make_engine(engine, qualities={1: 1.5})
    routing.start()
    hear(routing, 1, parent=0, path_etx=0.0)
    engine.run_until(0.5)
    assert est.sent, "a beacon should have gone out"
    latest = est.sent[-1]
    assert latest.parent == 1
    assert latest.path_etx == pytest.approx(1.5)


def test_routeless_beacons_set_pull(engine):
    routing, est = make_engine(engine)
    routing.start()
    engine.run_until(0.5)
    assert est.sent
    assert est.sent[-1].pull


def test_beacon_retry_when_mac_busy(engine):
    routing, est = make_engine(engine)
    est.accept_sends = False
    routing.start()
    engine.run_until(0.2)
    est.accept_sends = True
    engine.run_until(1.0)
    assert est.sent  # the retry got through


def test_pull_beacon_resets_trickle(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, is_root=True)
    before = routing.trickle.resets
    hear(routing, 1, parent=0, path_etx=2.0, pull=True)
    assert routing.trickle.resets == before + 1


def test_loop_signal_resets_trickle_and_sets_pull(engine):
    routing, est = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)
    routing.start()
    before = routing.trickle.resets
    routing.signal_loop_suspected()
    assert routing.trickle.resets == before + 1
    assert routing.stats.loop_signals == 1


def test_first_route_triggers_callback(engine):
    routing, _ = make_engine(engine)
    found = []
    routing.on_route_found = lambda: found.append(True)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert not found  # neighbor not in estimator table → unusable
    routing.estimator.set_quality(1, 1.0)
    routing.update_route()
    assert found == [True]


# ----------------------------------------------------------------------
# Parent re-evaluation memo: skipping must never change a decision
# ----------------------------------------------------------------------
def test_unchanged_inputs_skip_reevaluation(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 2.0})
    views = []
    original = est.neighbor_qualities
    est.neighbor_qualities = lambda: views.append(1) or original()
    hear(routing, 1, parent=0, path_etx=1.0)
    assert routing.parent == 1
    evaluated = len(views)
    routing.update_route()
    routing.update_route()
    hear(routing, 1, parent=0, path_etx=1.0)  # same advertisement again
    assert len(views) == evaluated + 1  # one re-check after the switch, then memo hits
    est.set_quality(2, 1.0)  # a quality change must be seen
    routing.update_route()
    assert len(views) == evaluated + 2
    hear(routing, 2, parent=0, path_etx=0.5)  # so must a route change
    assert len(views) == evaluated + 3


class _NoMemoRouting(CtpRoutingEngine):
    """Re-evaluates on every call: the reference the memo must match."""

    def update_route(self) -> None:
        self._memo_key = None
        super().update_route()


class _BeaconClient:
    """Routes unwrapped CTP beacons to the engine, as CtpProtocol does."""

    def __init__(self, routing):
        self.routing = routing

    def on_receive(self, frame, info, le_src):
        if isinstance(frame, CtpRoutingFrame):
            self.routing.on_beacon_received(frame, info, le_src)

    def on_send_done(self, frame, sent, acked):
        pass


def _routing_stack(routing_cls):
    """A real estimator (3-entry table, short windows) under ``routing_cls``."""
    est, _, engine = build_estimator(
        EstimatorConfig(table_size=3, ku=2, kb=2, immature_evict_expected=2), node_id=10
    )
    routing = routing_cls(engine, est, node_id=10, is_root=False, rng=random.Random(5))
    est.compare_provider = routing
    est.client = _BeaconClient(routing)
    return est, routing


_NEIGHBORS = st.integers(1, 6)
_STEPS = st.one_of(
    st.tuples(
        st.just("beacon"),
        _NEIGHBORS,
        st.sampled_from([0, 1, 2, 3, 4, 5, 6, 10]),  # 10 = this node: a loop
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 9.0, math.inf]),
        st.booleans(),  # white bit
        st.sampled_from([1, 1, 1, 2, 3, 40]),  # seq step; 40 = neighbor reboot
    ),
    st.tuples(st.just("ack"), _NEIGHBORS, st.booleans()),
    st.tuples(st.just("pump")),
    st.tuples(st.just("crash")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=80))
def test_memoized_parent_matches_full_reevaluation(steps):
    """Beacons (new neighbors, changed routes, loops, unusable links),
    ack-bit ETX folds, table evictions and crash/reboot wipes: after every
    step the memoized engine holds the same parent as a twin that
    re-evaluates on every call."""
    stacks = [_routing_stack(CtpRoutingEngine), _routing_stack(_NoMemoRouting)]
    seqs = {}
    for step in steps:
        kind = step[0]
        if kind == "beacon":
            _, src, parent, path_etx, white, gap = step
            seqs[src] = seq = (seqs.get(src, -1) + gap) % 256
        for est, routing in stacks:
            if kind == "beacon":
                payload = make_routing_frame(src=src, parent=parent, path_etx=path_etx)
                est._mac_receive(le_wrap(payload, le_seq=seq), make_rx_info(white_bit=white))
            elif kind == "ack":
                unicast_attempt(est, step[1], acked=step[2])
            elif kind == "pump":
                routing.update_route()
            else:
                routing.fault_shutdown()
                est.reset_state()
                routing.fault_restart()
        (memo_est, memo), (ref_est, ref) = stacks
        assert memo_est.neighbor_qualities() == ref_est.neighbor_qualities()
        assert memo.parent == ref.parent, step
