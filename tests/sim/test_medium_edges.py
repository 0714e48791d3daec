"""Edge-behavior tests for the radio medium's hot-path bookkeeping.

These pin the behaviors the optimized reception loop in
:mod:`repro.sim.medium` must preserve: half-duplex suppression through the
``_recent`` list (a receiver that transmitted during *any* part of the
incoming frame misses it, even if its own transmission ended first),
collision-counter attribution (only interference-caused drops count), and
the ``_prune_recent`` horizon (finished transmissions are reclaimed after
long idle gaps without disturbing overlap detection).
"""

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.sim.medium import _RECENT_HORIZON_S, _RECENT_PRUNE_LEN

from tests.sim.test_medium import build_medium


def _frame(src, length=20):
    return Frame(src=src, dst=BROADCAST, length_bytes=length)


# ----------------------------------------------------------------------
# Half-duplex suppression
# ----------------------------------------------------------------------
def test_half_duplex_partial_overlap_suppresses():
    # Node 1 sends a short frame while node 0 sends a long one.  Node 1's
    # transmission is over (moved to ``_recent``) by the time node 0's frame
    # finishes, but it overlapped the frame in time — node 1 was deaf for
    # the frame's first bytes and must not receive it.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    medium.start_transmission(0, _frame(0, length=100))
    medium.start_transmission(1, _frame(1, length=10))
    engine.run()
    assert all(frame.src != 0 for frame, _ in nodes[1].received)


def test_half_duplex_back_to_back_can_receive():
    # Same nodes, but node 1's transmission fully precedes node 0's frame:
    # no overlap, so the frame is received normally (5 m is a sure link).
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    first = medium.start_transmission(1, _frame(1, length=10))
    engine.schedule(first + 1e-6, medium.start_transmission, 0, _frame(0, length=100))
    engine.run()
    assert [frame.src for frame, _ in nodes[1].received] == [0]


# ----------------------------------------------------------------------
# Collision attribution
# ----------------------------------------------------------------------
def test_clear_channel_losses_are_not_collisions():
    # A marginal link drops plenty of frames with no interferer anywhere;
    # none of those drops may be attributed to collisions.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (29.2, 0.0)})
    n = 200
    for _ in range(n):
        medium.start_transmission(0, _frame(0))
        engine.run()
    assert 0 < len(nodes[1].received) < n  # some losses happened …
    assert medium.collisions == 0  # … but nothing collided


def test_interference_losses_count_as_collisions():
    # Receiver 2 sits close to jamming sender 1: sender 0's frame dies to
    # interference (not noise), so the collision counter must attribute it.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (6.0, 0.0), 2: (5.0, 0.0)})
    medium.start_transmission(0, _frame(0, length=40))
    medium.start_transmission(1, _frame(1, length=40))
    engine.run()
    assert all(frame.src != 0 for frame, _ in nodes[2].received)
    assert medium.collisions >= 1


# ----------------------------------------------------------------------
# _prune_recent horizon
# ----------------------------------------------------------------------
def test_prune_recent_reclaims_after_idle_gaps():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    gap = 2.0 * _RECENT_HORIZON_S
    n = _RECENT_PRUNE_LEN + 1
    for _ in range(n):
        engine.schedule(gap, lambda: None)  # idle gap before each frame
        engine.run()
        medium.start_transmission(0, _frame(0))
        engine.run()
    # The final frame pushed the list past _RECENT_PRUNE_LEN, so the prune
    # fired at its end: every transmission older than the horizon (all of
    # them, given the gaps) is gone, leaving only the frame that triggered
    # the prune.
    assert len(medium._recent) == 1
    horizon = engine.now - _RECENT_HORIZON_S
    assert all(t.end >= horizon for t in medium._recent)
    # Frame accounting was unaffected.
    assert medium.transmissions == n
    assert len(nodes[1].received) == n


def test_prune_keeps_transmissions_inside_horizon():
    # Back-to-back traffic (no idle gaps): every finished transmission is
    # still inside the horizon, so pruning must not drop any of them.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    n = _RECENT_PRUNE_LEN + 10
    for _ in range(n):
        medium.start_transmission(0, _frame(0, length=10))
        engine.run()
    airtime_total = engine.now
    if airtime_total < _RECENT_HORIZON_S:
        assert len(medium._recent) == n
    else:  # pragma: no cover - only if airtime parameters grow a lot
        pytest.skip("frames too slow for a within-horizon burst")
