"""Unit and property tests for the neighbor table (pin bit semantics)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import EstimatorConfig
from repro.core.neighbor_table import NeighborEntry, NeighborTable

from tests.core.helpers import StubCompare, beacon, build_estimator


def test_insert_and_find():
    table = NeighborTable(capacity=3)
    entry = table.insert(7)
    assert table.find(7) is entry
    assert 7 in table
    assert len(table) == 1


def test_duplicate_insert_rejected():
    table = NeighborTable(capacity=3)
    table.insert(7)
    with pytest.raises(ValueError):
        table.insert(7)


def test_insert_into_full_table_rejected():
    table = NeighborTable(capacity=1)
    table.insert(1)
    with pytest.raises(ValueError):
        table.insert(2)


def test_capacity_none_is_unlimited():
    table = NeighborTable(capacity=None)
    for i in range(500):
        table.insert(i)
    assert not table.full
    assert len(table) == 500


@pytest.mark.parametrize("capacity", [0, -1])
def test_invalid_capacity_rejected(capacity):
    with pytest.raises(ValueError):
        NeighborTable(capacity=capacity)


def test_immature_entry_etx_is_infinite():
    assert math.isinf(NeighborEntry(addr=1).etx)
    assert not NeighborEntry(addr=1).mature


def test_evict_random_unpinned_spares_pinned():
    table = NeighborTable(capacity=3)
    for i in range(3):
        table.insert(i)
    table.pin(0)
    table.pin(1)
    rng = random.Random(1)
    assert table.evict_random_unpinned(rng) == 2


def test_evict_random_all_pinned_returns_none():
    table = NeighborTable(capacity=2)
    table.insert(0)
    table.insert(1)
    table.pin(0)
    table.pin(1)
    assert table.evict_random_unpinned(random.Random(1)) is None
    assert len(table) == 2


def test_evict_random_respects_eligibility_filter():
    table = NeighborTable(capacity=3)
    for i in range(3):
        table.insert(i)
    victim = table.evict_random_unpinned(random.Random(1), eligible=lambda e: e.addr == 1)
    assert victim == 1


def _worst_evicting_estimator():
    """A full 2-slot table whose only insertion path is the estimator's
    ``compare_evict="worst"`` rule (the table itself evicts at random)."""
    config = EstimatorConfig(
        table_size=2,
        kb=2,
        alpha_outer=0.0,
        alpha_beacon=0.0,
        use_standard_replacement=False,
        compare_evict="worst",
        immature_evict_expected=1,
    )
    est, _, _ = build_estimator(config, compare=StubCompare(True))
    beacon(est, 0, seq=0)
    beacon(est, 0, seq=8)  # mature: 2 of 9 beacons, ETX 4.5
    return est


def test_evict_worst_treats_immature_as_worst():
    est = _worst_evicting_estimator()
    beacon(est, 1, seq=0)  # immature (etx = inf), past its window
    beacon(est, 9, seq=0)
    assert set(est.table.addresses()) == {0, 9}


def test_evict_worst_spares_pinned():
    est = _worst_evicting_estimator()
    beacon(est, 1, seq=0)
    beacon(est, 1, seq=1)  # mature at ETX 1.0, better than entry 0
    est.pin(0)
    beacon(est, 9, seq=0)
    assert set(est.table.addresses()) == {0, 9}


def test_pin_unpin_lifecycle():
    table = NeighborTable(capacity=2)
    table.insert(5)
    assert table.pin(5)
    assert table.find(5).pinned
    assert table.unpin(5)
    assert not table.find(5).pinned


def test_pin_unknown_address_returns_false():
    table = NeighborTable(capacity=2)
    assert not table.pin(99)
    assert not table.unpin(99)


def test_clear_pins():
    table = NeighborTable(capacity=3)
    for i in range(3):
        table.insert(i)
        table.pin(i)
    table.clear_pins()
    assert not any(entry.pinned for entry in table)


def test_remove():
    table = NeighborTable(capacity=2)
    table.insert(3)
    assert table.remove(3)
    assert not table.remove(3)
    assert 3 not in table


def test_eviction_counter():
    table = NeighborTable(capacity=2)
    table.insert(0)
    table.insert(1)
    table.evict_random_unpinned(random.Random(1))
    assert table.evictions == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.booleans()),
        min_size=1,
        max_size=40,
        unique_by=lambda t: t[0],
    ),
    st.integers(0, 2**31),
)
def test_property_pinned_entries_survive_random_eviction_storm(entries, seed):
    """The pin bit is absolute: no storm of random evictions may remove a
    pinned entry (the paper's contract with the network layer)."""
    table = NeighborTable(capacity=None)
    pinned = set()
    for addr, pin in entries:
        table.insert(addr)
        if pin:
            table.pin(addr)
            pinned.add(addr)
    rng = random.Random(seed)
    for _ in range(len(entries) + 5):
        table.evict_random_unpinned(rng)
    assert pinned.issubset(set(table.addresses()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(0, 100), min_size=1, max_size=60, unique=True))
def test_property_capacity_never_exceeded(capacity, addrs):
    table = NeighborTable(capacity=capacity)
    rng = random.Random(0)
    for addr in addrs:
        if table.full:
            table.evict_random_unpinned(rng)
        if not table.full and addr not in table:
            table.insert(addr)
        assert len(table) <= capacity


# ----------------------------------------------------------------------
# The live ETX view and its changed-address record: every content mutation
# records the address, pin bits do not
# ----------------------------------------------------------------------
def take_changed(table: NeighborTable) -> set:
    changed, table.changed = table.changed, set()
    return changed


def test_insert_and_remove_bump_version():
    table = NeighborTable(capacity=3)
    table.insert(1)
    assert take_changed(table) == {1}
    table.insert(2)
    assert take_changed(table) == {2}
    assert table.etx == {1: math.inf, 2: math.inf}
    assert table.remove(1)
    assert take_changed(table) == {1}
    assert not table.remove(1)  # absent: nothing changed
    assert take_changed(table) == set()
    assert table.etx == {2: math.inf}


def test_evictions_bump_version():
    table = NeighborTable(capacity=None)
    for addr in range(4):
        table.insert(addr)
    take_changed(table)
    victim = table.evict_random_unpinned(random.Random(2))
    assert victim is not None
    assert take_changed(table) == {victim}
    assert victim not in table.etx
    for addr in table.addresses():
        table.pin(addr)
    assert table.evict_random_unpinned(random.Random(2)) is None
    assert take_changed(table) == set()  # nothing evicted


def test_clear_bumps_version():
    table = NeighborTable(capacity=3)
    table.insert(5)
    table.insert(6)
    take_changed(table)
    table.clear()
    assert take_changed(table) == {5, 6}
    assert table.etx == {}


def test_pin_bits_leave_version_alone():
    table = NeighborTable(capacity=3)
    table.insert(1)
    table.insert(2)
    take_changed(table)
    table.pin(1)
    table.unpin(1)
    table.pin(2)
    table.clear_pins()
    assert take_changed(table) == set()


_ADDRS = st.integers(0, 5)
_TABLE_STEPS = st.one_of(
    st.tuples(st.just("insert"), _ADDRS),
    st.tuples(st.just("remove"), _ADDRS),
    st.tuples(st.just("pin"), _ADDRS),
    st.tuples(st.just("evict"), st.integers(0, 2**16)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("fold"), _ADDRS, st.sampled_from([1.0, 1.0, 1.25, 2.0, 7.5, 80.0])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_TABLE_STEPS, min_size=1, max_size=60))
def test_property_etx_view_tracks_entries(steps):
    """After any sequence of inserts, removals, pins, random evictions,
    wipes and estimator folds, ``table.etx`` equals the entries' ETX in
    table order, and the changed-address record holds exactly the
    addresses whose place in that view moved."""
    est, _, _ = build_estimator(EstimatorConfig(table_size=4, alpha_outer=0.5))
    table = est.table
    for step in steps:
        before = dict(table.etx)
        kind = step[0]
        if kind == "insert":
            if step[1] not in table and not table.full:
                table.insert(step[1])
        elif kind == "remove":
            table.remove(step[1])
        elif kind == "pin":
            table.pin(step[1])
        elif kind == "evict":
            table.evict_random_unpinned(random.Random(step[1]))
        elif kind == "clear":
            table.clear()
        else:
            entry = table.find(step[1])
            if entry is not None:
                est._fold_etx_sample(entry, step[2])
        assert list(table.etx.items()) == [(entry.addr, entry.etx) for entry in table]
        after = table.etx
        moved = {
            addr
            for addr in set(before) | set(after)
            if before.get(addr) != after.get(addr) or (addr in before) != (addr in after)
        }
        assert set(est.take_changed_neighbors()) == moved, step
