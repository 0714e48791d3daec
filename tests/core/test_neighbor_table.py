"""Unit and property tests for the neighbor table (pin bit semantics)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ewma import Ewma
from repro.core.neighbor_table import NeighborEntry, NeighborTable


def mature_entry(addr: int, etx: float) -> NeighborEntry:
    entry = NeighborEntry(addr=addr)
    entry.etx_ewma = Ewma(0.5)
    entry.etx_ewma.update(etx)
    return entry


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


def test_evict_worst_unpinned():
    table = NeighborTable(capacity=3)
    for i, etx in enumerate([1.5, 8.0, 3.0]):
        table._entries[i] = mature_entry(i, etx)
    assert table.evict_worst_unpinned() == 1


def test_evict_worst_treats_immature_as_worst():
    table = NeighborTable(capacity=2)
    table._entries[0] = mature_entry(0, 9.0)
    table.insert(1)  # immature: etx = inf
    assert table.evict_worst_unpinned() == 1


def test_evict_worst_spares_pinned():
    table = NeighborTable(capacity=2)
    table._entries[0] = mature_entry(0, 9.0)
    table._entries[1] = mature_entry(1, 2.0)
    table.pin(0)
    assert table.evict_worst_unpinned() == 1


def test_pin_unpin_lifecycle():
    table = NeighborTable(capacity=2)
    table.insert(5)
    assert table.pin(5)
    assert table.pinned_addresses() == [5]
    assert table.unpin(5)
    assert table.pinned_addresses() == []


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
    assert table.pinned_addresses() == []


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
# version: every content mutation bumps it, pin bits do not
# ----------------------------------------------------------------------
class _VersionWatch:
    def __init__(self, table: NeighborTable) -> None:
        self.table = table
        self.seen = table.version

    def bumped(self) -> bool:
        now = self.table.version
        moved = now != self.seen
        self.seen = now
        return moved


def test_insert_and_remove_bump_version():
    table = NeighborTable(capacity=3)
    watch = _VersionWatch(table)
    table.insert(1)
    assert watch.bumped()
    table.insert(2)
    assert watch.bumped()
    assert table.remove(1)
    assert watch.bumped()
    assert not table.remove(1)  # absent: nothing changed
    assert not watch.bumped()


def test_evictions_bump_version():
    table = NeighborTable(capacity=None)
    for addr in range(4):
        table.insert(addr)
    watch = _VersionWatch(table)
    assert table.evict_random_unpinned(random.Random(2)) is not None
    assert watch.bumped()
    assert table.evict_worst_unpinned() is not None
    assert watch.bumped()
    for addr in table.addresses():
        table.pin(addr)
    watch.bumped()
    assert table.evict_random_unpinned(random.Random(2)) is None
    assert table.evict_worst_unpinned() is None
    assert not watch.bumped()  # nothing evicted


def test_clear_bumps_version():
    table = NeighborTable(capacity=3)
    table.insert(5)
    watch = _VersionWatch(table)
    table.clear()
    assert watch.bumped()


def test_pin_bits_leave_version_alone():
    table = NeighborTable(capacity=3)
    table.insert(1)
    table.insert(2)
    watch = _VersionWatch(table)
    table.pin(1)
    table.unpin(1)
    table.pin(2)
    table.clear_pins()
    assert not watch.bumped()
