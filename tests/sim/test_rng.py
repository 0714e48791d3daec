"""Unit tests for deterministic RNG streams."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngManager, derive_seed


def test_same_key_same_stream_object():
    mgr = RngManager(1)
    assert mgr.stream("a", 1) is mgr.stream("a", 1)


def test_streams_are_deterministic_across_managers():
    a = RngManager(7).stream("mac", 3)
    b = RngManager(7).stream("mac", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_keys_give_different_sequences():
    mgr = RngManager(7)
    a = [mgr.stream("mac", 1).random() for _ in range(5)]
    b = [mgr.stream("mac", 2).random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RngManager(1).stream("x").random()
    b = RngManager(2).stream("x").random()
    assert a != b


def test_consuming_one_stream_does_not_affect_another():
    mgr1 = RngManager(7)
    mgr1.stream("noise").random()  # consume
    value1 = mgr1.stream("mac", 1).random()
    mgr2 = RngManager(7)
    value2 = mgr2.stream("mac", 1).random()
    assert value1 == value2


def test_fork_is_deterministic():
    a = RngManager(7).fork("sub").stream("x").random()
    b = RngManager(7).fork("sub").stream("x").random()
    assert a == b


def test_fork_differs_from_parent():
    parent = RngManager(7)
    fork = parent.fork("sub")
    assert parent.stream("x").random() != fork.stream("x").random()


def test_derive_seed_stable_value():
    # Pin the value: seeds must be stable across processes and versions
    # (simulations must be replayable from a recorded master seed).
    assert derive_seed(42, "mac", 3) == derive_seed(42, "mac", 3)
    assert derive_seed(42, "mac", 3) != derive_seed(42, "mac", 4)


def test_derive_seed_handles_huge_and_negative_ints():
    big = 2**63 + 17
    assert isinstance(derive_seed(big, "x"), int)
    assert isinstance(derive_seed(-5, "x", -3), int)


def test_string_int_key_parts_distinct():
    # "1" (str) and 1 (int) must not collide.
    assert derive_seed(0, "1") != derive_seed(0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(), st.text(max_size=20), st.integers())
def test_property_derive_seed_in_64bit_range(seed, name, part):
    value = derive_seed(seed, name, part)
    assert 0 <= value < 2**64


def test_derive_seed_golden_values():
    """Exact pinned outputs: recorded master seeds must replay forever.

    If this test fails, the seed derivation changed and every recorded
    simulation (and every cached result) is silently invalidated — bump
    ``repro.runner.hashing.CACHE_SCHEMA_VERSION`` and say so in the
    changelog rather than letting old artifacts lie.
    """
    assert derive_seed(0) == 1786884285633530058
    assert derive_seed(42, "node", 3) == 3025732695171680509
    assert derive_seed(42, "node", 3, "phy") == 3960814292293960541
    assert derive_seed(1, "link", 0, 1) == 391915258420543110
    assert derive_seed(123456789, "interferer") == 18341706212044594796


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(_U64, st.text(min_size=1, max_size=12), _U64, _U64, st.booleans())
@example(2**64 - 1, "阴影", 2**64 - 1, 0, False)
@example(2**64 - 1, "\U0001f4e1", 0, 0, True)
@example(0, "shadow", 2**64 - 1, 2**64 - 1, True)
def test_property_once_replays_fresh_stream(master, name, a, b, same_pair):
    """``once(name, a, b)`` starts exactly where a fresh stream starts."""
    if same_pair:
        b = a
    mgr = RngManager(master)
    fresh = RngManager(master).stream(name, a, b)
    # Two gauss draws exercise the Box-Muller spare; random() follows it.
    expected = [fresh.gauss(0.0, 3.2), fresh.gauss(0.0, 3.2), fresh.random()]
    # Dirty the scratch generator's spare first: reseeding must clear it.
    mgr.once(name, b, a).gauss(0.0, 1.0)
    draw = mgr.once(name, a, b)
    assert [draw.gauss(0.0, 3.2), draw.gauss(0.0, 3.2), draw.random()] == expected
    assert mgr._streams == {}


def test_streams_and_one_shot_draws_are_seeded_by_derive_seed():
    """Both hash from the cached name prefix; the seed is derive_seed's."""
    for master in (7, 2**64 - 1):
        mgr = RngManager(master)
        for key in [("mac", 3), ("hardware",), ("faults", "preset", "x"), (5, "x", -3), ()]:
            want = random.Random(derive_seed(master, *key))
            expected = [want.random(), want.random()]
            assert [mgr.stream(*key).random() for _ in range(2)] == expected
            draw = mgr.once(*key)
            assert [draw.random(), draw.random()] == expected


def test_once_seeds_words_are_the_once_seeds():
    """Word k of ``once_seeds(name, a, b)`` seeds ``once(name, a[k], b[k])``."""
    ids = [0, 1, 499, 2**32 - 1, 2**32, 2**32 + 7, 2**40]
    a, b = zip(*[(x, y) for x in ids for y in ids])
    for master in (3, 2**63 + 5):
        mgr = RngManager(master)
        words = np.frombuffer(mgr.once_seeds("shadow", np.array(a), np.array(b)), "<u8")
        assert words.tolist() == [derive_seed(master, "shadow", x, y) for x, y in zip(a, b)]


def test_once_seeds_rejects_mismatched_lengths():
    # zip would stop at the shorter input and leave the tail seeds zero.
    with pytest.raises(ValueError, match="equal-length"):
        RngManager(1).once_seeds("shadow", np.arange(3), np.arange(2))
