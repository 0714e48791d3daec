"""SpatialGrid: radius queries match brute force, deterministically."""

import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.spatial import SpatialGrid


def brute_force(positions, x, y, radius, exclude=None):
    out = []
    for nid, (px, py) in positions.items():
        if nid == exclude:
            continue
        if (px - x) ** 2 + (py - y) ** 2 <= radius * radius:
            out.append(nid)
    return sorted(out)


def random_positions(n, seed):
    rng = Random(seed)
    return {nid: (rng.uniform(0, 300), rng.uniform(0, 300)) for nid in range(n)}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("radius", [10.0, 45.0, 400.0])
def test_neighbors_match_brute_force(seed, radius):
    positions = random_positions(120, seed)
    index = SpatialGrid(positions, radius)
    for nid in positions:
        x, y = positions[nid]
        assert index.neighbors(nid) == brute_force(positions, x, y, radius, exclude=nid)


def test_neighbors_of_point_includes_exact_boundary():
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (10.0001, 0.0)}
    index = SpatialGrid(positions, 10.0)
    assert index.neighbors_of_point(0.0, 0.0, exclude=0) == [1]


def test_neighbors_sorted_and_exclude_self():
    positions = {5: (0.0, 0.0), 3: (1.0, 0.0), 9: (0.0, 1.0), 1: (1.0, 1.0)}
    index = SpatialGrid(positions, 5.0)
    assert index.neighbors(5) == [1, 3, 9]
    assert index.neighbors(5, exclude_self=False) == [1, 3, 5, 9]


def test_pairs_complete_and_ordered():
    positions = random_positions(40, 7)
    radius = 60.0
    index = SpatialGrid(positions, radius)
    pairs = list(index.pairs())
    assert pairs == sorted(pairs)
    expected = {
        (a, b)
        for a in positions
        for b in positions
        if a < b
        and math.dist(positions[a], positions[b]) <= radius
    }
    assert set(pairs) == expected


def test_negative_coordinates():
    positions = {0: (-5.0, -5.0), 1: (-6.0, -5.5), 2: (50.0, 50.0)}
    index = SpatialGrid(positions, 3.0)
    assert index.neighbors(0) == [1]


def test_zero_radius_rejected():
    with pytest.raises(ValueError):
        SpatialGrid({0: (0.0, 0.0)}, 0.0)


def test_len():
    assert len(SpatialGrid(random_positions(17, 1), 10.0)) == 17


def test_duplicate_positions_coexist():
    index = SpatialGrid({0: (7.0, 7.0), 1: (7.0, 7.0), 2: (7.0, 7.0)}, 1.0)
    assert index.neighbors(0) == [1, 2]


def test_node_on_cell_corner():
    index = SpatialGrid({0: (10.0, 10.0), 1: (12.0, 4.0)}, 10.0)  # 10/10 = cell 1
    assert index.neighbors(1) == [0]
    assert index.neighbors_of_point(10.0, 10.0, exclude=0) == [1]


# ----------------------------------------------------------------------
# pair_arrays: the cell join equals pairs(), order included
# ----------------------------------------------------------------------
def joined_pairs(index):
    ids, lo, hi = index.pair_arrays()
    assert ids.tolist() == sorted(index._positions)
    assert lo.dtype == hi.dtype == np.int32
    return list(zip(ids[lo].tolist(), ids[hi].tolist()))


def test_pair_arrays_empty_and_single_node():
    assert joined_pairs(SpatialGrid({}, 5.0)) == []
    assert joined_pairs(SpatialGrid({7: (1.0, 2.0)}, 5.0)) == []


def test_pair_arrays_keep_pairs_at_exactly_the_radius():
    # 3-4-5 offsets, axis offsets of exactly r, and points on cell edges.
    positions = {
        0: (0.0, 0.0), 1: (3.0, 4.0), 2: (-3.0, -4.0), 3: (5.0, 0.0),
        4: (0.0, -5.0), 5: (10.0, 0.0), 6: (8.0, 4.0), 7: (5.0, 5.0001),
    }
    index = SpatialGrid(positions, 5.0)
    pairs = joined_pairs(index)
    assert pairs == list(index.pairs())
    assert {(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (1, 6)} <= set(pairs)
    assert (0, 7) not in pairs


# Integer coordinates at r = 5 put many points on cell edges and many pairs
# at exactly the radius (5-0 and 3-4-5 offsets); the floats fill in between.
_COORD = st.one_of(
    st.integers(-15, 15).map(float),
    st.floats(-15.0, 15.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    points=st.dictionaries(st.integers(0, 10**6), st.tuples(_COORD, _COORD), max_size=60),
    radius=st.sampled_from([5.0, 2.5, 0.7, 40.0]),
)
def test_pair_arrays_equal_pairs(points, radius):
    index = SpatialGrid(points, radius)
    assert joined_pairs(index) == list(index.pairs())
