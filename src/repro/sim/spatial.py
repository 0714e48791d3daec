"""Uniform-grid spatial index over node positions.

The exact medium enumerates every attached receiver for every sender when
building candidate lists — O(N²) pairs, which is what blocks city-scale
(1k–10k node) topologies.  The fast backend instead buckets positions into
a uniform grid whose cell size equals the query radius, so a radius query
touches at most the 3×3 block of cells around the origin: O(N·k) total
candidate construction for k nodes within link-budget range.

The index is built once, at the medium's set-up, over the positions of
every participant; the medium is static after that (DESIGN.md §9).

The index is deliberately dumb and deterministic: query results are sorted
by node id, ties cannot occur, and nothing here draws randomness, so two
builds over the same positions are identical (the determinism contract in
DESIGN.md §2 extends to candidate enumeration order).  Bucket *contents*
are insertion-ordered, but every query sorts its output.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Tuple

Position = Tuple[float, float]


class SpatialGrid:
    """Fixed-radius neighbor queries over fixed 2-D positions."""

    def __init__(self, positions: Mapping[int, Position], radius_m: float) -> None:
        if radius_m <= 0.0:
            raise ValueError(f"radius must be positive: {radius_m}")
        self.radius_m = radius_m
        self._positions: Dict[int, Position] = dict(positions)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        inv = 1.0 / radius_m
        for nid, (x, y) in self._positions.items():
            key = (math.floor(x * inv), math.floor(y * inv))
            self._cells.setdefault(key, []).append(nid)

    def __len__(self) -> int:
        return len(self._positions)

    def neighbors(self, nid: int, exclude_self: bool = True) -> List[int]:
        """Node ids within ``radius_m`` of ``nid``, sorted ascending."""
        x, y = self._positions[nid]
        return self.neighbors_of_point(x, y, exclude=nid if exclude_self else None)

    def neighbors_of_point(self, x: float, y: float, exclude: object = None) -> List[int]:
        """Node ids within ``radius_m`` of ``(x, y)``, sorted ascending."""
        inv = 1.0 / self.radius_m
        cx, cy = math.floor(x * inv), math.floor(y * inv)
        r2 = self.radius_m * self.radius_m
        out: List[int] = []
        cells = self._cells
        positions = self._positions
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                bucket = cells.get((gx, gy))
                if bucket is None:
                    continue
                for other in bucket:
                    if other == exclude:
                        continue
                    ox, oy = positions[other]
                    dx, dy = ox - x, oy - y
                    if dx * dx + dy * dy <= r2:
                        out.append(other)
        out.sort()
        return out

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All unordered in-range pairs ``(a, b)`` with ``a < b`` (sorted)."""
        for nid in sorted(self._positions):
            for other in self.neighbors(nid):
                if other > nid:
                    yield (nid, other)

    def pair_arrays(self) -> Tuple[Any, Any, Any]:
        """:meth:`pairs` as arrays, by a cell join: ``(ids, lo, hi)``.

        ``ids`` holds the indexed node ids in ascending order (int64), and
        pair ``k`` is ``(ids[lo[k]], ids[hi[k]])`` with ``lo[k] < hi[k]``
        (int32), in the order of ``list(self.pairs())`` exactly.  Each
        cell is joined with itself and with its four forward neighbours,
        so every unordered pair of neighbouring cells is tested once, by
        one array test ``dx*dx + dy*dy <= r2``: the query's own float
        operations, whose squares do not depend on the sign of
        ``dx``/``dy``.  A large cell is joined in row chunks, so each
        distance matrix stays bounded.
        """
        # Imported here: only the fast medium enumerates pairs, and an
        # exact run must not load numpy.
        import numpy as np

        cells = self._cells
        positions = self._positions
        members = [nid for bucket in cells.values() for nid in bucket]
        by_id = np.array(sorted(members), dtype=np.int64)
        n = by_id.size
        # Each member's rank by id: a pair is the sort key ``lo * n + hi``
        # of its ends' ranks, so one sort of the keys gives pairs() order.
        rank = np.searchsorted(by_id, np.array(members, dtype=np.int64))
        xy = np.array([positions[nid] for nid in members], dtype=np.float64).reshape(-1, 2)
        xs, ys = xy[:, 0].copy(), xy[:, 1].copy()
        spans: Dict[Tuple[int, int], Tuple[int, int]] = {}
        start = 0
        for key, bucket in cells.items():
            spans[key] = (start, start + len(bucket))
            start += len(bucket)
        r2 = self.radius_m * self.radius_m
        found: List[Any] = []
        for (cx, cy), (s0, s1) in spans.items():
            for ox, oy in _FORWARD:
                other = spans.get((cx + ox, cy + oy))
                if other is None:
                    continue
                same = ox == 0 and oy == 0
                rows = max(1, _JOIN_BLOCK // (other[1] - other[0]))
                for r0 in range(s0, s1, rows):
                    r1 = min(r0 + rows, s1)
                    # Within one cell, row i only meets later columns.
                    c0 = r0 if same else other[0]
                    c1 = other[1]
                    dx = np.subtract.outer(xs[r0:r1], xs[c0:c1])
                    dy = np.subtract.outer(ys[r0:r1], ys[c0:c1])
                    dx *= dx
                    dy *= dy
                    dx += dy
                    hit = dx <= r2
                    if same:
                        hit = np.triu(hit, 1)
                    i, j = np.nonzero(hit)
                    if i.size:
                        one = rank[r0 + i]
                        two = rank[c0 + j]
                        lo = np.minimum(one, two)
                        lo *= n
                        lo += np.maximum(one, two)
                        found.append(lo)
        keys = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
        del found
        keys.sort()
        lo = np.empty(keys.size, dtype=np.int32)
        hi = np.empty(keys.size, dtype=np.int32)
        np.floor_divide(keys, n, out=lo, casting="unsafe")
        np.remainder(keys, n, out=hi, casting="unsafe")
        return by_id, lo, hi


#: The cell itself plus the four neighbours after it in (x, y) order: each
#: unordered pair of neighbouring cells appears exactly once.
_FORWARD = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))

#: Bound on the entries of one distance matrix in :meth:`SpatialGrid.pair_arrays`.
_JOIN_BLOCK = 1 << 16


__all__ = ["SpatialGrid"]
