"""Run profiling for the discrete-event engine.

An :class:`EngineProfiler` attaches to :class:`~repro.sim.engine.Engine`
(via ``engine.enable_profiling()``) and records, for every event executed:

* wall time bucketed by **event kind** (the callback's qualified name —
  ``Mac._cca``, ``CtpForwardingEngine._pump``, …), so a sweep can report
  where real time goes;
* total events and wall seconds → events/sec;
* the engine's heap compactions.

The engine pays a single ``is not None`` branch per event when profiling is
off; the measured overhead when on is one ``perf_counter`` pair per event.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple


class EngineProfiler:
    """Per-event-kind wall-time accounting."""

    __slots__ = ("event_counts", "event_wall_s", "_wall_start", "wall_s", "events", "compactions")

    def __init__(self) -> None:
        self.event_counts: Dict[str, int] = {}
        self.event_wall_s: Dict[str, float] = {}
        self._wall_start: Optional[float] = None
        self.wall_s = 0.0
        self.events = 0
        #: Heap tombstone compactions (mirrored from ``Engine.compactions``
        #: each time one runs): distinguishes "many canceled timers" churn
        #: from genuine event-volume cost in a profile.
        self.compactions = 0

    def record(self, kind: str, wall_s: float, sim_time: float, queue_depth: int) -> None:
        """Account one executed event (called by the engine's step loop,
        which also passes the clock and the live queue depth for
        subclasses that want them)."""
        if self._wall_start is None:
            self._wall_start = perf_counter()
        self.events += 1
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        self.event_wall_s[kind] = self.event_wall_s.get(kind, 0.0) + wall_s
        self.wall_s = perf_counter() - self._wall_start

    # ------------------------------------------------------------------
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def by_kind(self) -> List[Tuple[str, int, float]]:
        """(kind, count, wall seconds) rows, most expensive first."""
        rows = [
            (kind, self.event_counts[kind], self.event_wall_s.get(kind, 0.0))
            for kind in self.event_counts
        ]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows

    def summary(self) -> Dict[str, object]:
        """JSON-safe profile payload (attached to ``CollectionResult``)."""
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_s": self.events_per_s(),
            "compactions": self.compactions,
            "by_kind": {
                kind: {"count": count, "wall_s": wall}
                for kind, count, wall in self.by_kind()
            },
        }


def merge_profiles(profiles: List[Optional[Dict[str, object]]]) -> Optional[Dict[str, object]]:
    """Fold ``CollectionResult.profile`` dicts from several runs into one.

    Used by the sweep harness to answer "where does the whole sweep spend
    its time" without keeping per-run profilers alive.
    """
    live = [p for p in profiles if p]
    if not live:
        return None
    by_kind: Dict[str, Dict[str, float]] = {}
    events = 0
    wall = 0.0
    compactions = 0
    for p in live:
        events += int(p.get("events", 0))
        wall += float(p.get("wall_s", 0.0))
        compactions += int(p.get("compactions", 0))
        for kind, row in p.get("by_kind", {}).items():
            agg = by_kind.setdefault(kind, {"count": 0, "wall_s": 0.0})
            agg["count"] += int(row.get("count", 0))
            agg["wall_s"] += float(row.get("wall_s", 0.0))
    return {
        "events": events,
        "wall_s": wall,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "compactions": compactions,
        "by_kind": dict(
            sorted(by_kind.items(), key=lambda kv: kv[1]["wall_s"], reverse=True)
        ),
        "runs": len(live),
    }
