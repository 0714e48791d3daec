"""Typed fault events and the :class:`FaultSchedule` scenario spec.

Every event is a frozen dataclass, so a whole schedule is hashable,
picklable (it travels to runner worker processes as the ``faults``
parameter of a ``collection`` :class:`~repro.campaign.spec.SimulationSpec`)
and canonically digestible through
:func:`repro.runner.hashing.config_digest` — two runs share a cache entry
only if their fault scenarios are value-identical.

Times are absolute simulated seconds.  Node fields use ``None`` as a
wildcard where documented (e.g. a :class:`LinkBlackout` with both endpoints
``None`` silences the whole network).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type, Union


@dataclass(frozen=True)
class NodeCrash:
    """Node failure: RAM state (estimator table, routing, queues) is lost.

    With ``reboot_at_s`` set the node comes back at that time with wiped
    state and re-bootstraps (the paper's reboot scenario); ``None`` models
    permanent death / leave churn.
    """

    KIND: ClassVar[str] = "node_crash"

    at_s: float
    node: int
    reboot_at_s: Optional[float] = None

    def validate(self) -> None:
        _require(self.at_s >= 0.0, f"crash time must be >= 0: {self.at_s}")
        _require(self.node >= 0, f"bad node id: {self.node}")
        if self.reboot_at_s is not None:
            _require(
                self.reboot_at_s > self.at_s,
                f"reboot at {self.reboot_at_s} not after crash at {self.at_s}",
            )


@dataclass(frozen=True)
class NodeReboot:
    """Standalone reboot (join churn: pair with a ``NodeCrash`` at t=0)."""

    KIND: ClassVar[str] = "node_reboot"

    at_s: float
    node: int

    def validate(self) -> None:
        _require(self.at_s >= 0.0, f"reboot time must be >= 0: {self.at_s}")
        _require(self.node >= 0, f"bad node id: {self.node}")


@dataclass(frozen=True)
class LinkBlackout:
    """Window during which frames on the matched links never decode.

    ``node_a``/``node_b`` select the scope: both set = that one link (either
    direction); one set = every link touching that node; both ``None`` =
    every link in the network.  Transmissions still occupy the channel
    (CCA and interference are physical; only decoding is suppressed).
    """

    KIND: ClassVar[str] = "link_blackout"

    start_s: float
    end_s: float
    node_a: Optional[int] = None
    node_b: Optional[int] = None

    def validate(self) -> None:
        _require(self.start_s >= 0.0, f"blackout start must be >= 0: {self.start_s}")
        _require(
            self.end_s > self.start_s,
            f"blackout window empty: ({self.start_s}, {self.end_s})",
        )
        for node in (self.node_a, self.node_b):
            _require(node is None or node >= 0, f"bad node id: {node}")


@dataclass(frozen=True)
class QualityShift:
    """Stepwise, persistent gain change (dB) on the matched links.

    Shifts are cumulative: two −3 dB shifts on the same scope leave the
    links 6 dB down.  Scope selection matches :class:`LinkBlackout`.
    """

    KIND: ClassVar[str] = "quality_shift"

    at_s: float
    delta_db: float
    node_a: Optional[int] = None
    node_b: Optional[int] = None

    def validate(self) -> None:
        _require(self.at_s >= 0.0, f"shift time must be >= 0: {self.at_s}")
        for node in (self.node_a, self.node_b):
            _require(node is None or node >= 0, f"bad node id: {node}")


@dataclass(frozen=True)
class InterferenceBurst:
    """External jammer at ``(x, y)`` active during ``(start_s, end_s)``.

    Realized as a :class:`~repro.phy.noise.WindowedInterferer`: bursty
    802.11-style traffic that raises the interference floor at nearby
    receivers, corrupting overlapping packets via SINR (the Figure 3
    failure mode, now schedulable).
    """

    KIND: ClassVar[str] = "interference_burst"

    start_s: float
    end_s: float
    x: float
    y: float
    power_dbm: float = 0.0

    def validate(self) -> None:
        _require(self.start_s >= 0.0, f"burst start must be >= 0: {self.start_s}")
        _require(
            self.end_s > self.start_s,
            f"burst window empty: ({self.start_s}, {self.end_s})",
        )


FaultEvent = Union[NodeCrash, NodeReboot, LinkBlackout, QualityShift, InterferenceBurst]

#: JSON ``kind`` tag → event class (the round-trip registry).
EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.KIND: cls
    for cls in (NodeCrash, NodeReboot, LinkBlackout, QualityShift, InterferenceBurst)
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered bundle of fault events for one run.

    Same-time events apply in schedule order (the injector schedules them
    in sequence and the engine is FIFO at equal times), so the tuple order
    is part of the scenario's identity — and of its digest.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: Human-readable scenario name (presets set it; free-form otherwise).
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if type(event) not in EVENT_TYPES.values():
                raise TypeError(f"not a fault event: {event!r}")
            event.validate()

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Hashing / JSON round trip
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Canonical 128-bit hex digest of the scenario (cache-key stable)."""
        from repro.runner.hashing import config_digest

        return config_digest(self)

    def to_json_dict(self) -> Dict[str, Any]:
        events: List[Dict[str, Any]] = []
        for event in self.events:
            row: Dict[str, Any] = {"kind": event.KIND}
            for f in fields(event):
                row[f.name] = getattr(event, f.name)
            events.append(row)
        return {"name": self.name, "events": events}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        events = []
        for row in data.get("events", ()):
            row = dict(row)
            kind = row.pop("kind", None)
            event_cls = EVENT_TYPES.get(kind)
            if event_cls is None:
                raise ValueError(
                    f"unknown fault event kind {kind!r}; choose from {sorted(EVENT_TYPES)}"
                )
            events.append(event_cls(**row))
        return cls(events=tuple(events), name=str(data.get("name", "")))

    def to_json_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "FaultSchedule":
        return cls.from_json_dict(json.loads(Path(path).read_text()))
