"""Fakes for network-layer unit tests."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.interfaces import LinkEstimator
from repro.link.frame import NetworkFrame


class FakeEstimator(LinkEstimator):
    """Scriptable link estimator: fixed table and qualities, recorded sends."""

    def __init__(self, qualities: Optional[Dict[int, float]] = None) -> None:
        self.qualities: Dict[int, float] = dict(qualities or {})
        self.pinned: set = set()
        self.sent: List[NetworkFrame] = []
        self.accept_sends = True
        self._version = 0

    # -- test controls ---------------------------------------------------
    def set_quality(self, neighbor: int, etx: float) -> None:
        self.qualities[neighbor] = etx
        self._version += 1

    # -- LinkEstimator ----------------------------------------------------
    @property
    def quality_version(self) -> int:
        return self._version

    def link_quality(self, neighbor: int) -> float:
        return self.qualities.get(neighbor, float("inf"))

    def neighbors(self) -> List[int]:
        return list(self.qualities)

    def pin(self, neighbor: int) -> bool:
        if neighbor in self.qualities:
            self.pinned.add(neighbor)
            return True
        return False

    def unpin(self, neighbor: int) -> bool:
        self.pinned.discard(neighbor)
        return True

    def clear_pins(self) -> None:
        self.pinned.clear()

    def send(self, frame: NetworkFrame) -> bool:
        if not self.accept_sends:
            return False
        self.sent.append(frame)
        return True
