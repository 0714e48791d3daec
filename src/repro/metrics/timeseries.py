"""Per-link time-series probes (the instrumentation behind Figure 3).

The probes wrap a node's MAC callbacks non-invasively (chaining to the
original handler), recording for a chosen link:

* windowed PRR of broadcast beacons from a given sender (via LE sequence
  numbers this would need unwrapping, so the probe counts *all* frames from
  the sender against the sender's transmission log — the experiment
  supplies both ends);
* LQI of every received packet from the sender;
* the cumulative count of unacknowledged transmissions to a destination.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from typing import List, Optional, Tuple


from repro.link.frame import AckFrame, Frame
from repro.link.mac import Mac
from repro.sim.packets import RxInfo, TxResult


@dataclass
class _Sample:
    time: float
    value: float


class RxProbe:
    """Records receptions at one node, filtered by sender."""

    def __init__(self, mac: Mac, sender: int) -> None:
        self.sender = sender
        self.rx_times: List[float] = []
        self.lqi_samples: List[Tuple[float, int]] = []
        self._chain = mac.on_receive
        mac.on_receive = self._on_receive

    def _on_receive(self, frame: Frame, info: RxInfo) -> None:
        if frame.src == self.sender and not isinstance(frame, AckFrame):
            self.rx_times.append(info.timestamp)
            self.lqi_samples.append((info.timestamp, info.lqi))
        if self._chain is not None:
            self._chain(frame, info)

    def mean_lqi_in(self, t0: float, t1: float) -> Optional[float]:
        values = [lqi for t, lqi in self.lqi_samples if t0 <= t < t1]
        if not values:
            return None
        return sum(values) / len(values)


class TxProbe:
    """Records transmissions from one node, filtered by destination.

    Counts attempts and unacknowledged attempts — the bottom panel of
    Figure 3 is the cumulative unacked count.
    """

    def __init__(self, mac: Mac, dest: Optional[int] = None) -> None:
        self.dest = dest
        self.tx_times: List[float] = []
        self.unacked_times: List[float] = []
        self._chain = mac.on_send_done
        mac.on_send_done = self._on_send_done

    def _on_send_done(self, frame: Frame, result: TxResult) -> None:
        if result.sent and (self.dest is None or result.dest == self.dest):
            if not frame.is_broadcast:
                self.tx_times.append(result.timestamp)
                if not result.ack_bit:
                    self.unacked_times.append(result.timestamp)
        if self._chain is not None:
            self._chain(frame, result)

    def cumulative_unacked(self, times: List[float]) -> List[int]:
        return [bisect.bisect_right(self.unacked_times, t) for t in times]


class BroadcastLog:
    """Counts every frame a node puts on the air (for ground-truth PRR)."""

    def __init__(self, mac: Mac) -> None:
        self.node_id = mac.node_id
        self.tx_times: List[float] = []
        self._orig_start = mac.medium.start_transmission
        self._mac = mac
        mac.medium = _TxCountingMedium(mac.medium, self)


class _TxCountingMedium:
    """Proxy medium that logs one node's transmissions, delegating the rest."""

    def __init__(self, inner, log: BroadcastLog) -> None:
        self._inner = inner
        self._log = log

    def start_transmission(self, sender_id: int, frame: Frame) -> float:
        if sender_id == self._log.node_id and not isinstance(frame, AckFrame):
            self._log.tx_times.append(self._inner.engine.now)
        return self._inner.start_transmission(sender_id, frame)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def windowed_prr(
    tx_times: List[float], rx_times: List[float], window_s: float, t_end: float
) -> List[Tuple[float, Optional[float]]]:
    """PRR per window: received / transmitted, ``None`` for empty windows."""
    out: List[Tuple[float, Optional[float]]] = []
    t = 0.0
    while t < t_end:
        sent = bisect.bisect_right(tx_times, t + window_s) - bisect.bisect_right(tx_times, t)
        got = bisect.bisect_right(rx_times, t + window_s) - bisect.bisect_right(rx_times, t)
        out.append((t + window_s / 2, (got / sent) if sent else None))
        t += window_s
    return out
