"""Collection workload: the paper's evaluation traffic pattern.

Every node except the sink offers a constant-rate stream of packets to the
root (1 packet / 10 s in the paper's experiments).  Boot times are
staggered uniformly over 30 s, and each send carries jitter to avoid
network-wide packet synchronization — both straight from Section 4.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor


@dataclass(frozen=True)
class WorkloadConfig:
    send_interval_s: float = 10.0
    #: Per-send jitter, as a fraction of the interval (uniform ±).
    jitter_fraction: float = 0.1
    boot_stagger_s: float = 30.0
    #: Delay between protocol boot and the first application packet, giving
    #: routing a moment to acquire a first parent (nodes still send into a
    #: route-less stack otherwise; queues absorb a little of it).
    app_start_delay_s: float = 5.0


class CollectionSource:
    """Per-node application traffic generator."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        send_fn: Callable[[], bool],
        rng: Random,
        config: WorkloadConfig,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.send_fn = send_fn
        self.rng = rng
        self.config = config
        self.attempted = 0
        self.accepted = 0
        self._running = False
        self._stopped = False
        #: Bumped on every stop so ticks from an earlier life are orphaned
        #: (a stopped-then-restarted source must not double its send rate).
        self._epoch = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stopped = False
        first = self.config.app_start_delay_s + self.rng.uniform(0, self.config.send_interval_s)
        self.engine.schedule(first, self._tick, self._epoch)

    def stop(self) -> None:
        """Stop generating (drains naturally; used to end measurements)."""
        self._stopped = True
        self._running = False
        self._epoch += 1

    def _tick(self, epoch: int = 0) -> None:
        if self._stopped or epoch != self._epoch:
            return
        self.attempted += 1
        if self.send_fn():
            self.accepted += 1
        jitter = self.config.jitter_fraction * self.config.send_interval_s
        delay = self.config.send_interval_s + self.rng.uniform(-jitter, jitter)
        self.engine.schedule(max(delay, 0.1), self._tick, epoch)


@dataclass
class DeliveryRecord:
    origin: int
    seq: int
    thl: int
    time: float
    #: End-to-end latency (None when the origin timestamp was not carried).
    latency: Optional[float] = None


class SinkRecorder:
    """Collects deliveries at the root(s); deduplicates for the metrics."""

    def __init__(self) -> None:
        self.records: List[DeliveryRecord] = []
        self._unique: Set[Tuple[int, int]] = set()
        self.duplicates = 0
        self.unique_per_origin: Dict[int, int] = {}
        self.hops_sum = 0
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None

    def on_deliver(
        self, origin: int, seq: int, thl: int, time: float, origin_time: Optional[float] = None
    ) -> None:
        if self.probe is not None:
            self.probe.deliver(origin, seq, thl)
        key = (origin, seq)
        if key in self._unique:
            self.duplicates += 1
            return
        self._unique.add(key)
        latency = (time - origin_time) if origin_time is not None else None
        self.records.append(DeliveryRecord(origin, seq, thl, time, latency))
        self.unique_per_origin[origin] = self.unique_per_origin.get(origin, 0) + 1
        self.hops_sum += thl + 1  # thl counts hops after the first transmission

    @property
    def unique_delivered(self) -> int:
        return len(self._unique)

    def mean_hops(self) -> float:
        if not self.records:
            return float("nan")
        return self.hops_sum / len(self.records)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.records if r.latency is not None]
