"""Figure 3: physical-layer blindness of MultiHopLQI.

The paper shows a 12-hour trace where the PRR from node P to its parent C
drops from ~0.9 to ~0.6 while the LQI of the packets C *does* receive stays
high; unaware, MultiHopLQI keeps transmitting on the link, and the
cumulative count of unacknowledged packets inflects upward.

We reproduce the mechanism with a compressed timeline: an external burst
interferer near C is active during a known window.  Bursts destroy
overlapping packets outright (no LQI sample) and leave the surviving
packets clean (high LQI) — so the decode-quality indicator cannot see the
loss.  For contrast the experiment can also run 4B on the same channel,
whose ack bit notices the loss at data rate.  The scenario is the
campaign's ``fig3`` spec kind.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.analysis.render import table, timeseries
from repro.link.frame import BROADCAST
from repro.metrics.collection_stats import json_sanitize
from repro.metrics.timeseries import windowed_prr
from repro.phy.noise import WindowedInterferer
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.probe import Monitor
from repro.topology.generators import Topology
from repro.workloads.collection import WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import SimulationResult
    from repro.link.frame import Frame
    from repro.sim.packets import RxInfo, TxResult

#: Node ids in the scenario topology.
ROOT, C, P = 0, 1, 2


def scenario_topology() -> Topology:
    """Root ← C ← P chain with a few sources behind P.

    Distances are calibrated for the deterministic channel used by
    :func:`run` (no shadowing): the direct P→root link (22 m, ≈2.7 dB SNR)
    is too weak, so P must route through C (11 m, ≈12 dB), and the
    monitored link is P→C.  Node 6 is an alternative relay far from the
    interferer that an agile estimator can fail over to.
    """
    positions = {
        ROOT: (0.0, 0.0),
        C: (11.0, 0.0),
        P: (22.0, 0.0),
        3: (26.0, 2.0),
        4: (27.0, -2.0),
        5: (29.0, 0.5),
        6: (11.0, 8.0),
    }
    return Topology(name="fig3-chain", positions=positions, sink=ROOT)


class LinkMonitor(Monitor):
    """The monitored link ``sender`` → ``receiver``, read off the probe path.

    Records, in event order:

    * ``tx_times`` — every non-ack frame ``sender`` puts on the air (the
      ground-truth PRR denominator);
    * ``rx_times`` / ``lqi_samples`` — every non-ack frame ``receiver``
      decodes from ``sender`` addressed to it or broadcast;
    * ``unacked_times`` — ``sender``'s unicast attempts that reached the air
      and drew no ack (the bottom panel of Figure 3, cumulated).
    """

    def __init__(self, sender: int, receiver: int) -> None:
        self.sender = sender
        self.receiver = receiver
        self.tx_times: List[float] = []
        self.rx_times: List[float] = []
        self.lqi_samples: List[Tuple[float, int]] = []
        self.unacked_times: List[float] = []
        self._engine = None

    def attached(self, network: "CollectionNetwork") -> None:
        self._engine = network.engine

    def transmission_start(self, sender: int, frame: "Frame") -> None:
        if sender == self.sender and not frame.is_ack:
            self.tx_times.append(self._engine.now)

    def rx(self, node: int, frame: "Frame", info: "RxInfo") -> None:
        if (
            node == self.receiver
            and frame.src == self.sender
            and frame.dst in (node, BROADCAST)
        ):
            self.rx_times.append(info.timestamp)
            self.lqi_samples.append((info.timestamp, info.lqi))

    def tx(self, node: int, frame: "Frame", result: "TxResult") -> None:
        if node == self.sender and result.sent and not result.ack_bit:
            self.unacked_times.append(result.timestamp)

    def mean_lqi_in(self, t0: float, t1: float) -> Optional[float]:
        values = [lqi for t, lqi in self.lqi_samples if t0 <= t < t1]
        if not values:
            return None
        return sum(values) / len(values)

    def cumulative_unacked(self, times: List[float]) -> List[int]:
        return [bisect.bisect_right(self.unacked_times, t) for t in times]


@dataclass(frozen=True)
class Fig3Settings:
    duration_s: float = 1800.0
    #: Interference window (the "hour 4 to 6" episode, compressed).
    burst_window: Tuple[float, float] = (600.0, 1200.0)
    interferer_power_dbm: float = -14.0
    #: Fast traffic so the PRR windows have enough samples.
    send_interval_s: float = 2.0
    prr_window_s: float = 60.0
    seed: int = 7
    protocol: str = "mhlqi"


def settings_from_params(params: Dict[str, Any]) -> Fig3Settings:
    """The settings a ``fig3`` spec's parameters name, each value in its
    field's type; an unknown name is a ``ValueError`` naming it."""
    defaults = {f.name: f.default for f in dataclasses.fields(Fig3Settings)}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown fig3 parameter(s) {unknown}; known: {sorted(defaults)}")
    values: Dict[str, Any] = {}
    for name, value in params.items():
        kind = type(defaults[name])
        values[name] = tuple(map(float, value)) if kind is tuple else kind(value)
        if values[name] != value and kind is int:
            raise ValueError(f"fig3 parameter {name} must be an integer, got {value!r}")
    return Fig3Settings(**values)


@dataclass
class Fig3Result:
    settings: Fig3Settings
    #: (window center, PRR) of the P→C link, ground truth.
    prr_series: List[Tuple[float, Optional[float]]]
    #: (window center, mean LQI) of packets C actually received from P.
    lqi_series: List[Tuple[float, Optional[float]]]
    #: (time, cumulative unacked transmissions P→anyone).
    unacked_series: List[Tuple[float, float]]
    delivery_ratio: float
    cost: float

    def window_stats(self) -> Dict[str, float]:
        """Mean PRR / LQI inside vs outside the interference window."""
        t0, t1 = self.settings.burst_window

        def mean_in(series, inside: bool) -> float:
            values = [
                v
                for t, v in series
                if v is not None and ((t0 <= t <= t1) == inside)
            ]
            return sum(values) / len(values) if values else float("nan")

        return {
            "prr_outside": mean_in(self.prr_series, False),
            "prr_inside": mean_in(self.prr_series, True),
            "lqi_outside": mean_in(self.lqi_series, False),
            "lqi_inside": mean_in(self.lqi_series, True),
        }

    def blindness_holds(self) -> bool:
        """PRR drops substantially inside the window; received-packet LQI
        barely moves — the paper's headline observation."""
        stats = self.window_stats()
        prr_drop = stats["prr_outside"] - stats["prr_inside"]
        lqi_drop = stats["lqi_outside"] - stats["lqi_inside"]
        return prr_drop > 0.15 and lqi_drop < 5.0

    def to_json_dict(self) -> Dict[str, Any]:
        """Strict-JSON view (non-finite floats become ``null``)."""
        return json_sanitize(dataclasses.asdict(self))

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "Fig3Result":
        """The figure back from :meth:`to_json_dict` (a ``fig3`` summary)."""
        series = ("prr_series", "lqi_series", "unacked_series")
        return cls(
            settings=settings_from_params(data["settings"]),
            delivery_ratio=data["delivery_ratio"],
            cost=data["cost"],
            **{key: [tuple(point) for point in data[key]] for key in series},
        )

    def render(self) -> str:
        stats = self.window_stats()
        parts = [
            table(
                ["metric", "outside window", "inside window"],
                [
                    ["PRR (P→C)", f"{stats['prr_outside']:.3f}", f"{stats['prr_inside']:.3f}"],
                    ["LQI of received", f"{stats['lqi_outside']:.1f}", f"{stats['lqi_inside']:.1f}"],
                ],
                title=(
                    "Figure 3 — PRR collapses during the burst episode while the "
                    "LQI of received packets stays high"
                ),
            ),
            "",
            timeseries(
                {"PRR P->C": self.prr_series},
                title="PRR from P to C (windowed)",
                ylabel="PRR",
            ),
            "",
            timeseries(
                {"LQI P->C": self.lqi_series},
                title="LQI of packets received at C from P",
                ylabel="LQI",
            ),
            "",
            timeseries(
                {"cum. unacked": [(t, float(v)) for t, v in self.unacked_series]},
                title="Cumulative unacknowledged packets at P",
                ylabel="packets",
            ),
        ]
        return "\n".join(parts)


def execute(settings: Fig3Settings) -> Fig3Result:
    """Run the scripted scenario (a pure function of ``settings``)."""
    topo = scenario_topology()
    config = SimConfig(
        protocol=settings.protocol,
        seed=settings.seed,
        duration_s=settings.duration_s,
        warmup_s=min(120.0, settings.duration_s / 4),
        workload=WorkloadConfig(send_interval_s=settings.send_interval_s, boot_stagger_s=5.0),
        with_interferers=False,
    )
    # Deterministic channel: the scenario's geometry *is* the experiment.
    net = CollectionNetwork(
        topo,
        config,
        profile=None,
        channel_overrides=dict(
            shadowing_sigma_db=0.0,
            temporal_sigma_db=0.0,
            bimodal_fraction=0.0,
        ),
    )

    link = LinkMonitor(sender=P, receiver=C)
    net.attach(link)

    # One interferer near C, active during the window.
    interferer_id = 90_000
    net.channel.add_position(interferer_id, (11.5, 1.0))
    interferer = WindowedInterferer(
        net.engine,
        net.medium,
        interferer_id,
        settings.interferer_power_dbm,
        net.rng.stream("fig3-interferer"),
        windows=[settings.burst_window],
    )
    net.medium.finalize()  # re-finalize: a transmitter was added
    interferer.start()

    result = net.run()

    prr = windowed_prr(link.tx_times, link.rx_times, settings.prr_window_s, settings.duration_s)
    lqi: List[Tuple[float, Optional[float]]] = []
    t = 0.0
    while t < settings.duration_s:
        lqi.append((t + settings.prr_window_s / 2, link.mean_lqi_in(t, t + settings.prr_window_s)))
        t += settings.prr_window_s
    sample_times = [t for t, _ in prr]
    unacked = list(zip(sample_times, map(float, link.cumulative_unacked(sample_times))))

    return Fig3Result(
        settings=settings,
        prr_series=prr,
        lqi_series=lqi,
        unacked_series=unacked,
        delivery_ratio=result.delivery_ratio,
        cost=result.cost,
    )


def from_results(results: List["SimulationResult"]) -> Fig3Result:
    """Figure 3 from its one ``fig3`` point's result."""
    [result] = results
    return Fig3Result.from_json_dict(result.summary)
