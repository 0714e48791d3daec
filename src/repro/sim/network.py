"""End-to-end collection simulation builder.

``CollectionNetwork`` assembles a full testbed run: channel + medium from a
topology (optionally a :class:`~repro.topology.testbeds.TestbedProfile`),
one protocol stack per node, external interferers, the collection workload
and the sink recorder.  ``run()`` executes it and returns a
:class:`~repro.metrics.collection_stats.CollectionResult`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.core.estimator import EstimatorConfig, HybridLinkEstimator
from repro.estimators.presets import PRESETS
from repro.link.mac import Mac
from repro.metrics.collection_stats import CollectionResult, compute_result
from repro.net.ctp.protocol import CtpConfig, CtpProtocol
from repro.net.multihoplqi import MhlqiConfig, MultiHopLqi
from repro.phy.channel import ChannelModel

from repro.phy.noise import MarkovInterferer, INTERFERER_ID_BASE, apply_hardware_variation
from repro.phy.radio import CC2420, Radio, RadioParams
from repro.phy.white_bit import LqiWhiteBit, NeverWhiteBit, SnrWhiteBit
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.node import Node
from repro.sim.probe import Monitor, MonitorSet
from repro.sim.rng import RngManager
from repro.topology.generators import Topology
from repro.topology.testbeds import TestbedProfile
from repro.workloads.collection import CollectionSource, SinkRecorder, WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.invariants import InvariantChecker
    from repro.faults.schedule import FaultSchedule
    from repro.obs.stream import TelemetrySampler

#: Protocols the harness knows how to build.  Every stack forwards through
#: CTP's forwarding engine.  The CTP variants and "geo" sit on the estimator
#: (with different presets); "mhlqi" routes on beacon LQI and sends on the
#: MAC, with no estimator.
PROTOCOLS = ("ctp", "ctp-unconstrained", "ctp-unidir", "ctp-white", "4b", "mhlqi", "geo")

#: Medium backends ``SimConfig.medium`` selects between.
MEDIUM_BACKENDS = ("exact", "fast")

#: Tree depth is sampled this often (simulated seconds) from the warmup on.
TREE_SAMPLE_PERIOD_S = 30.0

#: The types ``SimConfig`` checks before any comparison or build step
#: would trip over a wrong one; ``bool`` never passes for a number.
_FIELD_TYPES: Dict[str, Any] = {
    "tx_power_dbm": numbers.Real,
    "seed": numbers.Integral,
    "duration_s": numbers.Real,
    "warmup_s": numbers.Real,
    "drain_s": numbers.Real,
    "workload": WorkloadConfig,
    "extra_sinks": (tuple, list),
    "estimator_config": (EstimatorConfig, type(None)),
    "radio_params": RadioParams,
    "telemetry_period_s": (numbers.Real, type(None)),
    "telemetry_path": (str, type(None)),
}


@dataclass(frozen=True)
class SimConfig:
    """One collection run."""

    protocol: str = "4b"
    tx_power_dbm: float = 0.0
    seed: int = 1
    duration_s: float = 600.0
    #: Depth sampling starts after the warmup (trees need time to form).
    warmup_s: float = 120.0
    #: Sources stop this long before the end so in-flight packets drain.
    drain_s: float = 30.0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Additional basestations beyond the topology's sink.  Collection is
    #: anycast: a packet counts as delivered at whichever root hears it
    #: first (the paper's traffic model, Section 2).
    extra_sinks: Tuple[int, ...] = ()
    #: Override the preset estimator configuration (ablations).
    estimator_config: Optional[EstimatorConfig] = None
    with_interferers: bool = True
    #: Radio hardware class for every node (e.g. ``repro.phy.radio.CC1000``).
    radio_params: RadioParams = CC2420
    #: White-bit derivation: "lqi" (CC2420 chip correlation), "snr"
    #: (signal/noise threshold), or "never" (hardware provides nothing —
    #: the paper's worst case, appropriate for CC1000).
    white_bit: str = "lqi"
    #: Profile the event loop (wall time per event kind, events/sec, heap
    #: compactions); the profile surfaces on ``CollectionResult.profile``.
    profile_events: bool = False
    #: Attach a cross-layer metrics snapshot (``repro.obs`` registry, flat
    #: dict) to ``CollectionResult.metrics`` at the end of the run.
    collect_metrics: bool = False
    #: Fault injection: a preset name, a path to a JSON scenario file, or a
    #: :class:`~repro.faults.schedule.FaultSchedule`.  ``None`` = no faults
    #: (and the fault machinery stays entirely out of the hot path).
    faults: Optional[Union[str, "FaultSchedule"]] = None
    #: Run the :class:`~repro.faults.invariants.InvariantChecker` alongside
    #: the simulation (raises ``InvariantViolation`` on a failed property).
    check_invariants: bool = False
    #: Medium backend: "exact" (scalar, bit-reproducible — the golden
    #: contract) or "fast" (:class:`~repro.sim.medium_fast.FastRadioMedium`,
    #: vectorized + spatially culled, distribution-equivalent; DESIGN.md §9).
    medium: str = "exact"
    #: Live telemetry (DESIGN.md §10): emit an incremental metrics snapshot
    #: every this many simulated seconds.  ``None`` = off (the streaming
    #: machinery is never constructed, so plain runs pay nothing).
    telemetry_period_s: Optional[float] = None
    #: Stream destination: a JSONL file path, or ``None`` for a bounded
    #: in-memory ring of the last 1024 records
    #: (``network.telemetry.log.records``).
    telemetry_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if not all(
            isinstance(nid, numbers.Integral) and not isinstance(nid, bool)
            for nid in self.extra_sinks
        ):
            raise ValueError(f"extra_sinks must be node ids: {self.extra_sinks!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")
        if self.medium not in MEDIUM_BACKENDS:
            raise ValueError(
                f"unknown medium backend {self.medium!r}; choose from {MEDIUM_BACKENDS}"
            )
        # Negated comparisons: NaN fails every one of them.
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and positive: {self.duration_s!r}")
        # ±100 dBm is 10 MW either way of a milliwatt; far beyond it the
        # mediums' dBm → mW conversions overflow a float.
        if not -100.0 <= self.tx_power_dbm <= 100.0:
            raise ValueError(f"tx_power_dbm must be within ±100 dBm: {self.tx_power_dbm!r}")
        if not 0.0 <= self.warmup_s < self.duration_s:
            raise ValueError(
                f"warmup_s must satisfy 0 <= warmup < duration: {self.warmup_s!r}"
            )
        # Sources stop at duration − drain; a stop at or before t = 0 would
        # precede their start, or fall in the engine's past.
        if not 0.0 <= self.drain_s < self.duration_s:
            raise ValueError(f"drain_s must satisfy 0 <= drain < duration: {self.drain_s!r}")
        if self.white_bit not in ("lqi", "snr", "never"):
            raise ValueError(f"unknown white-bit policy {self.white_bit!r}")
        if self.telemetry_period_s is not None and not self.telemetry_period_s > 0:
            raise ValueError(
                f"telemetry_period_s must be positive: {self.telemetry_period_s!r}"
            )
        if self.telemetry_path is not None and self.telemetry_period_s is None:
            raise ValueError("telemetry_path requires telemetry_period_s")
        if self.faults is not None and not isinstance(self.faults, str):
            from repro.faults.schedule import FaultSchedule

            if not isinstance(self.faults, FaultSchedule):
                raise ValueError(
                    f"faults must be a preset name, JSON path or FaultSchedule: "
                    f"{self.faults!r}"
                )


def _white_policy(config: SimConfig):
    """The white-bit policy ``config`` names, with the policy's default
    threshold (built per network, so only the selected one is constructed)."""
    if config.white_bit == "lqi":
        return LqiWhiteBit()
    if config.white_bit == "snr":
        return SnrWhiteBit.from_prr_target()
    return NeverWhiteBit()


class CollectionNetwork:
    """A fully wired simulated testbed."""

    def __init__(
        self,
        topology: Topology,
        config: SimConfig,
        profile: Optional[TestbedProfile] = None,
        channel_overrides: Optional[dict] = None,
    ) -> None:
        unknown = [nid for nid in config.extra_sinks if nid not in topology.positions]
        if unknown:
            raise ValueError(f"extra_sinks name nodes not in the topology: {unknown}")
        self.topology = topology
        self.config = config
        self.profile = profile
        self._channel_overrides = channel_overrides or {}
        self.engine = Engine()
        self.rng = RngManager(config.seed)
        self.channel = self._build_channel()
        white_policy = _white_policy(config)
        if config.medium == "fast":
            # Local import: numpy stays off the import path of exact runs.
            from repro.sim.medium_fast import FastRadioMedium

            medium_cls: Any = FastRadioMedium
        else:
            medium_cls = RadioMedium
        self.medium = medium_cls(
            self.engine,
            self.channel,
            self.rng,
            white_bit_policy=white_policy,
        )
        self.sink = SinkRecorder()
        self.nodes: Dict[int, Node] = {}
        self.interferers: List[MarkovInterferer] = []
        self._depth_samples: List[Dict[int, Optional[int]]] = []
        #: Subscribed monitors, in :meth:`attach` order.
        self.monitors: List[Monitor] = []
        #: What every layer's ``probe`` points at (``None``: nothing attached).
        self.probe: Optional[Monitor] = None
        if config.profile_events:
            self.engine.enable_profiling()
        self._build_nodes()
        self._build_interferers()
        self.fault_injector: Optional["FaultInjector"] = None
        self.invariant_checker: Optional["InvariantChecker"] = None
        if config.faults is not None:
            self._build_fault_injector()
        apply_hardware_variation(
            [n.radio for n in self.nodes.values()],
            self.rng.stream("hardware"),
            tx_power_sigma_db=profile.tx_power_sigma_db if profile else 1.0,
            noise_floor_sigma_db=profile.noise_floor_sigma_db if profile else 1.5,
            nominal_noise_floor_dbm=config.radio_params.noise_floor_dbm,
        )
        self.medium.finalize()
        self._schedule_boot()
        self._schedule_tree_sampling()
        if self.fault_injector is not None:
            self.fault_injector.arm()
        if config.check_invariants:
            from repro.faults.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker(self)
            self.invariant_checker.install()
        #: Wall/CPU/RSS deltas for the event loop, filled by :meth:`run`
        #: when telemetry is on (the run-end stream record carries them).
        self.run_resources: Optional[Dict[str, float]] = None
        self.telemetry: Optional["TelemetrySampler"] = None
        if config.telemetry_period_s is not None:
            self._build_telemetry()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_channel(self) -> ChannelModel:
        profile = self.profile
        kwargs = {}
        if profile is not None:
            kwargs = dict(
                pathloss=profile.pathloss,
                shadowing_sigma_db=profile.shadowing_sigma_db,
                temporal_sigma_db=profile.temporal_sigma_db,
                temporal_tau_s=profile.temporal_tau_s,
                bimodal_fraction=profile.bimodal_fraction,
                fade_depth_db=profile.fade_depth_db,
                fade_dwell_s=profile.fade_dwell_s,
                good_dwell_s=profile.good_dwell_s,
            )
        kwargs.update(self._channel_overrides)
        return ChannelModel(self.topology.positions, self.rng.fork("channel"), **kwargs)

    @property
    def roots(self) -> Tuple[int, ...]:
        return (self.topology.sink,) + tuple(self.config.extra_sinks)

    def _build_nodes(self) -> None:
        for nid in self.topology.node_ids():
            is_root = nid in self.roots
            radio = Radio(
                node_id=nid,
                params=self.config.radio_params,
                tx_power_dbm=self.config.tx_power_dbm,
                noise_floor_dbm=self.config.radio_params.noise_floor_dbm,
            )
            mac = Mac(self.engine, self.medium, radio, self.rng.stream("mac", nid))
            protocol, estimator = self._build_stack(mac, nid, is_root)
            source = None
            if not is_root:
                source = CollectionSource(
                    self.engine,
                    nid,
                    protocol.send_from_app,
                    self.rng.stream("app", nid),
                    self.config.workload,
                )
            # One draw per node: a one-shot generator, not an interned stream.
            boot = 0.0 if is_root else self.rng.once("boot", nid).uniform(
                0.0, self.config.workload.boot_stagger_s
            )
            self.nodes[nid] = Node(
                node_id=nid,
                radio=radio,
                mac=mac,
                protocol=protocol,
                estimator=estimator,
                source=source,
                boot_time=boot,
            )
            self.medium.attach(mac)
            if is_root:
                protocol.forwarding.on_deliver = self.sink.on_deliver

    def _build_stack(
        self, mac: Mac, nid: int, is_root: bool
    ) -> Tuple[Any, Optional[HybridLinkEstimator]]:
        name = self.config.protocol
        radio_params = self.config.radio_params
        if name == "mhlqi":
            protocol = MultiHopLqi(
                self.engine, mac, nid, is_root, self.rng.stream("net", nid),
                MhlqiConfig.scaled_for(radio_params),
            )
            return protocol, None
        if name == "geo":
            from repro.estimators.presets import four_bit
            from repro.net.geographic import GreedyGeoProtocol

            est_config = self.config.estimator_config or four_bit()
            estimator = HybridLinkEstimator(mac, est_config, self.rng.stream("est", nid))
            protocol = GreedyGeoProtocol(
                self.engine,
                estimator,
                nid,
                position=self.topology.positions[nid],
                sink_position=self.topology.positions[self.topology.sink],
                is_root=is_root,
                rng=self.rng.stream("net", nid),
            )
            return protocol, estimator
        est_config = self.config.estimator_config or PRESETS[name]
        estimator = HybridLinkEstimator(mac, est_config, self.rng.stream("est", nid))
        protocol = CtpProtocol(
            self.engine, estimator, nid, is_root, self.rng.stream("net", nid),
            CtpConfig.scaled_for(radio_params),
        )
        return protocol, estimator

    def _build_interferers(self) -> None:
        if not self.config.with_interferers or self.profile is None:
            return
        for i, spec in enumerate(self.profile.interferers):
            nid = INTERFERER_ID_BASE + i
            self.channel.add_position(nid, spec.position)
            interferer = MarkovInterferer(
                self.engine,
                self.medium,
                nid,
                spec.power_dbm,
                self.rng.stream("interferer", i),
                off_mean_s=spec.off_mean_s,
                on_mean_s=spec.on_mean_s,
            )
            self.interferers.append(interferer)

    def _build_fault_injector(self) -> None:
        # Local imports: the faults package is optional machinery layered on
        # top of the simulator; fault-free runs never touch it.
        from repro.faults.injector import FaultInjector
        from repro.faults.presets import resolve_schedule

        assert self.config.faults is not None
        node_ids = self.topology.node_ids()
        schedule = resolve_schedule(
            self.config.faults,
            duration_s=self.config.duration_s,
            warmup_s=self.config.warmup_s,
            drain_s=self.config.drain_s,
            node_ids=node_ids,
            roots=self.roots,
            positions={nid: self.topology.positions[nid] for nid in node_ids},
            rng=self.rng,
        )
        self.fault_injector = FaultInjector(self, schedule)

    def _build_telemetry(self) -> None:
        # Local imports: telemetry is opt-in observability layered on top of
        # the simulator; untelemetered runs never touch the streaming code.
        from repro.obs.stream import RecordLog, TelemetrySampler

        config = self.config
        assert config.telemetry_period_s is not None
        if config.telemetry_path is not None:
            log = RecordLog(config.telemetry_path)
        else:
            log = RecordLog(limit=1024, keep="tail")
        self.telemetry = TelemetrySampler(
            self, log, config.telemetry_period_s, run_id=f"{config.protocol}-seed{config.seed}"
        )
        self.telemetry.install()

    def _boot_node(self, node: Node) -> None:
        if node.crashed:
            return  # crashed before its boot time: stays down until reboot
        if self.probe is not None:
            self.probe.boot(node.node_id)
        node.protocol.start()

    def _start_source(self, node: Node) -> None:
        if node.crashed or node.source is None:
            return
        node.source.start()

    def _schedule_boot(self) -> None:
        stop_at = self.config.duration_s - self.config.drain_s
        for node in self.nodes.values():
            self.engine.schedule_at(node.boot_time, self._boot_node, node)
            if node.source is not None:
                self.engine.schedule_at(node.boot_time, self._start_source, node)
                self.engine.schedule_at(stop_at, node.source.stop)
        for interferer in self.interferers:
            self.engine.schedule_at(0.0, interferer.start)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def attach(self, monitor: Monitor) -> None:
        """Subscribe ``monitor`` to every layer's events (DESIGN.md §6).

        The one attach point for tracing, invariant checking and
        telemetry: it points every layer's ``probe`` at the monitors
        attached so far, which then see events in attachment order.
        """
        self.monitors.append(monitor)
        monitor.attached(self)
        probe = monitor if len(self.monitors) == 1 else MonitorSet(self.monitors)
        self.probe = probe
        layers: List[Any] = [self.medium, self.sink]
        if self.fault_injector is not None:
            layers.append(self.fault_injector)
        for node in self.nodes.values():
            layers += node.layers()
        for layer in layers:
            layer.probe = probe

    # ------------------------------------------------------------------
    # Tree observation
    # ------------------------------------------------------------------
    def parent_map(self) -> Dict[int, Optional[int]]:
        return {nid: node.parent for nid, node in self.nodes.items()}

    def depth_map(self) -> Dict[int, Optional[int]]:
        """Hops from each node to the root following parent pointers.

        ``None`` marks nodes with no route or caught in a parent loop.
        """
        parents = self.parent_map()
        depths: Dict[int, Optional[int]] = {root: 0 for root in self.roots}
        for nid in parents:
            if nid in depths:
                continue
            path = []
            cursor: Optional[int] = nid
            while cursor is not None and cursor not in depths and cursor not in path:
                path.append(cursor)
                cursor = parents.get(cursor)
            base = depths.get(cursor) if cursor is not None else None
            if cursor is not None and base is not None:
                for i, hop in enumerate(reversed(path)):
                    depths[hop] = base + i + 1
            else:
                for hop in path:
                    depths[hop] = None
        return depths

    def _schedule_tree_sampling(self) -> None:
        t = self.config.warmup_s
        while t <= self.config.duration_s:
            self.engine.schedule_at(t, self._sample_tree)
            t += TREE_SAMPLE_PERIOD_S

    def _sample_tree(self) -> None:
        self._depth_samples.append(self.depth_map())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> CollectionResult:
        resources = None
        if self.telemetry is not None:
            from repro.obs.resources import ResourceProbe

            resources = ResourceProbe()
        try:
            self.engine.run_until(self.config.duration_s)
            if resources is not None:
                self.run_resources = resources.stop()
            if self.probe is not None:
                self.probe.run_end(self)
        except BaseException as exc:
            # Close the stream with the failure, so it cannot be read as a
            # run still in progress.
            if self.telemetry is not None:
                self.telemetry.run_end(self, error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            # A run that raises (an invariant violation, a timeout) must not
            # leave its stream file open in a long-lived worker.
            if self.telemetry is not None:
                self.telemetry.close()
        return compute_result(self)
