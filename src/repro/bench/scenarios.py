"""Pinned benchmark scenarios.

Each scenario is a function ``(quick: bool) -> BenchResult``.  Everything
that affects simulated behavior — topology seed, simulation seed,
durations, traffic — is pinned here, so the ``check`` counters of two runs
of the same code are identical and throughput deltas are attributable to
the code, not the workload.  ``quick=True`` shrinks durations for CI smoke
runs (same code paths, smaller sample).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List

from repro.bench.core import BenchResult
from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel
from repro.phy.modulation import prr_fast
from repro.phy.noise import BurstParams, place_interferers
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import city_grid, grid
from repro.topology.testbeds import PROFILES, scaled_profile

# Import-time decorator registry: the only runtime write is @scenario at
# module import, and scenario functions are stateless.
SCENARIOS: Dict[str, Callable[[bool], BenchResult]] = {}  # lint: disable=worker-state

#: Extra SimConfig overrides merged into every macro scenario that builds a
#: :class:`CollectionNetwork` — the bench CLI routes ``--live-telemetry``
#: through here.  Empty by default, so pinned scenarios stay pinned; any
#: override that adds engine events (telemetry does) shifts the ``check``
#: counters, which ``--compare`` flags as a behavior change by design.
# Process-wide by design: the bench CLI sets it once before any scenario
# runs and never between runs, and bench workers re-set it per process.
EXTRA_SIM_OVERRIDES: Dict[str, object] = {}  # lint: disable=worker-state


def _sim_config(**kwargs: object) -> SimConfig:
    merged = dict(kwargs)
    merged.update(EXTRA_SIM_OVERRIDES)
    return SimConfig(**merged)  # type: ignore[arg-type]


def scenario(fn: Callable[[bool], BenchResult]) -> Callable[[bool], BenchResult]:
    SCENARIOS[fn.__name__] = fn
    return fn


def run_scenario(name: str, quick: bool = False) -> BenchResult:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}") from None
    from repro.obs.resources import ResourceProbe

    probe = ResourceProbe()
    result = fn(quick)
    result.resources = probe.stop()
    return result


# ----------------------------------------------------------------------
# Micro scenarios
# ----------------------------------------------------------------------
@scenario
def micro_prr(quick: bool = False) -> BenchResult:
    """PRR lookups across the SNR transition region (cache steady state)."""
    snrs = [-8.0 + 0.035 * i for i in range(972)]  # −8 … 26 dB
    lengths = (28, 44, 116)
    # Warm the quantized-PRR cache so the measurement sees steady state.
    acc = 0.0
    for length in lengths:
        for snr in snrs:
            acc += prr_fast("oqpsk-dsss", snr, length)
    iters = 300 if quick else 1200
    calls = 0
    t0 = perf_counter()
    for _ in range(iters):
        for length in lengths:
            for snr in snrs:
                acc += prr_fast("oqpsk-dsss", snr, length)
                calls += 1
    wall = perf_counter() - t0
    return BenchResult(
        name="micro_prr",
        kind="micro",
        metrics={"calls_per_s": calls / wall if wall > 0 else 0.0},
        check={"calls": calls, "acc": round(acc, 6)},
        wall_s=wall,
    )


@scenario
def micro_channel(quick: bool = False) -> BenchResult:
    """Instantaneous channel-gain queries with OU fading + bimodal fades."""
    rng = RngManager(17)
    positions = {
        nid: (13.0 * (nid % 4) + 0.25 * nid, 11.0 * (nid // 4) + 0.125 * nid)
        for nid in range(16)
    }
    channel = ChannelModel(
        positions,
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=1.5,
        temporal_tau_s=60.0,
        bimodal_fraction=0.3,
    )
    pairs = [(a, b) for a in positions for b in positions if a != b]
    steps = 150 if quick else 600
    calls = 0
    acc = 0.0
    t0 = perf_counter()
    for step in range(steps):
        t = 0.9 * step
        for a, b in pairs:
            acc += channel.gain_db(a, b, t)
            calls += 1
    wall = perf_counter() - t0
    return BenchResult(
        name="micro_channel",
        kind="micro",
        metrics={"calls_per_s": calls / wall if wall > 0 else 0.0},
        check={"calls": calls, "acc": round(acc, 6)},
        wall_s=wall,
    )


class _CountingListener:
    """Minimal medium participant for the reception micro-benchmark."""

    __slots__ = ("node_id", "radio", "received")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)
        self.received = 0

    def on_frame_received(self, frame, info) -> None:
        self.received += 1


@scenario
def micro_reception(quick: bool = False) -> BenchResult:
    """Medium reception evaluation: broadcasts on a 5×5 grid, with overlap.

    Every frame is evaluated against ~24 candidate receivers; every third
    frame overlaps a second transmission so the interference/collision
    path is exercised too.
    """
    engine = Engine()
    rng = RngManager(23)
    topo = grid(5, 5, spacing_m=6.0, rng=rng.stream("topo"), jitter_m=0.5)
    channel = ChannelModel(
        topo.positions,
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=1.5,
        bimodal_fraction=0.2,
    )
    medium = RadioMedium(engine, channel, rng)
    listeners: List[_CountingListener] = []
    for nid in topo.node_ids():
        listener = _CountingListener(nid)
        medium.attach(listener)
        listeners.append(listener)
    medium.finalize()

    n = len(listeners)
    frames = 400 if quick else 1600
    candidates = sum(len(medium.candidate_receivers(s)) for s in range(n)) / n

    def send_round(i: int) -> None:
        sender = i % n
        medium.start_transmission(sender, Frame(src=sender, dst=BROADCAST, length_bytes=36))
        if i % 3 == 0:
            other = (sender + 7) % n
            medium.start_transmission(other, Frame(src=other, dst=BROADCAST, length_bytes=36))
        if i + 1 < frames:
            engine.schedule(0.004, send_round, i + 1)

    engine.schedule(0.0, send_round, 0)
    t0 = perf_counter()
    engine.run()
    wall = perf_counter() - t0
    evaluations = medium.transmissions * candidates
    return BenchResult(
        name="micro_reception",
        kind="micro",
        metrics={
            "receptions_per_s": evaluations / wall if wall > 0 else 0.0,
            "frames_per_s": medium.transmissions / wall if wall > 0 else 0.0,
        },
        check={
            "transmissions": medium.transmissions,
            "deliveries": medium.deliveries,
            "collisions": medium.collisions,
            "white_bits_set": medium.white_bits_set,
        },
        wall_s=wall,
    )


# ----------------------------------------------------------------------
# Macro scenarios
# ----------------------------------------------------------------------
def _macro_result(name: str, net: CollectionNetwork, duration_s: float) -> BenchResult:
    t0 = perf_counter()
    result = net.run()
    wall = perf_counter() - t0
    profiler = net.engine.profiler
    latency = profiler.latency_percentiles() if profiler is not None else {}
    return BenchResult(
        name=name,
        kind="macro",
        metrics={
            "events_per_s": result.events_run / wall if wall > 0 else 0.0,
            "sim_s_per_wall_s": duration_s / wall if wall > 0 else 0.0,
        },
        latency_s=latency,
        check={
            "events": result.events_run,
            "offered": result.offered,
            "unique_delivered": result.unique_delivered,
            "total_data_tx": result.total_data_tx,
            "beacons_sent": result.beacons_sent,
            "medium_deliveries": net.medium.deliveries,
            "medium_collisions": net.medium.collisions,
        },
        wall_s=wall,
    )


@scenario
def macro_grid25(quick: bool = False) -> BenchResult:
    """Full 4B collection run on a 25-node grid (the headline hot path)."""
    duration = 150.0 if quick else 600.0
    topo = grid(5, 5, spacing_m=6.0, rng=RngManager(7).stream("t"), jitter_m=0.5)
    config = _sim_config(
        protocol="4b",
        seed=3,
        duration_s=duration,
        warmup_s=60.0,
        profile_events=True,
    )
    net = CollectionNetwork(topo, config)
    return _macro_result("macro_grid25", net, duration)


@scenario
def macro_testbed(quick: bool = False) -> BenchResult:
    """Testbed-sized headline slice: scaled Mirage profile, interferers on."""
    duration = 120.0 if quick else 240.0
    profile = scaled_profile(PROFILES["mirage"], 35)
    topo = profile.topology(11)
    config = _sim_config(
        protocol="4b",
        seed=2,
        duration_s=duration,
        warmup_s=60.0,
        profile_events=True,
    )
    net = CollectionNetwork(topo, config, profile=profile)
    return _macro_result("macro_testbed", net, duration)


@scenario
def macro_chaos(quick: bool = False) -> BenchResult:
    """4B collection under the ``reboot_storm`` fault preset with the
    invariant checker on: the robustness layer's end-to-end cost."""
    duration = 150.0 if quick else 480.0
    topo = grid(5, 5, spacing_m=6.0, rng=RngManager(7).stream("t"), jitter_m=0.5)
    config = _sim_config(
        protocol="4b",
        seed=3,
        duration_s=duration,
        warmup_s=60.0,
        faults="reboot_storm",
        check_invariants=True,
        profile_events=True,
    )
    net = CollectionNetwork(topo, config)
    res = _macro_result("macro_chaos", net, duration)
    injector = net.fault_injector
    assert injector is not None
    res.check["node_crashes"] = injector.stats.node_crashes
    res.check["node_reboots"] = injector.stats.node_reboots
    return res


def _grid100_medium_result(name: str, backend: str, quick: bool) -> BenchResult:
    """Medium-centric 100-node scenario: the reception kernel under load.

    Full-stack macro runs are dominated by MAC/estimator/routing delivery
    processing, which caps any medium speedup well below its kernel-level
    value (Amdahl).  This scenario isolates the medium the same way
    ``micro_reception`` does — trivial counting listeners, no upper stack —
    but at macro scale: a 10×10 grid with dense Markov interferer traffic,
    so every transmission pays candidate evaluation, fading advance and
    interference accumulation over ~70 in-range receivers.  This is the
    workload class the fast backend's ≥10× events/s acceptance gate is
    measured on (PR 6).
    """
    duration = 8.0 if quick else 30.0
    engine = Engine()
    rng = RngManager(11)
    topo = grid(10, 10, spacing_m=12.0, rng=RngManager(7).stream("t"), jitter_m=1.0)
    channel = ChannelModel(
        topo.positions,
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=1.5,
        temporal_tau_s=60.0,
        bimodal_fraction=0.3,
    )
    if backend == "fast":
        from repro.sim.medium_fast import FastRadioMedium

        medium: RadioMedium = FastRadioMedium(engine, channel, rng)
    else:
        medium = RadioMedium(engine, channel, rng)
    listeners: List[_CountingListener] = []
    for nid in topo.node_ids():
        listener = _CountingListener(nid)
        medium.attach(listener)
        listeners.append(listener)

    # 24 near-always-on jammers over the grid footprint keep several
    # transmissions in flight at once, so the interference-accumulation
    # path (the exact backend's O(candidates × overlaps) term) dominates.
    jam_positions = [
        (ix * 27.0 + 6.0, iy * 27.0 + 6.0) for ix in range(5) for iy in range(5)
    ][:24]
    jammers = place_interferers(
        engine,
        medium,
        jam_positions,
        -5.0,
        rng.stream,
        kind="markov",
        off_mean_s=5.0,
        on_mean_s=120.0,
        burst=BurstParams(burst_min_s=20e-3, burst_max_s=50e-3, gap_mean_s=10e-3),
    )
    for jam in jammers:
        jam.start()
    medium.finalize()

    traffic = rng.stream("grid100-traffic")
    sent = [0]

    def make_sender(node: _CountingListener) -> Callable[[], None]:
        def send() -> None:
            frame = Frame(src=node.node_id, dst=BROADCAST, length_bytes=36)
            medium.start_transmission(node.node_id, frame)
            sent[0] += 1
            engine.schedule(traffic.expovariate(4.0), send)

        return send

    for node in listeners:
        engine.schedule(traffic.expovariate(4.0), make_sender(node))

    t0 = perf_counter()
    engine.run_until(duration)
    wall = perf_counter() - t0
    return BenchResult(
        name=name,
        kind="macro",
        metrics={
            "events_per_s": engine.events_run / wall if wall > 0 else 0.0,
            "frames_per_s": sent[0] / wall if wall > 0 else 0.0,
        },
        check={
            "events": engine.events_run,
            "data_tx": sent[0],
            "transmissions": medium.transmissions,
            "deliveries": medium.deliveries,
            "collisions": medium.collisions,
            "white_bits_set": medium.white_bits_set,
        },
        wall_s=wall,
    )


@scenario
def macro_grid100(quick: bool = False) -> BenchResult:
    """100-node medium-centric run on the exact scalar backend."""
    return _grid100_medium_result("macro_grid100", "exact", quick)


@scenario
def macro_grid100_fast(quick: bool = False) -> BenchResult:
    """The same 100-node workload on the vectorized ``fast`` backend."""
    return _grid100_medium_result("macro_grid100_fast", "fast", quick)


@scenario
def macro_grid25_fast(quick: bool = False) -> BenchResult:
    """Full 4B collection on the fast backend (macro_grid25's twin).

    Full-stack, so the speedup is Amdahl-capped by upper-stack processing;
    this pins the fast backend's end-to-end behavior and guards against
    regressions in its integration with the runner stack.
    """
    duration = 150.0 if quick else 600.0
    topo = grid(5, 5, spacing_m=6.0, rng=RngManager(7).stream("t"), jitter_m=0.5)
    config = _sim_config(
        protocol="4b",
        seed=3,
        duration_s=duration,
        warmup_s=60.0,
        profile_events=True,
        medium="fast",
    )
    net = CollectionNetwork(topo, config)
    return _macro_result("macro_grid25_fast", net, duration)


def _city1000_medium_result(
    name: str, backend: str, quick: bool, mobility: bool = False
) -> BenchResult:
    """City-scale medium-centric scenario: 1000 nodes on a Manhattan grid.

    The ROADMAP's city-scale target measured at the medium layer: a
    ``city_grid`` street deployment over a 2 km × 2 km footprint (~40
    nodes within link-budget reach of each sender), Poisson broadcast
    traffic from every node, and 16 street-corner jammers.  The fast
    backend's spatial culling is what makes this size tractable at all —
    the exact backend enumerates all 10⁶ pairs during finalize — and the
    ``mobility=True`` variant layers continuous pedestrian waypoint
    motion on top (every non-sink node walking, ~1000 position updates
    per simulated second), so every transmission hits the
    incremental-maintenance path (epoch-stale batch rebuilds, pair-slot
    churn; DESIGN.md §11) instead of the frozen static structure.
    Pedestrian speeds are the representative mobile case for the paper's
    sensor-network domain; the vehicular preset sweeps entire
    neighborhoods per second, and the resulting first-contact pair churn
    (one seeded shadowing stream per brand-new pair, bit-compat-locked)
    dominates the wall clock rather than the incremental machinery this
    scenario gates.  The wall clock is measured around
    ``engine.run_until`` only: setup (the exact backend's O(N²)
    finalize) is real but amortizes over run length, while the gates
    target steady-state event throughput.
    """
    duration = 2.0 if quick else 6.0
    engine = Engine()
    rng = RngManager(19)
    topo = city_grid(1000, blocks=10, block_m=200.0, rng=RngManager(13).stream("t"))
    channel = ChannelModel(
        topo.positions,
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=1.5,
        temporal_tau_s=60.0,
        bimodal_fraction=0.3,
    )
    if backend == "fast":
        from repro.sim.medium_fast import FastRadioMedium

        medium: RadioMedium = FastRadioMedium(engine, channel, rng)
    else:
        medium = RadioMedium(engine, channel, rng)
    listeners: List[_CountingListener] = []
    for nid in topo.node_ids():
        listener = _CountingListener(nid)
        medium.attach(listener)
        listeners.append(listener)

    # 16 street-corner jammers spread over the 2 km footprint.
    jam_positions = [
        (ix * 500.0 + 100.0, iy * 500.0 + 100.0) for ix in range(4) for iy in range(4)
    ]
    jammers = place_interferers(
        engine,
        medium,
        jam_positions,
        -5.0,
        rng.stream,
        kind="markov",
        off_mean_s=5.0,
        on_mean_s=120.0,
        burst=BurstParams(burst_min_s=20e-3, burst_max_s=50e-3, gap_mean_s=10e-3),
    )
    for jam in jammers:
        jam.start()
    medium.finalize()

    driver = None
    if mobility:
        from dataclasses import replace

        from repro.sim.mobility import MOBILITY_PRESETS, WaypointMobility

        # Pedestrian speeds with a 2 s update period: walkers cover 1–3 m
        # between ticks — far below any gain-relevant distance scale at a
        # ~229 m link-budget radius — so the coarser period changes no
        # physics while halving position-update overhead.
        driver = WaypointMobility(
            engine=engine,
            medium=medium,
            rng=rng,
            node_ids=topo.node_ids(),
            roots=(topo.sink,),
            config=replace(MOBILITY_PRESETS["pedestrian"], update_period_s=2.0),
            duration_s=duration,
        )
        driver.start()

    traffic = rng.stream("city1000-traffic")
    sent = [0]

    def make_sender(node: _CountingListener) -> Callable[[], None]:
        def send() -> None:
            frame = Frame(src=node.node_id, dst=BROADCAST, length_bytes=36)
            medium.start_transmission(node.node_id, frame)
            sent[0] += 1
            engine.schedule(traffic.expovariate(1.0), send)

        return send

    for node in listeners:
        engine.schedule(traffic.expovariate(1.0), make_sender(node))

    t0 = perf_counter()
    engine.run_until(duration)
    wall = perf_counter() - t0
    result = BenchResult(
        name=name,
        kind="macro",
        metrics={
            "events_per_s": engine.events_run / wall if wall > 0 else 0.0,
            "frames_per_s": sent[0] / wall if wall > 0 else 0.0,
        },
        check={
            "events": engine.events_run,
            "data_tx": sent[0],
            "transmissions": medium.transmissions,
            "deliveries": medium.deliveries,
            "collisions": medium.collisions,
            "white_bits_set": medium.white_bits_set,
        },
        wall_s=wall,
    )
    if driver is not None:
        result.check["position_updates"] = driver.position_updates
        result.check["waypoints_drawn"] = driver.waypoints_drawn
        result.metrics["position_updates_per_s"] = (
            driver.position_updates / wall if wall > 0 else 0.0
        )
    return result


@scenario
def macro_grid1000(quick: bool = False) -> BenchResult:
    """1000-node static city grid on the fast backend."""
    return _city1000_medium_result("macro_grid1000", "fast", quick)


@scenario
def macro_grid1000_exact(quick: bool = False) -> BenchResult:
    """The same 1000-node workload on the exact scalar backend (the
    denominator of the city-scale ≥5× speedup gate)."""
    return _city1000_medium_result("macro_grid1000_exact", "exact", quick)


@scenario
def macro_grid1000_mobile(quick: bool = False) -> BenchResult:
    """1000 nodes with continuous pedestrian waypoint motion (fast
    backend): the incremental-maintenance path under full churn."""
    return _city1000_medium_result("macro_grid1000_mobile", "fast", quick, mobility=True)


@scenario
def micro_campaign(quick: bool = False) -> BenchResult:
    """Campaign-queue throughput over closed-form synthetic points.

    Measures the orchestration overhead per point — spec enumeration,
    canonical digesting, cache round-trips, manifest checkpoints — with a
    simulator that costs nothing (``kind: "synthetic"``), twice: a *cold*
    pass that executes every point, then a *resume* pass over the same
    spec where every point comes back as a cache hit.  The warm rate is
    the queue's exactly-once bookkeeping cost, which bounds how fast any
    resumed million-run campaign can skip its completed prefix.
    """
    import tempfile
    from pathlib import Path

    from repro.campaign.queue import Campaign
    from repro.campaign.sweep import SweepSpec
    from repro.runner.cache import ResultCache

    side = 6 if quick else 14
    spec = SweepSpec.from_json_dict(
        {
            "campaign": "bench",
            "kind": "synthetic",
            "mode": "grid",
            "axes": {
                "x0": [0.25 * i for i in range(side)],
                "x1": [0.5 * i for i in range(side)],
            },
            "objective": "objective",
        }
    )
    n_points = side * side
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cold_campaign = Campaign(spec, state_root=Path(tmp) / "state", cache=cache)
        t0 = perf_counter()
        doc = cold_campaign.run()
        cold_wall = perf_counter() - t0
        warm_campaign = Campaign(spec, state_root=Path(tmp) / "state", cache=cache)
        t1 = perf_counter()
        warm_campaign.run()
        warm_wall = perf_counter() - t1
    return BenchResult(
        name="micro_campaign",
        kind="micro",
        metrics={
            "cold_points_per_s": n_points / cold_wall if cold_wall > 0 else 0.0,
            "warm_points_per_s": n_points / warm_wall if warm_wall > 0 else 0.0,
        },
        check={
            "n_points": doc["n_points"],
            "cold_executed": cold_campaign.last_stats.executed,
            "warm_cache_hits": warm_campaign.last_stats.cache_hits,
            "best_digest": doc["best"]["digest"],
        },
        wall_s=cold_wall + warm_wall,
    )


MICRO = tuple(n for n, fn in SCENARIOS.items() if n.startswith("micro_"))
MACRO = tuple(n for n, fn in SCENARIOS.items() if n.startswith("macro_"))
