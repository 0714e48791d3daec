"""Work golden: exact work counters of the pinned kernel and medium scenarios.

Each scenario is fully pinned (topology seed, simulation seed, duration,
traffic), so its counters — events run, transmissions, deliveries,
collisions, kernel calls and accumulated results, candidate rows — are a
function of the code alone.  Pinning them exactly gives a strict,
host-independent gate: any change to the work the simulator does shows
up here, while wall-clock claims come from ``perfbench/`` only.

The scenarios are the ones no other golden or perfbench workload covers:
the medium under dense interference on both backends at 100 nodes, the
1000-node city on the fast backend, and the PRR,
channel, reception and campaign-queue kernels.  Full-stack collection
runs are pinned by the collection goldens next to this file.

Regenerate (only when an intentional behavior change is made) with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

import pytest

from repro.campaign.queue import Campaign
from repro.campaign.sweep import SweepSpec
from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel
from repro.phy.modulation import prr_fast
from repro.phy.noise import BurstParams, place_interferers
from repro.phy.radio import Radio
from repro.runner.cache import ResultCache
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager
from repro.topology.generators import Topology, city_grid, grid
from tests.golden.golden_utils import _canon

WORK_GOLDEN_PATH = Path(__file__).parent / "work_golden.json"

Counters = Dict[str, object]


class _Listener:
    """Minimal medium participant: a radio and no upper stack."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)

    def on_frame_received(self, frame, info) -> None:
        pass


def _medium_counters(medium: RadioMedium) -> Counters:
    return {
        "transmissions": medium.transmissions,
        "deliveries": medium.deliveries,
        "collisions": medium.collisions,
        "white_bits_set": medium.white_bits_set,
    }


# ----------------------------------------------------------------------
# Kernel scenarios
# ----------------------------------------------------------------------
def micro_prr() -> Counters:
    """PRR lookups across the SNR transition region, after a warm-up pass."""
    snrs = [-8.0 + 0.035 * i for i in range(972)]  # −8 … 26 dB
    lengths = (28, 44, 116)
    acc = 0.0
    # One pass warms the quantized-PRR cache, then 300 steady-state passes.
    for _ in range(301):
        for length in lengths:
            for snr in snrs:
                acc += prr_fast("oqpsk-dsss", snr, length)
    return {"calls": 300 * len(lengths) * len(snrs), "acc": round(acc, 6)}


def micro_channel() -> Counters:
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
    acc = 0.0
    for step in range(150):
        for a, b in pairs:
            acc += channel.gain_db(a, b, 0.9 * step)
    return {"calls": 150 * len(pairs), "acc": round(acc, 6)}


def micro_reception() -> Counters:
    """Broadcasts on a 5×5 grid, every third frame overlapping a second one,
    so the interference/collision path is exercised too."""
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
    for nid in topo.node_ids():
        medium.attach(_Listener(nid))
    medium.finalize()

    n = len(topo.node_ids())
    frames = 400

    def send_round(i: int) -> None:
        sender = i % n
        medium.start_transmission(sender, Frame(src=sender, dst=BROADCAST, length_bytes=36))
        if i % 3 == 0:
            other = (sender + 7) % n
            medium.start_transmission(other, Frame(src=other, dst=BROADCAST, length_bytes=36))
        if i + 1 < frames:
            engine.schedule(0.004, send_round, i + 1)

    engine.schedule(0.0, send_round, 0)
    engine.run()
    return _medium_counters(medium)


def micro_campaign() -> Counters:
    """A cold campaign over closed-form synthetic points, then its resume
    pass, where every point must come back as a cache hit."""
    spec = SweepSpec.from_json_dict(
        {
            "campaign": "bench",
            "kind": "synthetic",
            "mode": "grid",
            "axes": {"x0": [0.25 * i for i in range(6)], "x1": [0.5 * i for i in range(6)]},
            "objective": "objective",
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cold = Campaign(spec, state_root=Path(tmp) / "state", cache=cache)
        doc = cold.run()
        warm = Campaign(spec, state_root=Path(tmp) / "state", cache=cache)
        warm.run()
    return {
        "n_points": doc["n_points"],
        "cold_executed": cold.last_stats.executed,
        "warm_cache_hits": warm.last_stats.cache_hits,
        "best_digest": doc["best"]["digest"],
    }


# ----------------------------------------------------------------------
# Medium scenarios: counting listeners under Poisson broadcast traffic
# and Markov jammers, with no upper stack
# ----------------------------------------------------------------------
def _broadcast_load(
    topo: Topology,
    rng: RngManager,
    backend: str,
    jam_positions: Sequence[Tuple[float, float]],
    traffic_stream: str,
    rate_hz: float,
    duration_s: float,
) -> Tuple[Counters, RadioMedium]:
    engine = Engine()
    channel = ChannelModel(
        topo.positions,
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=1.5,
        temporal_tau_s=60.0,
        bimodal_fraction=0.3,
    )
    if backend == "fast":
        medium: RadioMedium = FastRadioMedium(engine, channel, rng)
    else:
        medium = RadioMedium(engine, channel, rng)
    for nid in topo.node_ids():
        medium.attach(_Listener(nid))
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

    traffic = rng.stream(traffic_stream)
    sent = [0]

    def make_sender(nid: int) -> Callable[[], None]:
        def send() -> None:
            medium.start_transmission(nid, Frame(src=nid, dst=BROADCAST, length_bytes=36))
            sent[0] += 1
            engine.schedule(traffic.expovariate(rate_hz), send)

        return send

    for nid in topo.node_ids():
        engine.schedule(traffic.expovariate(rate_hz), make_sender(nid))

    engine.run_until(duration_s)
    counters: Counters = {"events": engine.events_run, "data_tx": sent[0]}
    counters.update(_medium_counters(medium))
    return counters, medium


def _grid100(backend: str) -> Counters:
    """A 10×10 grid under 24 near-always-on jammers: every transmission
    pays candidate evaluation, fading and interference over ~70 receivers."""
    topo = grid(10, 10, spacing_m=12.0, rng=RngManager(7).stream("t"), jitter_m=1.0)
    jam_positions = [(ix * 27.0 + 6.0, iy * 27.0 + 6.0) for ix in range(5) for iy in range(5)]
    counters, _ = _broadcast_load(
        topo, RngManager(11), backend, jam_positions[:24], "grid100-traffic", 4.0, 8.0
    )
    return counters


def _city1000() -> Counters:
    """A 1000-node Manhattan street grid over 2 km × 2 km on the fast
    backend, with 16 street-corner jammers."""
    topo = city_grid(1000, blocks=10, block_m=200.0, rng=RngManager(13).stream("t"))
    jam_positions = [(ix * 500.0 + 100.0, iy * 500.0 + 100.0) for ix in range(4) for iy in range(4)]
    counters, medium = _broadcast_load(
        topo, RngManager(19), "fast", jam_positions, "city1000-traffic", 1.0, 2.0
    )
    # The fast medium's per-transmission work: each sender's spatial
    # neighborhood, where the exact backend scans every pair.
    counters["candidate_rows"] = sum(
        len(medium.candidate_receivers(nid)) for nid in topo.node_ids()
    )
    return counters


SCENARIOS: Dict[str, Callable[[], Counters]] = {
    "micro_prr": micro_prr,
    "micro_channel": micro_channel,
    "micro_reception": micro_reception,
    "micro_campaign": micro_campaign,
    "macro_grid100": lambda: _grid100("exact"),
    "macro_grid100_fast": lambda: _grid100("fast"),
    "macro_grid1000": _city1000,
}


@lru_cache(maxsize=None)
def _run(name: str) -> Counters:
    return _canon(SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_work_counters_match_golden(name):
    counters = _run(name)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = (
            json.loads(WORK_GOLDEN_PATH.read_text()) if WORK_GOLDEN_PATH.exists() else {}
        )
        golden[name] = counters
        WORK_GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    assert WORK_GOLDEN_PATH.exists(), (
        "work golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(WORK_GOLDEN_PATH.read_text())
    assert name in golden, f"no work golden pinned for {name!r}"
    assert counters == golden[name]


def test_grid100_backends_ran_identical_workload():
    # Engine-level offered load is seed-deterministic and backend-
    # independent; only the reception draws differ between exact and fast.
    exact, fast = _run("macro_grid100"), _run("macro_grid100_fast")
    for key in ("events", "data_tx", "transmissions"):
        assert exact[key] == fast[key]


def test_city_candidate_rows_are_local():
    # A spatial neighborhood per sender, not the whole deployment.
    rows = _run("macro_grid1000")["candidate_rows"]
    assert rows < 1000 * 999 / 10
