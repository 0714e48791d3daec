"""Unit tests for hardware variation and burst interferers."""

import math
import random

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel
from repro.phy.noise import (
    BurstParams,
    MarkovInterferer,
    WindowedInterferer,
    apply_hardware_variation,
)
from repro.phy.radio import Radio, RadioParams
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager


def test_hardware_variation_sets_offsets():
    radios = [Radio(node_id=i) for i in range(20)]
    apply_hardware_variation(radios, random.Random(1), tx_power_sigma_db=1.0)
    offsets = {r.tx_power_offset_db for r in radios}
    floors = {r.noise_floor_dbm for r in radios}
    assert len(offsets) > 1
    assert len(floors) > 1


def test_hardware_variation_centered_on_nominal():
    radios = [Radio(node_id=i) for i in range(500)]
    apply_hardware_variation(radios, random.Random(2), nominal_noise_floor_dbm=-98.0)
    mean_floor = sum(r.noise_floor_dbm for r in radios) / len(radios)
    assert mean_floor == pytest.approx(-98.0, abs=0.5)


def _medium_with_interferer_slot():
    engine = Engine()
    rng = RngManager(4)
    channel = ChannelModel({0: (0.0, 0.0)}, rng, temporal_sigma_db=0.0)
    channel.add_position(1000, (1.0, 0.0))
    medium = RadioMedium(engine, channel, rng)
    return engine, medium


def test_windowed_interferer_bursts_only_inside_windows():
    engine, medium = _medium_with_interferer_slot()
    source = WindowedInterferer(
        engine,
        medium,
        1000,
        -5.0,
        random.Random(1),
        burst=BurstParams(burst_min_s=0.001, burst_max_s=0.002, gap_mean_s=0.005),
        windows=[(10.0, 12.0)],
    )
    source.start()
    engine.run_until(9.9)
    assert source.bursts_sent == 0
    engine.run_until(12.5)
    assert source.bursts_sent > 10


def test_windowed_interferer_rejects_bad_window():
    bad_windows = [
        [(5.0, 5.0)],
        [(6.0, 5.0)],
        [(0.0, 4.0), (3.0, 8.0)],
        [(10.0, 20.0), (0.0, 15.0)],
    ]
    for windows in bad_windows:
        engine, medium = _medium_with_interferer_slot()
        with pytest.raises(ValueError):
            WindowedInterferer(engine, medium, 1000, -5.0, random.Random(1), windows=windows)


def test_interferer_rejects_bad_parameters():
    # Each used to hang (falling ON/OFF times), divide by zero in start(),
    # or schedule its first burst before t = 0.
    bad_means = [
        {"on_mean_s": -20.0, "off_mean_s": -5.0},
        {"on_mean_s": 0.0},
        {"off_mean_s": -5.0},
        {"on_mean_s": math.inf},
        {"off_mean_s": math.nan},
    ]
    for means in bad_means:
        engine, medium = _medium_with_interferer_slot()
        with pytest.raises(ValueError):
            MarkovInterferer(engine, medium, 1000, -5.0, random.Random(1), **means)
        assert medium.transmissions == 0
    bad_bursts = [
        {"gap_mean_s": 0.0},
        {"gap_mean_s": -1e-3},
        {"gap_mean_s": math.inf},
        {"burst_min_s": 5e-3, "burst_max_s": 1e-3},
        {"burst_min_s": -1e-3},
        {"burst_max_s": math.inf},
        {"burst_min_s": math.nan},
    ]
    for shape in bad_bursts:
        with pytest.raises(ValueError):
            BurstParams(**shape)


def test_windowed_interferer_accepts_touching_windows():
    engine, medium = _medium_with_interferer_slot()
    source = WindowedInterferer(
        engine, medium, 1000, -5.0, random.Random(1), windows=[(2.0, 3.0), (0.0, 2.0)]
    )
    assert source.windows == [(0.0, 2.0), (2.0, 3.0)]


def test_markov_interferer_eventually_bursts():
    engine, medium = _medium_with_interferer_slot()
    source = MarkovInterferer(
        engine,
        medium,
        1000,
        -5.0,
        random.Random(2),
        off_mean_s=5.0,
        on_mean_s=5.0,
        burst=BurstParams(burst_min_s=0.001, burst_max_s=0.002, gap_mean_s=0.01),
    )
    source.start()
    engine.run_until(120.0)
    assert source.bursts_sent > 0


def test_interferer_never_receives():
    engine, medium = _medium_with_interferer_slot()
    source = WindowedInterferer(
        engine, medium, 1000, -5.0, random.Random(1), windows=[(0.0, 1.0)]
    )
    with pytest.raises(AssertionError):
        source.on_frame_received(None, None)


def test_interferer_duty_cycle_statistics():
    engine, medium = _medium_with_interferer_slot()
    burst = BurstParams(burst_min_s=0.002, burst_max_s=0.002, gap_mean_s=0.008)
    source = WindowedInterferer(
        engine, medium, 1000, -5.0, random.Random(3), burst=burst, windows=[(0.0, 100.0)]
    )
    source.start()
    engine.run_until(100.0)
    # Bursts renew every 2 ms + Exp(8 ms): mean μ = 10 ms, sd σ = 8 ms.  By
    # the renewal CLT the count over t = 100 s is ≈ Normal(t/μ, t·σ²/μ³),
    # i.e. mean 10,000 and sd 80; allow ±4 sd.
    mean, sd = 100.0 / 0.010, math.sqrt(100.0 * 0.008**2 / 0.010**3)
    assert abs(source.bursts_sent - mean) <= 4 * sd


def test_markov_interferer_on_fraction():
    # Back-to-back 2 ms bursts (no gap to speak of): an ON period of length
    # L holds ceil(L / d) bursts, so bursts·d/T is the ON fraction plus half
    # a burst per period.  With Exp(0.2 s) ON and Exp(0.6 s) OFF periods
    # over T = 4000 s (5,000 cycles), the ON time's renewal-CLT sd is
    # sqrt(T/(a+b) · ((1-π)²a² + π²b²)) = 15 s, i.e. 0.0038 in π.
    on_mean, off_mean, d, horizon = 0.2, 0.6, 2e-3, 4000.0
    engine, medium = _medium_with_interferer_slot()
    source = MarkovInterferer(
        engine,
        medium,
        1000,
        -5.0,
        random.Random(7),
        off_mean_s=off_mean,
        on_mean_s=on_mean,
        burst=BurstParams(burst_min_s=d, burst_max_s=d, gap_mean_s=1e-9),
    )
    source.start()
    engine.run_until(horizon)
    pi_on = on_mean / (on_mean + off_mean)
    cycles = horizon / (on_mean + off_mean)
    rounding = cycles * d / 2 / horizon
    sd = math.sqrt(cycles * ((1 - pi_on) ** 2 * on_mean**2 + pi_on**2 * off_mean**2)) / horizon
    assert abs(source.bursts_sent * d / horizon - (pi_on + rounding)) <= 4 * sd


# ----------------------------------------------------------------------
# Draw-order oracle: the event-driven burst loop the lazy schedules replace
# ----------------------------------------------------------------------
class EventDrivenBursts:
    """One engine event per burst, drawing ``u, g`` at each: the oracle."""

    def __init__(self, engine, rng, burst=BurstParams(), params=RadioParams()):
        self.engine, self.rng, self.burst, self.params = engine, rng, burst, params
        self.bursts = []  # (start, end) in start order

    def _burst_loop(self, active_until):
        if self.engine.now >= active_until:
            return
        duration = self.rng.uniform(self.burst.burst_min_s, self.burst.burst_max_s)
        length_bytes = max(4, int(duration * self.params.bitrate_bps / 8))
        now = self.engine.now
        self.bursts.append((now, now + self.params.airtime(length_bytes)))
        gap = self.rng.expovariate(1.0 / self.burst.gap_mean_s)
        self.engine.schedule(duration + gap, self._burst_loop, active_until)

    def start_windowed(self, windows):
        for begin, end in sorted(windows):
            self.engine.schedule_at(begin, self._burst_loop, end)

    def start_markov(self, off_mean_s, on_mean_s):
        def activate():
            active_for = self.rng.expovariate(1.0 / on_mean_s)
            self._burst_loop(self.engine.now + active_for)
            next_off = self.rng.expovariate(1.0 / off_mean_s)
            self.engine.schedule(active_for + next_off, activate)

        self.engine.schedule(self.rng.expovariate(1.0 / off_mean_s), activate)


def _oracle_bursts(kind, seed, burst, kwargs, until=10.0):
    engine = Engine()
    oracle = EventDrivenBursts(engine, random.Random(seed), burst)
    if kind == "windowed":
        oracle.start_windowed(kwargs["windows"])
    else:
        oracle.start_markov(kwargs["off_mean_s"], kwargs["on_mean_s"])
    engine.run_until(until)
    return oracle.bursts


def _started_source(kind, seed, burst, kwargs, engine, medium):
    cls = WindowedInterferer if kind == "windowed" else MarkovInterferer
    source = cls(engine, medium, 1000, -5.0, random.Random(seed), burst=burst, **kwargs)
    source.start()
    return source


#: Gaps short enough that consecutive bursts often overlap on the air
#: (airtime adds the PHY overhead to the drawn duration).
OVERLAPPING = BurstParams(burst_min_s=0.5e-3, burst_max_s=4e-3, gap_mean_s=0.3e-3)

ORACLE_CASES = [
    ("windowed", seed, burst, {"windows": [(0.0, 3.0), (3.0, 4.5), (7.25, 10.0)]})
    for seed in (1, 2, 3)
    for burst in (BurstParams(), OVERLAPPING)
] + [
    ("markov", seed, burst, {"off_mean_s": 1.5, "on_mean_s": 1.0})
    for seed in (4, 5, 6)
    for burst in (BurstParams(), OVERLAPPING)
]


@pytest.mark.parametrize("kind,seed,burst,kwargs", ORACLE_CASES)
def test_lazy_schedule_matches_event_driven_loop(kind, seed, burst, kwargs):
    oracle = _oracle_bursts(kind, seed, burst, kwargs)
    assert oracle
    if burst is OVERLAPPING:
        assert any(b[0] < a[1] for a, b in zip(oracle, oracle[1:]))
    engine, medium = _medium_with_interferer_slot()
    source = _started_source(kind, seed, burst, kwargs, engine, medium)
    # Log every burst the medium pulls from the schedule.
    seen = [source.next_burst]

    def logged(schedule):
        for b in schedule:
            seen.append(b)
            yield b

    source.schedule = logged(source.schedule)
    # Cuts between bursts, exactly at a burst start, and at the run's end
    # (where the last window closes).
    for cut in sorted({0.0, 1.7, oracle[len(oracle) // 2][0], 6.0, 9.999, 10.0}):
        engine.run_until(cut)
        expected = [b for b in oracle if b[0] <= cut]
        assert source.bursts_sent == len(expected)
        assert seen[: len(expected)] == expected


class _Listener:
    def __init__(self, node_id):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)
        self.received = []

    def on_frame_received(self, frame, info):
        self.received.append(frame)


def _recording(medium_cls):
    class Recording(medium_cls):
        """Logs the bursts each evaluated frame's overlap scan returns."""

        def _overlapping(self, tx):
            out = super()._overlapping(tx)
            self.scans.append((tx, [(o.start, o.end) for o in out if o.frame is None]))
            return out

    return Recording


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
@pytest.mark.parametrize("kind,seed,burst,kwargs", ORACLE_CASES[::3])
def test_medium_sees_oracle_bursts_on_air(kind, seed, burst, kwargs, medium_cls):
    """Carrier sense and the overlap scan read the same bursts, in the same
    order, as one transmission per burst would have left on the air."""
    engine = Engine()
    rng = RngManager(4)
    channel = ChannelModel({0: (0.0, 0.0), 1: (2.0, 0.0)}, rng, temporal_sigma_db=0.0)
    channel.add_position(1000, (1.0, 0.0))
    medium = _recording(medium_cls)(engine, channel, rng)
    medium.scans = []
    for nid in (0, 1):
        medium.attach(_Listener(nid))
    _started_source(kind, seed, burst, kwargs, engine, medium)
    medium.finalize()
    oracle = _oracle_bursts(kind, seed, burst, kwargs)
    t = 0.013
    while t < 10.0:
        engine.run_until(t)
        medium.channel_clear(0)
        on_air = [(tx.start, tx.end) for tx in medium._active if tx.frame is None]
        assert on_air == [b for b in oracle if b[0] <= t < b[1]]
        medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=120))
        t += 0.0371
    engine.run_until(10.0)
    assert len(medium.scans) > 200
    hits = 0
    for tx, bursts in medium.scans:
        # As one transmission per burst would leave them: bursts still on
        # the air by start, then finished ones by end.
        on = [b for b in oracle if b[0] <= tx.end < b[1]]
        done = sorted((b for b in oracle if tx.start < b[1] <= tx.end), key=lambda b: b[1])
        assert bursts == on + done
        hits += bool(bursts)
    assert hits > 10
    assert medium.transmissions == len(medium.scans) + len(oracle)


def test_soak_always_on_source_keeps_lists_bounded():
    """Soak: an always-on source over 2,000 simulated seconds, carrier
    sense every 50 ms and a frame every second; the on-air lists and the
    event queue stay bounded."""
    engine = Engine()
    rng = RngManager(4)
    channel = ChannelModel({0: (0.0, 0.0), 1: (2.0, 0.0)}, rng, temporal_sigma_db=0.0)
    channel.add_position(1000, (1.0, 0.0))
    medium = RadioMedium(engine, channel, rng)
    for nid in (0, 1):
        medium.attach(_Listener(nid))
    source = WindowedInterferer(
        engine, medium, 1000, -5.0, random.Random(9), windows=[(0.0, 2000.0)]
    )
    source.start()
    medium.finalize()
    peaks = {"recent": 0, "active": 0, "pending": 0}

    def poll(k):
        medium.channel_clear(0)
        if k % 20 == 0:
            medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=120))
        peaks["recent"] = max(peaks["recent"], len(medium._recent))
        peaks["active"] = max(peaks["active"], len(medium._active))
        peaks["pending"] = max(peaks["pending"], engine.pending)
        engine.schedule(0.05, poll, k + 1)

    engine.schedule(0.0, poll, 0)
    engine.run_until(2000.0)
    assert source.bursts_sent > 150_000
    # Only bursts that overlap a frame are ever listed, and each frame end
    # prunes what aged past the horizon: a few entries, never the 25 or so
    # bursts a 0.25 s horizon spans.
    assert peaks["recent"] <= 8
    assert peaks["active"] <= 4
    assert peaks["pending"] <= 2


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_jam_bursts_reach_no_receiver(medium_cls):
    engine = Engine()
    rng = RngManager(4)
    channel = ChannelModel(
        {0: (0.0, 0.0), 1: (2.0, 0.0)}, rng, shadowing_sigma_db=0.0, temporal_sigma_db=0.0
    )
    channel.add_position(1000, (1.0, 0.0))
    medium = medium_cls(engine, channel, rng)
    nodes = [_Listener(0), _Listener(1)]
    for node in nodes:
        medium.attach(node)
    source = WindowedInterferer(engine, medium, 1000, 0.0, random.Random(1), windows=[(0.0, 5.0)])
    source.start()
    medium.finalize()
    busy = 0
    for k in range(500):
        engine.run_until(0.01 * k)
        busy += not medium.channel_clear(0)
    engine.run_until(10.0)
    assert busy > 50
    assert source.bursts_sent > 100
    assert medium.transmissions == source.bursts_sent
    assert medium.deliveries == 0
    assert all(node.received == [] for node in nodes)
