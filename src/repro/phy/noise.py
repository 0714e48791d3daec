"""Noise environment: hardware variation and external burst interference.

Two phenomena the paper leans on live here:

* **Hardware variation** — per-mote transmit-power and noise-floor offsets,
  which make links asymmetric (Section 1 cites Zuniga & Krishnamachari).
* **Burst interferers** — external 2.4 GHz transmitters (802.11-style) that
  destroy overlapping packets wholesale.  Because destroyed packets are
  never received, they leave no LQI sample; the surviving packets still
  report a clean channel.  This is the exact failure mode of Figure 3
  (PRR drops from 0.9 to 0.6 while received-packet LQI stays high).
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.link.frame import Frame
from repro.phy.radio import Radio, RadioParams
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo
from repro.sim.medium import NO_BURST, RadioMedium

#: Interferer node ids live far above real node ids.
INTERFERER_ID_BASE = 100_000


def apply_hardware_variation(
    radios: Iterable[Radio],
    rng: Random,
    tx_power_sigma_db: float = 1.0,
    noise_floor_sigma_db: float = 1.5,
    nominal_noise_floor_dbm: float = -98.0,
) -> None:
    """Draw per-node transmit-power and noise-floor offsets."""
    for radio in radios:
        radio.tx_power_offset_db = rng.gauss(0.0, tx_power_sigma_db)
        radio.noise_floor_dbm = nominal_noise_floor_dbm + rng.gauss(0.0, noise_floor_sigma_db)


@dataclass(frozen=True)
class BurstParams:
    """Shape of an interferer's traffic while active."""

    #: Jam burst airtime bounds (uniform), seconds.  802.11 frames at 2.4 GHz
    #: occupy the channel for hundreds of µs to a few ms.
    burst_min_s: float = 0.5e-3
    burst_max_s: float = 4e-3
    #: Mean gap between bursts while active (exponential), seconds.
    gap_mean_s: float = 8e-3

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.burst_min_s, self.burst_max_s, self.gap_mean_s))):
            raise ValueError(f"burst parameters must be finite: {self}")
        if not 0.0 <= self.burst_min_s <= self.burst_max_s:
            raise ValueError(f"need 0 <= burst_min_s <= burst_max_s: {self}")
        if self.gap_mean_s <= 0.0:
            raise ValueError(f"gap_mean_s must be positive: {self}")


class _InterfererBase:
    """Common burst machinery.  Subclasses decide *when* the source is active.

    The interferer is a transmit-only participant of the medium: its bursts
    raise the interference floor at nearby receivers for their duration,
    corrupting overlapping packets via the SINR computation.  Nobody decodes
    a burst, so the source is a *lazy schedule* rather than a sender: it
    draws each burst's ``(start, end)`` from its private stream only when
    the medium reads the air (carrier sense, the overlap scan at a frame's
    end, the ``transmissions`` counter) and advances its sources to
    ``engine.now``.  A burst costs no engine event, frame or transmission
    call; the subclasses' schedules keep the draw order and float arithmetic
    of an event-driven burst loop, so the medium sees the same bursts.

    Each schedule is one generator frame per burst: the draws are the
    bodies of ``Random.uniform`` (``lo + (hi − lo)·u``) and
    ``Random.expovariate`` (``−log(1 − u)/rate``) written out, and the
    burst's on-air end is :meth:`RadioParams.airtime` written out, so every
    float matches the calls they replace.
    """

    def __init__(
        self,
        engine: Engine,
        medium: RadioMedium,
        node_id: int,
        power_dbm: float,
        rng: Random,
        burst: BurstParams = BurstParams(),
        params: Optional[RadioParams] = None,
    ) -> None:
        self.engine = engine
        self.medium = medium
        self.node_id = node_id
        self.radio = Radio(node_id=node_id, params=params or RadioParams(), tx_power_dbm=power_dbm)
        self.rng = rng
        self.burst = burst
        #: The next burst not yet on the air, and the ones after it; the
        #: medium reads and advances both (the :class:`BurstSource` protocol).
        self.next_burst = NO_BURST
        self.schedule: Iterator[Tuple[float, float]] = iter(())
        #: Bursts whose start the medium has passed (see :attr:`bursts_sent`).
        self.started_bursts = 0
        medium.add_interferer(self)

    # Transmit-only participant: never receives.
    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:  # pragma: no cover
        raise AssertionError("interferers do not receive")

    @property
    def bursts_sent(self) -> int:
        """Bursts started at or before ``engine.now``."""
        self.medium.advance_interferers()
        return self.started_bursts

    def _begin(self, schedule: Iterator[Tuple[float, float]]) -> None:
        """Hand ``schedule`` to the medium, which pulls it lazily."""
        self.schedule = schedule
        self.next_burst = next(schedule, NO_BURST)
        self.medium.interferer_started(self)

    def _burst_shape(self) -> Tuple[float, float, float, float, int]:
        """``(lo, hi − lo, gap rate, bitrate, PHY overhead bytes)`` of a burst."""
        burst = self.burst
        params = self.radio.params
        lo, hi = burst.burst_min_s, burst.burst_max_s
        return lo, hi - lo, 1.0 / burst.gap_mean_s, params.bitrate_bps, params.phy_overhead_bytes


class WindowedInterferer(_InterfererBase):
    """Interferer active during explicit ``(start, end)`` windows.

    Used by the Figure 3 experiment to place a burst-loss episode at a known
    point in the run.  Windows must be non-empty and must not overlap (two
    overlapping windows would run two burst loops at once); touching windows
    are fine.
    """

    def __init__(self, *args: Any, windows: Sequence[Tuple[float, float]], **kwargs: Any) -> None:
        self.windows = sorted(windows)
        for begin, end in self.windows:
            if end <= begin:
                raise ValueError(f"bad window: ({begin}, {end})")
        for earlier, later in zip(self.windows, self.windows[1:]):
            if later[0] < earlier[1]:
                raise ValueError(f"overlapping windows: {earlier} and {later}")
        super().__init__(*args, **kwargs)

    def start(self) -> None:
        if self.windows and self.windows[0][0] < self.engine.now:
            raise ValueError(f"window opens in the past: {self.windows[0][0]} < {self.engine.now}")
        self._begin(self._bursts())

    def _bursts(self) -> Iterator[Tuple[float, float]]:
        """Bursts from each window's start while ``t < end``: duration, then gap."""
        random = self.rng.random
        log = math.log
        lo, span, rate, bitrate, overhead = self._burst_shape()
        for t, active_until in self.windows:
            while t < active_until:
                duration = lo + span * random()
                gap = -log(1.0 - random()) / rate
                n = int(duration * bitrate / 8)
                yield t, t + ((n if n > 4 else 4) + overhead) * 8.0 / bitrate
                t = t + (duration + gap)


class MarkovInterferer(_InterfererBase):
    """Interferer that alternates exponential OFF/ON periods (Gilbert–Elliott)."""

    def __init__(self, *args: Any, off_mean_s: float = 120.0, on_mean_s: float = 20.0, **kwargs: Any) -> None:
        for name, mean in (("off_mean_s", off_mean_s), ("on_mean_s", on_mean_s)):
            if not (math.isfinite(mean) and mean > 0.0):
                raise ValueError(f"{name} must be finite and positive: {mean}")
        super().__init__(*args, **kwargs)
        self.off_mean_s = off_mean_s
        self.on_mean_s = on_mean_s

    def start(self) -> None:
        self._begin(self._periods(self.engine.now + self.rng.expovariate(1.0 / self.off_mean_s)))

    def _periods(self, t: float) -> Iterator[Tuple[float, float]]:
        """Bursts of the ON periods from ``t`` on.  A period draws its
        length, then its first burst's duration and gap (if it has one),
        then the OFF time that follows it, then the rest of its bursts."""
        random = self.rng.random
        log = math.log
        on_rate = 1.0 / self.on_mean_s
        off_rate = 1.0 / self.off_mean_s
        lo, span, rate, bitrate, overhead = self._burst_shape()
        while True:
            active_for = -log(1.0 - random()) / on_rate
            active_until = t + active_for
            b = t
            if b < active_until:
                duration = lo + span * random()
                gap = -log(1.0 - random()) / rate
                next_off = -log(1.0 - random()) / off_rate
                while True:
                    n = int(duration * bitrate / 8)
                    yield b, b + ((n if n > 4 else 4) + overhead) * 8.0 / bitrate
                    b = b + (duration + gap)
                    if not b < active_until:
                        break
                    duration = lo + span * random()
                    gap = -log(1.0 - random()) / rate
            else:
                next_off = -log(1.0 - random()) / off_rate
            t = t + (active_for + next_off)


def place_interferers(
    engine: Engine,
    medium: RadioMedium,
    positions: List[Tuple[float, float]],
    power_dbm: float,
    rng_factory: Callable[..., Random],
    kind: str = "markov",
    **kwargs: Any,
) -> List[_InterfererBase]:
    """Create and register interferers at the given positions."""
    out: List[_InterfererBase] = []
    for i, pos in enumerate(positions):
        nid = INTERFERER_ID_BASE + i
        medium.channel.add_position(nid, pos)
        rng = rng_factory("interferer", i)
        if kind == "markov":
            source: _InterfererBase = MarkovInterferer(engine, medium, nid, power_dbm, rng, **kwargs)
        elif kind == "windowed":
            source = WindowedInterferer(engine, medium, nid, power_dbm, rng, **kwargs)
        else:
            raise ValueError(f"unknown interferer kind: {kind}")
        out.append(source)
    return out
