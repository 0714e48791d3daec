"""Trace-driven links: drive per-link PRR from a schedule instead of SINR.

The paper's testbed packet traces are not available, so this module offers
the closest laptop substitute: piecewise-constant PRR schedules per directed
link, either synthesized (bimodal links, ramps, square waves) or loaded from
CSV.  :class:`TraceMedium` implements the same interface the MAC expects
from :class:`~repro.sim.medium.RadioMedium`, minus contention — useful for
unit tests and controlled estimator experiments where the channel must
follow an exact script.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


from repro.link.frame import Frame
from repro.phy.lqi import DEFAULT_LQI_MODEL, LqiModel
from repro.phy.modulation import snr_for_prr
from repro.phy.white_bit import DEFAULT_WHITE_BIT, WhiteBitPolicy
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo
from repro.sim.rng import RngManager


class LinkTrace:
    """Piecewise-constant PRR over time for one directed link."""

    def __init__(self, segments: List[Tuple[float, float]]) -> None:
        """``segments`` is a list of (start_time, prr), sorted by time; the
        first segment should start at 0."""
        if not segments:
            raise ValueError("empty trace")
        self._times = [t for t, _ in segments]
        self._prrs = [p for _, p in segments]
        if self._times != sorted(self._times):
            raise ValueError("segments must be time-sorted")
        for p in self._prrs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"PRR out of range: {p}")

    @classmethod
    def constant(cls, prr: float) -> "LinkTrace":
        return cls([(0.0, prr)])

    @classmethod
    def square_wave(cls, high: float, low: float, period_s: float, duty: float, end_s: float) -> "LinkTrace":
        """Bimodal link alternating ``high`` (for ``duty``·period) and ``low``."""
        segments: List[Tuple[float, float]] = []
        t = 0.0
        while t < end_s:
            segments.append((t, high))
            segments.append((t + duty * period_s, low))
            t += period_s
        return cls(segments)

    @classmethod
    def from_csv(cls, path: str) -> "LinkTrace":
        """Load ``time,prr`` rows (header optional)."""
        segments: List[Tuple[float, float]] = []
        with open(path, newline="") as f:
            for row in csv.reader(f):
                if not row or row[0].strip().lower() in ("time", "t"):
                    continue
                segments.append((float(row[0]), float(row[1])))
        return cls(segments)

    def prr_at(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return self._prrs[0]
        return self._prrs[idx]


@dataclass
class _TraceTransmission:
    sender: int
    frame: Frame


class TraceMedium:
    """Contention-free medium whose links follow :class:`LinkTrace` schedules.

    Implements the subset of the :class:`~repro.sim.medium.RadioMedium`
    interface the MAC uses: ``attach``, ``finalize``, ``channel_clear``,
    ``is_transmitting`` and ``start_transmission``.
    """

    def __init__(
        self,
        engine: Engine,
        rng: RngManager,
        lqi_model: LqiModel = DEFAULT_LQI_MODEL,
        white_bit_policy: WhiteBitPolicy = DEFAULT_WHITE_BIT,
    ) -> None:
        self.engine = engine
        self._rng = rng
        self.lqi_model = lqi_model
        self.white_bit_policy = white_bit_policy
        self._participants: Dict[int, object] = {}
        self._links: Dict[Tuple[int, int], LinkTrace] = {}
        self._link_snr: Dict[Tuple[int, int], float] = {}
        self.transmissions = 0
        self.deliveries = 0

    # -- topology -------------------------------------------------------
    def set_link(self, src: int, dst: int, trace: LinkTrace, snr_db: Optional[float] = None) -> None:
        """Install a directed link.  ``snr_db`` optionally pins the SNR
        reported on receptions (otherwise a PRR-consistent proxy is used)."""
        self._links[(src, dst)] = trace
        if snr_db is not None:
            self._link_snr[(src, dst)] = snr_db

    def set_symmetric_link(self, a: int, b: int, trace: LinkTrace, snr_db: Optional[float] = None) -> None:
        self.set_link(a, b, trace, snr_db)
        self.set_link(b, a, trace, snr_db)

    def link_prr(self, src: int, dst: int, t: float) -> float:
        trace = self._links.get((src, dst))
        return trace.prr_at(t) if trace is not None else 0.0

    # -- medium interface -------------------------------------------------
    def attach(self, participant: Any, receiver: bool = True) -> None:
        self._participants[participant.node_id] = participant

    def finalize(self) -> None:  # interface parity with RadioMedium
        pass

    def channel_clear(self, node_id: int) -> bool:
        return True

    def is_transmitting(self, node_id: int) -> bool:
        return False

    def start_transmission(self, sender_id: int, frame: Frame) -> float:
        sender = self._participants[sender_id]
        duration = sender.radio.params.airtime(frame.length_bytes)
        self.transmissions += 1
        self.engine.schedule(duration, self._deliver, sender_id, frame)
        return duration

    def _deliver(self, sender_id: int, frame: Frame) -> None:
        now = self.engine.now
        for (src, dst), trace in self._links.items():
            if src != sender_id:
                continue
            receiver = self._participants.get(dst)
            if receiver is None:
                continue
            prr = trace.prr_at(now)
            stream = self._rng.stream("trace-rx", dst)
            if stream.random() >= prr:
                continue
            snr = self._link_snr.get((src, dst))
            if snr is None:
                snr = self._snr_proxy(prr)
            lqi = self.lqi_model.sample(snr, stream)
            info = RxInfo(
                timestamp=now,
                rssi_dbm=-60.0,
                snr_db=snr,
                lqi=lqi,
                white_bit=self.white_bit_policy.evaluate(snr, lqi),
            )
            self.deliveries += 1
            receiver.on_frame_received(frame, info)

    @staticmethod
    def _snr_proxy(prr: float) -> float:
        """An SNR consistent with the scheduled PRR.

        Real links operating at a given PRR usually have margin above the
        bare decoding threshold; without it, even perfect trace links would
        report borderline SNR/LQI and the white bit would never set.  The
        margin grows with PRR (up to ~12 dB for a perfect link, which puts
        LQI in its saturated ≥105 band).
        """
        clamped = min(max(prr, 0.01), 0.999)
        return snr_for_prr(clamped, 46) + 12.0 * prr * prr
