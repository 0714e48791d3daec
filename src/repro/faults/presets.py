"""Named fault-scenario generators.

A preset is a function from run shape (duration, node set, positions) and a
dedicated RNG stream to a concrete :class:`~repro.faults.schedule.FaultSchedule`.
All draws come from ``rng.stream("faults", "preset", <name>)``, so the same
master seed always yields the same schedule and the draws never perturb any
other stream in the run.

``resolve_schedule`` is the single entry point used by
:class:`~repro.sim.network.CollectionNetwork`: it accepts a preset name, a
path to a JSON scenario file, or an already-built ``FaultSchedule``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    InterferenceBurst,
    LinkBlackout,
    NodeCrash,
    QualityShift,
)
from repro.sim.rng import RngManager


def _active_window(duration_s: float, warmup_s: float, drain_s: float) -> Tuple[float, float]:
    """Window inside which faults are injected: after warmup, with enough
    runway before the drain for the network to show recovery."""
    start = warmup_s
    end = max(warmup_s + 1.0, duration_s - drain_s - 45.0)
    return start, end


def _non_roots(node_ids: Sequence[int], roots: Sequence[int]) -> List[int]:
    root_set = frozenset(roots)
    return [nid for nid in sorted(node_ids) if nid not in root_set]


def _centroid(positions: Dict[int, Tuple[float, float]]) -> Tuple[float, float]:
    if not positions:
        return 0.0, 0.0
    xs = [positions[nid][0] for nid in sorted(positions)]
    ys = [positions[nid][1] for nid in sorted(positions)]
    return sum(xs) / len(xs), sum(ys) / len(ys)


def _preset_reboot_storm(
    *,
    duration_s: float,
    warmup_s: float,
    drain_s: float,
    node_ids: Sequence[int],
    roots: Sequence[int],
    positions: Dict[int, Tuple[float, float]],
    rng: RngManager,
) -> FaultSchedule:
    """Each non-root node crashes with probability 0.5 and reboots 15-30 s
    later with all RAM state lost — the paper's bootstrap scenario at scale."""
    stream = rng.stream("faults", "preset", "reboot_storm")
    start, end = _active_window(duration_s, warmup_s, drain_s)
    events: List[FaultEvent] = []
    for nid in _non_roots(node_ids, roots):
        if stream.random() >= 0.5:
            continue
        crash_at = stream.uniform(start, end)
        down_for = stream.uniform(15.0, 30.0)
        events.append(NodeCrash(at_s=crash_at, node=nid, reboot_at_s=crash_at + down_for))
    events.sort(key=lambda e: (e.at_s, e.node))  # type: ignore[union-attr]
    return FaultSchedule(events=tuple(events), name="reboot_storm")


def _preset_table_pressure(
    *,
    duration_s: float,
    warmup_s: float,
    drain_s: float,
    node_ids: Sequence[int],
    roots: Sequence[int],
    positions: Dict[int, Tuple[float, float]],
    rng: RngManager,
) -> FaultSchedule:
    """Rounds of ±4 dB node-level quality shifts.  Boosting marginal nodes
    makes *more* neighbors decodable than the 10-entry table holds, so the
    white-bit/compare/pin eviction policy is exercised continuously."""
    stream = rng.stream("faults", "preset", "table_pressure")
    start, end = _active_window(duration_s, warmup_s, drain_s)
    candidates = _non_roots(node_ids, roots)
    events: List[FaultEvent] = []
    rounds = 6
    for rnd in range(rounds):
        at = start + (end - start) * (rnd + 1) / (rounds + 1)
        picks = min(3, len(candidates))
        chosen = stream.sample(candidates, picks) if picks else []
        for nid in sorted(chosen):
            delta = 4.0 if stream.random() < 0.5 else -4.0
            events.append(QualityShift(at_s=at, delta_db=delta, node_a=nid))
    return FaultSchedule(events=tuple(events), name="table_pressure")


def _preset_flaky_burst(
    *,
    duration_s: float,
    warmup_s: float,
    drain_s: float,
    node_ids: Sequence[int],
    roots: Sequence[int],
    positions: Dict[int, Tuple[float, float]],
    rng: RngManager,
) -> FaultSchedule:
    """One ~10 s network-wide blackout mid-run plus two ~20 s interference
    bursts near the network centroid: the abrupt-outage shapes that expose
    moving-average estimator lag."""
    stream = rng.stream("faults", "preset", "flaky_burst")
    start, end = _active_window(duration_s, warmup_s, drain_s)
    span = end - start
    cx, cy = _centroid(positions)
    events: List[FaultEvent] = []

    blackout_at = start + span * stream.uniform(0.4, 0.6)
    events.append(LinkBlackout(start_s=blackout_at, end_s=blackout_at + 10.0))

    for frac in (0.15, 0.7):
        burst_at = start + span * (frac + stream.uniform(0.0, 0.1))
        events.append(
            InterferenceBurst(
                start_s=burst_at,
                end_s=burst_at + 20.0,
                x=cx + stream.uniform(-3.0, 3.0),
                y=cy + stream.uniform(-3.0, 3.0),
                power_dbm=-3.0,
            )
        )
    events.sort(key=lambda e: (getattr(e, "start_s", getattr(e, "at_s", 0.0))))
    return FaultSchedule(events=tuple(events), name="flaky_burst")


_PresetFn = Callable[..., FaultSchedule]

_PRESETS: Dict[str, _PresetFn] = {
    "reboot_storm": _preset_reboot_storm,
    "table_pressure": _preset_table_pressure,
    "flaky_burst": _preset_flaky_burst,
}

#: Stable, sorted preset names (CLI choices, error messages).
PRESET_NAMES: Tuple[str, ...] = tuple(sorted(_PRESETS))


def resolve_schedule(
    spec: Union[str, FaultSchedule],
    *,
    duration_s: float,
    warmup_s: float,
    drain_s: float,
    node_ids: Sequence[int],
    roots: Sequence[int],
    positions: Dict[int, Tuple[float, float]],
    rng: RngManager,
) -> FaultSchedule:
    """Turn a fault spec into a concrete schedule.

    ``spec`` may be a preset name, a path to a JSON scenario file, or a
    ``FaultSchedule`` (returned as-is).
    """
    if isinstance(spec, FaultSchedule):
        return spec
    if spec in _PRESETS:
        return _PRESETS[spec](
            duration_s=duration_s,
            warmup_s=warmup_s,
            drain_s=drain_s,
            node_ids=node_ids,
            roots=roots,
            positions=positions,
            rng=rng,
        )
    path = Path(spec)
    if path.is_file():
        return FaultSchedule.from_json_file(path)
    raise ValueError(
        f"unknown fault spec {spec!r}: not a preset {PRESET_NAMES} and not a JSON file"
    )
