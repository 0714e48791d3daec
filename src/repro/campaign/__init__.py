"""Campaign orchestration: declarative specs, resumable sweeps and tuning.

The "millions of runs" backbone (ROADMAP): every experiment becomes a
declarative file instead of a script — the paper's whole evaluation too
(``examples/paper.json``, whose ``figures`` key lists each figure's cells;
:mod:`repro.experiments` renders them).

* :mod:`repro.campaign.spec` — the ``SimulationSpec -> simulate() ->
  SimulationResult.summary`` contract layered over ``SimConfig`` and the
  accuracy harness.
* :mod:`repro.campaign.sweep` — the campaign file (``grid``, ``random``
  or ``optimize`` mode, JSON/TOML) and the one search loop that runs it;
  ``optimize`` tunes estimator constants against accuracy/cost objectives.
* :mod:`repro.campaign.queue` — the persistent, interruption-safe work
  queue: the canonical-digest result cache provides exactly-once
  semantics, the process pool provides sharding, and ``resume`` picks a
  killed campaign up mid-flight from disk.
* ``python -m repro.campaign run/resume/status`` — the CLI.
"""

from repro.campaign.queue import Campaign, CampaignInterrupted, load_campaign_file
from repro.campaign.spec import SimulationResult, SimulationSpec, simulate
from repro.campaign.sweep import RangeSpec, SweepSpec

__all__ = [
    "Campaign",
    "CampaignInterrupted",
    "RangeSpec",
    "SimulationResult",
    "SimulationSpec",
    "SweepSpec",
    "load_campaign_file",
    "simulate",
]
