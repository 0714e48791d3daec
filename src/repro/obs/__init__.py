"""repro.obs — the unified telemetry layer.

All optional and all zero-cost when unused:

* :mod:`repro.obs.metrics` — :func:`network_metrics`: every layer's stats
  dataclasses as one flat ``{key: number}`` dict.  Keys follow
  ``layer.component.event`` (e.g. ``est.estimator.rejected_no_white``),
  with a ``{node=N}`` suffix for per-node counters.
* :mod:`repro.obs.stream` — the **record log** every record goes through
  (:class:`RecordLog`: strict-JSON lines appended to a file, or a bounded
  list in memory) and **live telemetry**: a deterministic sim-time sampler
  that emits incremental metrics snapshots as typed records; follow a
  stream with ``python -m repro.obs tail -f``.
* :mod:`repro.obs.profile` — a lightweight **run profiler** for the
  discrete-event engine: wall time per event kind, events/sec, and queue
  depth over time.  Enabled per run via ``SimConfig(profile_events=True)``.
* :mod:`repro.obs.cli` — an **offline trace-analysis CLI**
  (``python -m repro.obs``) that answers debugging questions from an
  exported JSONL trace: per-node timelines, parent-flap counts, ETX
  convergence against ground truth, whole-run summaries, and causal
  per-packet ``journey`` span trees.
* :mod:`repro.obs.journey` — **causal packet-journey reconstruction**:
  correlates trace records by ``(origin, seq)`` into span trees with
  per-hop retries and latencies.
* :mod:`repro.obs.resources` — **run resource accounting**: wall/CPU/peak
  RSS per run via ``resource.getrusage``, aggregated across sweeps.

The structured tracing itself lives in :mod:`repro.sim.trace` (a monitor
attached to a built network that turns probe events into records).
"""

from repro.obs.journey import (
    HopSpan,
    PacketJourney,
    build_journeys,
    summarize_journeys,
)
from repro.obs.metrics import network_metrics
from repro.obs.profile import EngineProfiler
from repro.obs.resources import ResourceProbe, format_resources, merge_resources
from repro.obs.stream import (
    RecordLog,
    TelemetrySampler,
    fold_snapshots,
    read_stream,
    validate_record,
)

__all__ = [
    "EngineProfiler",
    "HopSpan",
    "PacketJourney",
    "RecordLog",
    "ResourceProbe",
    "TelemetrySampler",
    "build_journeys",
    "fold_snapshots",
    "format_resources",
    "merge_resources",
    "network_metrics",
    "read_stream",
    "summarize_journeys",
    "validate_record",
]
