"""repro.obs — the unified telemetry layer.

Three pillars, all optional and all zero-cost when unused:

* :mod:`repro.obs.metrics` — a cross-layer **metrics registry**: named
  counters, gauges and histograms with label support (``node``,
  ``neighbor``, ``layer``), snapshotable as a flat dict and mergeable
  across nodes and runs.  Metric names follow ``layer.component.event``
  (e.g. ``est.estimator.rejected_no_white``).
* :mod:`repro.obs.profile` — a lightweight **run profiler** for the
  discrete-event engine: wall time per event kind, events/sec, and queue
  depth over time.  Enabled per run via ``SimConfig(profile_events=True)``.
* :mod:`repro.obs.cli` — an **offline trace-analysis CLI**
  (``python -m repro.obs``) that answers debugging questions from an
  exported JSONL trace: per-node timelines, parent-flap counts, ETX
  convergence against ground truth, whole-run summaries, and causal
  per-packet ``journey`` span trees.
* :mod:`repro.obs.stream` — **live telemetry streaming**: a deterministic
  sim-time sampler that emits incremental metrics snapshots as typed JSONL
  records to pluggable sinks (file, bounded ring, Prometheus text);
  follow a stream with ``python -m repro.obs tail -f``.
* :mod:`repro.obs.journey` — **causal packet-journey reconstruction**:
  correlates trace records by ``(origin, seq)`` into span trees with
  per-hop retries and latencies.
* :mod:`repro.obs.resources` — **run resource accounting**: wall/CPU/peak
  RSS per run via ``resource.getrusage``, aggregated across sweeps.

The structured tracing itself lives in :mod:`repro.sim.trace` (a monitor
attached to a built network); :func:`repro.obs.bridge.network_metrics`
lifts every layer's stats dataclasses into one registry after a run.
"""

from repro.obs.bridge import network_metrics
from repro.obs.journey import (
    HopSpan,
    PacketJourney,
    build_journeys,
    summarize_journeys,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    register_dataclass_counters,
)
from repro.obs.profile import EngineProfiler
from repro.obs.resources import ResourceProbe, format_resources, merge_resources
from repro.obs.stream import (
    JsonlStreamSink,
    PrometheusTextSink,
    RingStreamSink,
    TelemetrySampler,
    TelemetrySink,
    fold_snapshots,
    read_stream,
    validate_record,
)

__all__ = [
    "Counter",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "HopSpan",
    "JsonlStreamSink",
    "MetricsRegistry",
    "PacketJourney",
    "PrometheusTextSink",
    "ResourceProbe",
    "RingStreamSink",
    "TelemetrySampler",
    "TelemetrySink",
    "build_journeys",
    "fold_snapshots",
    "format_resources",
    "merge_resources",
    "network_metrics",
    "read_stream",
    "register_dataclass_counters",
    "summarize_journeys",
    "validate_record",
]
