"""Cross-layer metrics registry.

Every layer of the stack keeps cheap per-component stats dataclasses
(:class:`~repro.core.estimator.EstimatorStats`,
:class:`~repro.link.mac.MacStats`, …) so the hot path never pays for
observability it did not ask for.  This module provides the common
vocabulary those stats register into after (or during) a run:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written instantaneous value;
* :class:`Histogram` — bucketed distribution with count/sum/min/max.

Metrics live in a :class:`MetricsRegistry`, keyed by a **name** following
the ``layer.component.event`` convention (``link.mac.tx_unicast``,
``net.routing.parent_switches``) plus a sorted **label set** (``node=7``,
``neighbor=3``, ``layer="est"``).  A registry snapshots to a flat
``{"name{label=value,...}": number}`` dict (JSON-safe) and merges with
other registries — per-node registries fold into one network view, and
per-run registries fold into one sweep view.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union


#: ``layer.component.event`` — lowercase dotted path, underscores allowed.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Characters that are structural inside a flat key's label block.  Label
#: *values* escape them with a backslash so ``parse_flat_key`` round-trips
#: any value; label *keys* come from ``**labels`` kwargs and are therefore
#: identifiers, which never contain them.
_LABEL_SPECIALS = "\\,=}"


def _escape_label_value(value: str) -> str:
    if not any(c in value for c in _LABEL_SPECIALS):
        return value
    out = []
    for c in value:
        if c in _LABEL_SPECIALS:
            out.append("\\")
        out.append(c)
    return "".join(out)


def _unescape_label_value(value: str) -> str:
    if "\\" not in value:
        return value
    out = []
    it = iter(value)
    for c in it:
        if c == "\\":
            c = next(it, "\\")
        out.append(c)
    return "".join(out)


def _split_label_items(inner: str) -> List[str]:
    """Split the label block on unescaped commas."""
    items: List[str] = []
    buf: List[str] = []
    escaped = False
    for c in inner:
        if escaped:
            buf.append(c)
            escaped = False
        elif c == "\\":
            buf.append(c)
            escaped = True
        elif c == ",":
            items.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    items.append("".join(buf))
    return items


def _flat_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label_value(v)}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_flat_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :meth:`MetricsRegistry.snapshot` keys back to (name, labels).

    Label values are backslash-unescaped, so keys produced by
    :func:`_flat_key` round-trip even when values contain ``,``, ``=``,
    ``}`` or ``\\`` (the trailing ``}`` of the key is never escaped — an
    escaped ``}`` at the end of a value is preceded by a backslash, which
    itself would have been doubled).
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for item in _split_label_items(inner):
        if not item:
            continue
        # Keys are identifiers, so the first `=` always ends the key.
        k, _, v = item.partition("=")
        labels[k] = _unescape_label_value(v)
    return name, labels


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up (got {n})")
        self.value += n


class Gauge:
    """An instantaneous value (queue depth, table occupancy, threshold)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bucket upper bounds (≤); the implicit +inf bucket
#: catches the tail.  Covers sub-millisecond event times through multi-second
#: latencies and small integer distributions alike.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)


class Histogram:
    """A bucketed distribution (cumulative-style buckets, ``le`` bounds)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def to_json_dict(self) -> Dict[str, object]:
        """Strict-JSON view: the empty histogram's ``vmin=inf``/``vmax=-inf``
        sentinels become ``null`` (the ``to_json_dict`` convention), never
        the invalid JSON tokens ``Infinity``/``-Infinity``."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if empty else self.vmin,
            "max": None if empty else self.vmax,
            "buckets": {
                "+inf" if math.isinf(b) else repr(b): n
                for b, n in zip(list(self.bounds) + [math.inf], self.bucket_counts)
            },
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named, labeled metrics with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the live metric object, so a
    component can hold on to it and increment without re-resolving::

        whites = registry.counter("est.estimator.rejected_no_white", node=7)
        whites.inc()

    Snapshot / merge turn many per-node registries into one network view.
    """

    def __init__(self, validate_names: bool = True) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}
        self._validate = validate_names

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, labels: Dict[str, object], factory) -> Metric:
        if self._validate and not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} does not follow layer.component.event"
            )
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        metric = self._get_or_create(name, labels, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} already registered as {type(metric).__name__}")
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        metric = self._get_or_create(name, labels, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} already registered as {type(metric).__name__}")
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS, **labels
    ) -> Histogram:
        metric = self._get_or_create(name, labels, lambda: Histogram(bounds))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} already registered as {type(metric).__name__}")
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Tuple[str, LabelItems, Metric]]:
        for (name, labels), metric in sorted(self._metrics.items()):
            yield name, labels, metric

    def snapshot(self) -> Dict[str, float]:
        """Flat, JSON-safe view.  Histograms expand to ``_count``/``_sum``/
        ``_min``/``_max`` plus one ``_bucket{le=...}`` entry per bound."""
        out: Dict[str, float] = {}
        for name, labels, metric in self:
            if isinstance(metric, (Counter, Gauge)):
                out[_flat_key(name, labels)] = metric.value
            else:
                out[_flat_key(name + "_count", labels)] = metric.count
                out[_flat_key(name + "_sum", labels)] = metric.total
                if metric.count:
                    out[_flat_key(name + "_min", labels)] = metric.vmin
                    out[_flat_key(name + "_max", labels)] = metric.vmax
                for bound, n in zip(
                    list(metric.bounds) + [math.inf], metric.bucket_counts
                ):
                    le = "+inf" if math.isinf(bound) else repr(bound)
                    bucket_labels = tuple(sorted(labels + (("le", le),)))
                    out[_flat_key(name + "_bucket", bucket_labels)] = n
        return out

    def aggregate(self, name: str) -> float:
        """Sum of a counter/gauge across every label combination."""
        total = 0.0
        for metric_name, _, metric in self:
            if metric_name == name and isinstance(metric, (Counter, Gauge)):
                total += metric.value
        return total

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, gauges take the
        other's value, histograms merge bucket-wise).  Returns ``self``."""
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name, **dict(labels)).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(name, **dict(labels)).set(metric.value)
            else:
                self.histogram(name, bounds=metric.bounds, **dict(labels)).merge(metric)
        return self

    def render(self, prefix: str = "") -> str:
        """Human-readable dump (optionally filtered by name prefix)."""
        lines = []
        for key, value in self.snapshot().items():
            if prefix and not key.startswith(prefix):
                continue
            if isinstance(value, float) and value == int(value):
                value = int(value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) if lines else "(no metrics)"


def numeric_fields(stats: Any) -> Dict[str, float]:
    """The numeric fields of a stats dataclass, in declaration order.

    Non-numeric fields (lists of failures, nested objects) and bools are
    skipped.
    """
    out: Dict[str, float] = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[f.name] = value
    return out


def register_dataclass_counters(
    registry: MetricsRegistry, prefix: str, stats: object, **labels
) -> None:
    """Register every numeric field of a stats dataclass as a counter.

    This is the bridge between the per-component stats dataclasses and the
    registry: ``register_dataclass_counters(reg, "link.mac", mac.stats,
    node=7)`` yields ``link.mac.tx_unicast{node=7}`` etc.
    """
    for name, value in numeric_fields(stats).items():
        registry.counter(f"{prefix}.{name}", **labels).inc(value)
