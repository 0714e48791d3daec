"""Metrics: collection statistics and windowed link PRR."""

from repro.metrics.collection_stats import CollectionResult, compute_result
from repro.metrics.timeseries import windowed_prr

__all__ = [
    "CollectionResult",
    "compute_result",
    "windowed_prr",
]
