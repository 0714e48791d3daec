"""Parallel experiment runner with on-disk result caching.

Because every simulation is a pure function of its configuration (the
named-substream RNG in :mod:`repro.sim.rng` guarantees it), sweeps over
(protocol × seed × power) grids are embarrassingly parallel and perfectly
cacheable.  This package provides:

* :func:`~repro.runner.hashing.config_digest` — canonical, cross-process
  stable hash of a (possibly nested dataclass) configuration;
* :class:`~repro.runner.cache.ResultCache` — pickle-per-digest on-disk
  store with atomic writes;
* :class:`~repro.runner.runner.ExperimentRunner` — process-pool fan-out
  with chunked submission, per-run timeouts, crash isolation, and
  progress/throughput reporting.  A failed run leaves ``None`` in its
  result slot and a :class:`~repro.runner.runner.RunFailure` in the
  runner's one tally (``stats.failed``); a caller that cannot go on
  without every result raises :class:`~repro.runner.runner.RunnerError`.

The package has no CLI of its own: run a sweep from a campaign file with
``python -m repro.campaign run`` (e.g. ``examples/smoke_sweep.json``),
which drives the same runner and cache.  The paper's evaluation is such a
file too (``examples/paper.json``); :mod:`repro.experiments` renders its
figures from the campaign's results.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, MISS, ResultCache, cache_dir_from_env
from repro.runner.hashing import CACHE_SCHEMA_VERSION, canonical_bytes, config_digest
from repro.runner.runner import (
    ExperimentRunner,
    RunFailure,
    RunnerError,
    RunnerStats,
    RunTimeout,
    Task,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "MISS",
    "ExperimentRunner",
    "ResultCache",
    "RunFailure",
    "RunnerError",
    "RunnerStats",
    "RunTimeout",
    "Task",
    "cache_dir_from_env",
    "canonical_bytes",
    "config_digest",
]
