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
  progress/throughput reporting.

Run a standalone sweep with ``python -m repro.runner --help``.  The sweep
CLI and the figure modules in :mod:`repro.experiments` submit ``collection``
specs (:class:`~repro.campaign.spec.SimulationSpec`) to
:func:`~repro.campaign.spec.simulate` through
:func:`~repro.experiments.common.run_cells`; the figure modules accept a
``runner=`` argument and otherwise build one from the environment
(``REPRO_WORKERS``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``).
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
    default_runner,
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
    "default_runner",
]
