"""ExperimentRunner: serial/parallel equivalence, caching, crash isolation.

The worker functions live at module top level so the process pool can
pickle them by reference.
"""

import time

import pytest

from repro.campaign.spec import simulate
from repro.experiments.common import Cell, ExperimentScale
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    RunnerError,
    Task,
)

MICRO = ExperimentScale(n_nodes=10, duration_s=120.0, warmup_s=30.0, seeds=(1, 2))


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad input {x}")


def _boom_if_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def _sleep_then_return(seconds):
    time.sleep(seconds)
    return seconds


def _tasks(fn, args):
    return [Task(fn, a, label=f"{fn.__name__}({a})") for a in args]


# ----------------------------------------------------------------------
# Core semantics
# ----------------------------------------------------------------------
def test_serial_results_in_order():
    runner = ExperimentRunner()
    assert runner.run(_tasks(_square, [1, 2, 3])) == [1, 4, 9]
    assert runner.stats.executed == 3
    assert runner.stats.cache_hits == 0


def test_parallel_results_in_order():
    runner = ExperimentRunner(workers=2)
    assert runner.run(_tasks(_square, list(range(10)))) == [x * x for x in range(10)]
    assert runner.stats.executed == 10


def test_in_batch_dedup_executes_once():
    runner = ExperimentRunner()
    results = runner.run(_tasks(_square, [7, 7, 7]))
    assert results == [49, 49, 49]
    assert runner.stats.executed == 1
    assert runner.stats.total == 3


def test_chunked_submission_handles_more_tasks_than_chunk():
    runner = ExperimentRunner(workers=2, chunk_size=3)
    args = list(range(20))
    assert runner.run(_tasks(_square, args)) == [x * x for x in args]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_second_run_is_all_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    first = ExperimentRunner(cache=cache)
    assert first.run(_tasks(_square, [2, 3])) == [4, 9]
    assert first.stats.executed == 2

    second = ExperimentRunner(cache=cache)
    assert second.run(_tasks(_square, [2, 3])) == [4, 9]
    assert second.stats.executed == 0
    assert second.stats.cache_hits == 2
    assert second.stats.hit_rate == 1.0


def test_cache_key_includes_function_identity(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(cache=cache)
    runner.run(_tasks(_square, [2]))
    # Same argument, different function → not a hit.
    assert runner.run([Task(_sleep_then_return, 0)]) == [0]
    assert runner.stats.cache_hits == 0


def test_failures_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(cache=cache, strict=False)
    assert runner.run(_tasks(_boom, [1])) == [None]
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
def test_strict_raises_after_sweep_completes():
    runner = ExperimentRunner()
    with pytest.raises(RunnerError) as err:
        runner.run(_tasks(_boom_if_odd, [0, 1, 2, 3]))
    assert len(err.value.failures) == 2
    # The even runs still executed before the error surfaced.
    assert runner.stats.executed == 2
    assert "odd input 1" in str(err.value)


def test_non_strict_yields_none_slots():
    runner = ExperimentRunner(strict=False)
    assert runner.run(_tasks(_boom_if_odd, [0, 1, 2, 3])) == [0, None, 2, None]
    assert [f.label for f in runner.stats.failures] == [
        "_boom_if_odd(1)",
        "_boom_if_odd(3)",
    ]


def test_parallel_failures_isolated():
    runner = ExperimentRunner(workers=2, strict=False)
    results = runner.run(_tasks(_boom_if_odd, list(range(8))))
    assert results == [0, None, 2, None, 4, None, 6, None]


def test_timeout_kills_run_not_sweep():
    runner = ExperimentRunner(timeout_s=0.2, strict=False)
    results = runner.run(
        [Task(_sleep_then_return, 2.0, label="slow"), Task(_square, 4, label="fast")]
    )
    assert results == [None, 16]
    assert runner.stats.failures[0].label == "slow"
    assert "timed out" in runner.stats.failures[0].error


# ----------------------------------------------------------------------
# Serial vs parallel equivalence on real simulator runs (the ISSUE's
# correctness bar: parallel output must be numerically identical).
# ----------------------------------------------------------------------
def _runs(specs, runner):
    """The full ``CollectionResult`` of each spec, run through ``runner``."""
    return [r.run for r in runner.run([Task(simulate, spec) for spec in specs])]


def test_simulation_serial_parallel_equivalence():
    specs = [
        Cell.make(proto).spec(MICRO, seed)
        for proto in ("4b", "mhlqi")
        for seed in MICRO.seeds
    ]
    serial = _runs(specs, ExperimentRunner(workers=1))
    parallel = _runs(specs, ExperimentRunner(workers=2))
    assert None not in serial
    assert serial == parallel  # dataclass equality: every field, every float


def test_simulation_cache_returns_identical_result(tmp_path):
    spec = Cell.make("4b").spec(MICRO, 1)
    cache = ResultCache(tmp_path)
    fresh = _runs([spec], ExperimentRunner(cache=cache))[0]
    cached_runner = ExperimentRunner(cache=cache)
    cached = _runs([spec], cached_runner)[0]
    assert cached_runner.stats.cache_hits == 1
    assert fresh is not None
    assert cached == fresh


def test_totals_accumulate_across_batches():
    runner = ExperimentRunner()
    runner.run(_tasks(_square, [1, 2]))
    runner.run(_tasks(_square, [3]))
    assert runner.totals.total == 3
    assert runner.totals.executed == 3
    assert runner.stats.total == 1  # per-batch stats reset


def test_fast_medium_serial_parallel_equivalence_with_faults():
    # The vectorized backend must stay a pure function of the seed across
    # process boundaries, fault injection included: a worker process and
    # the parent must produce numerically identical runs.
    cell = Cell.make("4b", medium="fast", faults="flaky_burst")
    specs = [cell.spec(MICRO, seed) for seed in MICRO.seeds]
    serial = _runs(specs, ExperimentRunner(workers=1))
    parallel = _runs(specs, ExperimentRunner(workers=2))
    assert None not in serial
    assert serial == parallel
