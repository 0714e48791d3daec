"""Pool workers free each finished run before the next run starts.

A finished ``CollectionNetwork`` is a cyclic object graph that reference
counting never frees: the network object itself may go, but its engine,
medium and radios keep each other alive.  Each task below looks, through
weak references, at the network the previous task built in the same
worker process: by the time a task starts, all of it must be gone.
Serial runs share the caller's process and must leave its GC state
untouched.

The task functions live at module top level so the pool can pickle them.
"""

import gc
import os
import weakref

import pytest

from repro.runner import ExperimentRunner, Task
from repro.sim.network import CollectionNetwork, SimConfig
from repro.topology.testbeds import PROFILES, scaled_profile

#: (pid, weak references) of the network the last task in that process
#: built: the network, its engine and its medium.
_last_network = None


def _run_network(seed):
    """Run a 6-node, 1-minute network and return ``(pid, previous)``.

    ``previous`` is None when this process ran no earlier task, else
    whether the earlier task's network was already freed when this one
    started.  The pid guards against a reference inherited through fork.
    """
    global _last_network
    pid = os.getpid()
    previous = None
    if _last_network is not None and _last_network[0] == pid:
        previous = all(ref() is None for ref in _last_network[1])
    profile = scaled_profile(PROFILES["mirage"], 6)
    config = SimConfig(protocol="4b", seed=seed, duration_s=60.0, warmup_s=20.0)
    network = CollectionNetwork(profile.topology(11), config, profile=profile)
    network.run()
    parts = (network, network.engine, network.medium)
    _last_network = (pid, [weakref.ref(part) for part in parts])
    return pid, previous


def _exit_worker(_arg):
    os._exit(1)


def _boom(arg):
    raise ValueError(f"bad input {arg}")


def _network_tasks(seeds):
    return [Task(_run_network, seed, label=f"net({seed})") for seed in seeds]


def _assert_previous_runs_freed(results, tasks, workers):
    previous = [prev for _pid, prev in results]
    # Every task after a worker's first found its predecessor dead; by
    # pigeonhole at least ``tasks - workers`` of them had one.
    assert sum(prev is not None for prev in previous) >= tasks - workers
    assert all(prev in (None, True) for prev in previous), previous


def test_pool_worker_frees_the_previous_run_before_the_next():
    runner = ExperimentRunner(workers=2)
    results = runner.run(_network_tasks(range(1, 7)))
    _assert_previous_runs_freed(results, tasks=6, workers=2)


def test_rebuilt_pool_still_frees_the_previous_run():
    # One task in flight at a time: the dying worker breaks the first pool
    # alone, and the four runs go to the pool built after it.
    runner = ExperimentRunner(workers=2, chunk_size=1, strict=False)
    tasks = [Task(_exit_worker, 0, label="exit")] + _network_tasks(range(1, 5))
    results = runner.run(tasks)
    assert results[0] is None
    [failure] = runner.stats.failures
    assert failure.label == "exit" and "BrokenProcessPool" in failure.error
    _assert_previous_runs_freed(results[1:], tasks=4, workers=2)


@pytest.mark.parametrize("enabled", [True, False])
def test_serial_batch_leaves_gc_state_as_found(enabled):
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        if not enabled:
            gc.disable()
        runner = ExperimentRunner(workers=1, strict=False)
        results = runner.run(_network_tasks([1]) + [Task(_boom, 2, label="boom")])
        assert results[1] is None and len(runner.stats.failures) == 1
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        if was_enabled:
            gc.enable()
