"""Run resource accounting: probes, aggregation, and runner integration."""

from repro.obs.resources import (
    ResourceProbe,
    attach_resources,
    format_resources,
    merge_resources,
)
from repro.runner import ExperimentRunner, Task

#: Keys every resources dict carries (values are floats; kB for RSS).
RESOURCE_FIELDS = {"wall_s", "cpu_user_s", "cpu_sys_s", "cpu_s", "max_rss_kb"}


def _burn(n):
    return sum(i * i for i in range(n))


def test_probe_reports_every_field():
    with ResourceProbe() as probe:
        _burn(50_000)
    resources = probe.result
    assert set(resources) == RESOURCE_FIELDS
    assert resources["wall_s"] > 0.0
    assert resources["cpu_s"] == resources["cpu_user_s"] + resources["cpu_sys_s"]
    assert resources["max_rss_kb"] > 0.0  # Linux: kB high-water mark


def test_attach_resources_is_duck_typed():
    class WithSlot:
        resources = None

    target = WithSlot()
    assert attach_resources(target, {"wall_s": 1.0})
    assert target.resources == {"wall_s": 1.0}
    assert not attach_resources(object(), {"wall_s": 1.0})
    assert not attach_resources(42, {"wall_s": 1.0})


def test_merge_resources_sums_cpu_maxes_rss():
    total = {}
    merge_resources(total, {"wall_s": 1.0, "cpu_s": 0.5, "max_rss_kb": 100.0})
    merge_resources(total, {"wall_s": 2.0, "cpu_s": 0.25, "max_rss_kb": 80.0})
    merge_resources(total, None)  # tolerated: failed run has no resources
    assert total["wall_s"] == 3.0
    assert total["cpu_s"] == 0.75
    assert total["max_rss_kb"] == 100.0  # concurrent peaks don't sum


def test_format_resources():
    line = format_resources({"cpu_s": 1.234, "wall_s": 2.5, "max_rss_kb": 84992.0})
    assert line == "cpu=1.23s wall=2.50s rss=83MB"
    assert format_resources(None) == "(no resource data)"
    assert format_resources({}) == "(no resource data)"


# ---------------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------------
class _SlottedResult:
    """Result type with a ``resources`` slot (like ``CollectionResult``)."""

    def __init__(self, value):
        self.value = value
        self.resources = None


def _burn_slotted(n):
    return _SlottedResult(_burn(n))


def test_runner_aggregates_resources_serial_and_parallel():
    for workers in (1, 2):
        runner = ExperimentRunner(workers=workers)
        out = runner.run([Task(_burn_slotted, n, label=f"burn({n})")
                          for n in (10_000, 20_000)])
        # Workers probe in-process and attach to the result's slot.
        assert all(r.resources["wall_s"] > 0.0 for r in out)
        resources = runner.stats.resources
        assert resources["cpu_s"] >= 0.0 and resources["wall_s"] > 0.0
        assert resources["max_rss_kb"] > 0.0
        assert "rss=" in runner.stats.summary()


def test_plain_results_carry_no_resources():
    runner = ExperimentRunner()
    assert runner.run([Task(_burn, 100, label="burn(100)")]) == [_burn(100)]
    assert runner.stats.resources == {}  # int results have no slot to fill


def test_sim_results_carry_worker_resources():
    from repro.campaign.spec import SimulationSpec, simulate
    from repro.experiments.common import averaged

    spec = SimulationSpec.make(
        "collection", profile="mirage", n_nodes=9, duration_s=120.0, warmup_s=30.0,
        protocol="4b", seed=1,
    )
    [result] = ExperimentRunner().run([Task(simulate, spec)])
    assert set(result.resources) == RESOURCE_FIELDS
    # A figure's cell hands the worker's measurement on to its runs.
    run = averaged([result])[0].runs[0]
    assert run.resources == result.resources
    assert set(run.resources) == RESOURCE_FIELDS
    assert run.resources["cpu_s"] > 0.0
    payload = run.to_json_dict()
    assert payload["resources"]["cpu_s"] == run.resources["cpu_s"]
