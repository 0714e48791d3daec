"""Seeded fuzz over run settings: every case runs or raises ``ValueError``.

A bad value in a ``SimConfig`` or in a campaign file's ``collection``
parameters must be refused cleanly, naming itself, never as a
``TypeError``, ``OverflowError`` or ``OSError`` from deep inside a run.
Each case is drawn from its own fixed seed, so a failure names a case that
reproduces.  The draws mix valid values with NaN, ±inf, negative, zero and
huge numbers, wrong types, unknown names, and extra sinks outside the
topology.  Every network has at most 8 nodes, and every valid run length
in the pools is at most 60 s, so a case that runs stays cheap.
"""

import math
import random

import pytest

from repro.campaign.spec import SimulationSpec, simulate
from repro.core.estimator import EstimatorConfig
from repro.phy.radio import CC1000, CC2420
from repro.sim.network import CollectionNetwork, SimConfig
from repro.topology.testbeds import PROFILES, scaled_profile
from repro.workloads.collection import WorkloadConfig

CASES = 25

BAD_NUMBERS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300, -1e300)
WRONG_TYPES = (None, "1", [1], {"a": 1}, True)

#: Values shared by both halves: each name is a ``SimConfig`` field and a
#: ``collection`` parameter.  Only invalid values of the run length are
#: huge, so no valid draw runs longer than 60 s.
SHARED = {
    "protocol": ("4b", "ctp", "mhlqi", "geo", "ctp-white", "bogus", 3, None),
    "tx_power_dbm": (0.0, -10.0) + BAD_NUMBERS + WRONG_TYPES,
    "seed": (1, 2, 0, -5, 2**70, 1.5, math.nan) + WRONG_TYPES,
    "duration_s": (30.0, 60.0, 0.0, -1.0, math.nan, math.inf, -math.inf) + WRONG_TYPES,
    "warmup_s": (0.0, 10.0) + BAD_NUMBERS + WRONG_TYPES,
    "drain_s": (0.0, 5.0) + BAD_NUMBERS + WRONG_TYPES,
    "extra_sinks": ((), (1,), (999,), (-1,), (1.5,), "1", 1, [2, 3]),
    "white_bit": ("lqi", "snr", "never", "bogus", 1, [1]),
    "medium": ("exact", "fast", "bogus", 2),
    "faults": ("reboot_storm", "flaky_burst", "table_pressure", "no_such_preset", 5),
    "telemetry_period_s": (10.0,) + BAD_NUMBERS + WRONG_TYPES,
    "check_invariants": (False, True),
}

#: Fields only a ``SimConfig`` built in Python can carry.
CONFIG_ONLY = {
    "workload": (WorkloadConfig(), None, "x", {"send_interval_s": 1.0}),
    "estimator_config": (None, EstimatorConfig(), "4b", 5),
    "radio_params": (CC2420, CC1000, "cc2420", None),
    "telemetry_path": (None, 5, b"x", ["x"]),
    "faults": (None, "missing.json", "", {"events": []}),
}

#: The testbed parameters of a ``collection`` spec.
SPEC_ONLY = {
    "profile": ("mirage", "tutornet", "atlantis", 5, None),
    "n_nodes": (2, 5, 8, 0, 1, -3, 2.5, math.nan, math.inf, "8", [8], True),
    "topology_seed": (11, 0, -1, 0.5, math.nan, "11", True, 1e300),
}


def _draw(rng, pools):
    names = sorted(pools)
    return {name: rng.choice(pools[name]) for name in rng.sample(names, rng.randint(1, 3))}


def _config_case(index):
    rng = random.Random(f"simconfig-{index}")
    pools = {**SHARED, **CONFIG_ONLY, "faults": SHARED["faults"] + CONFIG_ONLY["faults"]}
    return {"duration_s": 60.0, "warmup_s": 10.0, **_draw(rng, pools)}


def _spec_case(index):
    rng = random.Random(f"collection-{index}")
    params = {"profile": "mirage", "n_nodes": 6, "duration_s": 60.0, "warmup_s": 10.0}
    params.update(_draw(rng, {**SHARED, **SPEC_ONLY}))
    return params


@pytest.mark.parametrize("index", range(CASES))
def test_simconfig_fuzz_runs_or_raises_value_error(index):
    kwargs = _config_case(index)
    profile = scaled_profile(PROFILES["mirage"], 6)
    try:
        config = SimConfig(**kwargs)
        CollectionNetwork(profile.topology(11), config, profile=profile).run()
    except ValueError:
        pass


@pytest.mark.parametrize("index", range(CASES))
def test_collection_spec_fuzz_runs_or_raises_value_error(index):
    params = _spec_case(index)
    try:
        simulate(SimulationSpec.from_params("collection", params))
    except ValueError:
        pass
