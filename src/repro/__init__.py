"""repro — a full reproduction of "Four-Bit Wireless Link Estimation"
(Fonseca, Gnawali, Jamieson, Levis; HotNets-VI, 2007).

The package provides:

* :mod:`repro.core` — the paper's contribution: the four-bit interfaces
  (white / ack / pin / compare) and the hybrid windowed-mean EWMA link
  estimator ("4B").
* :mod:`repro.phy`, :mod:`repro.link`, :mod:`repro.net` — the substrate: a
  CC2420-class radio/channel model, CSMA MAC with synchronous L2 acks, CTP
  and MultiHopLQI collection protocols.
* :mod:`repro.sim` — a discrete-event simulator with an SINR-based shared
  medium.
* :mod:`repro.experiments` — one renderer per figure of the paper campaign
  (``examples/paper.json``).

Quickstart::

    from repro import CollectionNetwork, SimConfig, MIRAGE

    profile = MIRAGE
    net = CollectionNetwork(profile.topology(seed=1),
                            SimConfig(protocol="4b", duration_s=600.0),
                            profile=profile)
    result = net.run()
    print(result.summary_row())
"""

from repro.core import (
    EstimatorConfig,
    Ewma,
    HybridLinkEstimator,
    LinkEstimator,
    NeighborTable,
)
from repro.estimators.presets import PRESETS, four_bit
from repro.metrics.collection_stats import CollectionResult
from repro.net.ctp import CtpConfig, CtpProtocol
from repro.net.multihoplqi import MhlqiConfig, MultiHopLqi, adjust_lqi
from repro.sim.engine import Engine
from repro.sim.network import PROTOCOLS, CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import Topology, grid, line, pair, random_uniform
from repro.topology.testbeds import MIRAGE, TUTORNET, TestbedProfile, scaled_profile
from repro.workloads.collection import WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "MIRAGE",
    "PRESETS",
    "PROTOCOLS",
    "TUTORNET",
    "CollectionNetwork",
    "CollectionResult",
    "CtpConfig",
    "CtpProtocol",
    "Engine",
    "EstimatorConfig",
    "Ewma",
    "HybridLinkEstimator",
    "LinkEstimator",
    "MhlqiConfig",
    "MultiHopLqi",
    "NeighborTable",
    "RngManager",
    "SimConfig",
    "TestbedProfile",
    "Topology",
    "WorkloadConfig",
    "adjust_lqi",
    "four_bit",
    "grid",
    "line",
    "pair",
    "random_uniform",
    "scaled_profile",
]
