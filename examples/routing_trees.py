#!/usr/bin/env python3
"""Figure 2 at full scale: routing trees of CTP, MultiHopLQI, and CTP with
an unrestricted link table on the 85-node Mirage-like testbed.

The paper reports costs of 3.14 / 2.28 / 1.86 transmissions per delivered
packet; the shape to look for here is the *ordering* and the depth gap
between constrained and unconstrained CTP.  Runs the ``fig2`` points of
the paper campaign (examples/paper.json).

Usage:
    python examples/routing_trees.py [--quick]
"""

import argparse

from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import BENCH, run, scaled

PAPER = Path(__file__).with_name("paper.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced scale (~30 s)")
    args = parser.parse_args()
    quick = BENCH if args.quick else {}
    result = run(scaled(load_campaign_file(PAPER), only=["fig2"], **quick))["fig2"]
    print(result.render())
    print()
    print(f"cost ordering CTP >= MultiHopLQI >= CTP-unconstrained: {result.cost_ordering_holds()}")
    print(f"constrained table deepens the tree: {result.depth_gap_holds()}")


if __name__ == "__main__":
    main()
