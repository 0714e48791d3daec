#!/usr/bin/env python3
"""The paper's headline numbers: 4B vs MultiHopLQI on both testbeds.

Paper: 4B reduces packet delivery cost by 29% on Mirage (delivery 99.9%
vs 93%) and by 44% on Tutornet (99% vs 85%) — with the noisier testbed
showing the larger gap.  Runs the ``headline`` points of the paper
campaign (examples/paper.json).

Usage:
    python examples/headline_comparison.py [--quick]
"""

import argparse

from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import BENCH, run, scaled

PAPER = Path(__file__).with_name("paper.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    quick = BENCH if args.quick else {}
    result = run(scaled(load_campaign_file(PAPER), only=["headline"], **quick))["headline"]
    print(result.render())
    print()
    for testbed in ("mirage", "tutornet"):
        print(f"4B wins on {testbed}: {result.fourbit_wins(testbed)}")
    print(f"gap larger on the noisier testbed: {result.gap_larger_on_noisier_testbed()}")


if __name__ == "__main__":
    main()
