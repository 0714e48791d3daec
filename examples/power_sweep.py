#!/usr/bin/env python3
"""Figures 7 and 8 at full scale: transmit-power sweep.

Runs 4B and MultiHopLQI at 0 / −10 / −20 dBm on the Mirage-like testbed,
reporting cost & depth (Figure 7) and per-node delivery distributions
(Figure 8) from the same set of runs: the ``fig7`` points of the paper
campaign (examples/paper.json), read from the cache if it ran before.

Usage:
    python examples/power_sweep.py [--quick]
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
    figures = run(scaled(load_campaign_file(PAPER), only=["fig7"], **quick), progress=True)
    print(figures["fig7"].render())
    print()
    print(figures["fig8"].render())
    print()
    print(f"4B wins on cost at every power: {figures['fig7'].fourbit_wins_everywhere()}")


if __name__ == "__main__":
    main()
