#!/usr/bin/env python3
"""Figure 6 at full scale: the link-estimation design space.

Sweeps CTP's estimator from the stock broadcast-probe design through each
of the paper's additions (ack bit; white+compare bits; all four) and plots
every variant with MultiHopLQI in the cost-vs-depth plane: the ``fig6``
points of the paper campaign (examples/paper.json).

Usage:
    python examples/design_space.py [--quick]
"""

import argparse
from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import BENCH, run, scaled

PAPER = Path(__file__).with_name("paper.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced scale")
    args = parser.parse_args()
    quick = BENCH if args.quick else {}
    result = run(scaled(load_campaign_file(PAPER), only=["fig6"], **quick))["fig6"]
    print(result.render())
    print()
    print(f"ack bit reduces cost:         {result.ack_bit_helps()}")
    print(f"white/compare reduce cost:    {result.white_compare_helps()}")
    print(f"4B beats MultiHopLQI:         {result.fourbit_beats_mhlqi()}")
    print(f"4B is the best variant:       {result.fourbit_best()}")


if __name__ == "__main__":
    main()
