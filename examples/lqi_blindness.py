#!/usr/bin/env python3
"""Figure 3: a PRR collapse the physical layer cannot see.

Runs MultiHopLQI on a chain topology while a burst interferer near the
parent destroys ~40% of packets during a known window.  The PRR of the
link collapses; the LQI of the packets that *do* arrive stays saturated;
the cumulative count of unacknowledged transmissions inflects — and the
protocol, reading only LQI, never reroutes.

Pass ``--protocol 4b`` to watch the ack bit catch what LQI cannot.  The
scenario is the paper campaign's ``fig3`` cell (examples/paper.json).

Usage:
    python examples/lqi_blindness.py [--protocol mhlqi|4b] [--quick]
"""

import argparse
from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import run, scaled

PAPER = Path(__file__).with_name("paper.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", choices=("mhlqi", "4b"), default="mhlqi")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    cell = {"protocol": args.protocol}
    if args.quick:
        cell.update(duration_s=600.0, burst_window=[200.0, 400.0])
    result = run(scaled(load_campaign_file(PAPER), only=["fig3"], fig3=cell))["fig3"]
    print(result.render())
    print()
    print(f"delivery ratio: {result.delivery_ratio * 100:.1f}%   cost: {result.cost:.2f}")
    if args.protocol == "mhlqi":
        print(f"physical-layer blindness reproduced: {result.blindness_holds()}")


if __name__ == "__main__":
    main()
