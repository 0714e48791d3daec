"""The paper campaign at micro scale, shared by the figure tests.

12 nodes, 3 simulated minutes (1 of warm-up), and Figure 3's chain over
5 minutes with the burst in minutes 2-3: a few seconds for every figure.
"""

from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import scaled

PAPER = load_campaign_file(Path(__file__).resolve().parents[2] / "examples" / "paper.json")

MICRO_BASE = {"n_nodes": 12, "duration_s": 180.0, "warmup_s": 60.0}

FIG3_SHORT = {"duration_s": 300.0, "burst_window": [100.0, 200.0]}

#: The whole ``fig3`` cell at micro scale.
FIG3_MICRO = dict(PAPER.to_json_dict()["figures"]["fig3"][0], **FIG3_SHORT)


def micro_paper(seeds=(1,), **options):
    """The paper campaign at micro scale; ``options`` as for ``scaled``."""
    options.setdefault("fig3", FIG3_SHORT)
    return scaled(PAPER, base=MICRO_BASE, seeds=seeds, **options)
