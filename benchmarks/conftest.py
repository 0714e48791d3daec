"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's figures from the paper
campaign (``examples/paper.json``) at :data:`repro.experiments.BENCH`
(a 30-node shrink of the Mirage profile, 7 simulated minutes, one seed)
so the whole suite runs in minutes.  The printed tables use the same
renderers as the full-scale examples; EXPERIMENTS.md records full-scale
outputs.
"""

from pathlib import Path

import pytest

from repro.campaign.queue import load_campaign_file
from repro.experiments import BENCH, run, scaled
from repro.runner.cache import ResultCache

PAPER = load_campaign_file(Path(__file__).resolve().parents[1] / "examples" / "paper.json")


def paper_cells(figure):
    """The paper campaign's cells of ``figure``, as JSON objects."""
    return PAPER.to_json_dict()["figures"][figure]


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulations are deterministic and expensive; statistical repetition
    would only burn time without changing the result.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner


@pytest.fixture
def bench_figure(benchmark, tmp_path):
    """Run one figure of the paper campaign at bench scale, timed once, in
    fresh state and cache directories; ``cells`` as for ``scaled``."""

    def figure(name, **cells):
        spec = scaled(PAPER, only=[name], **BENCH, **cells)
        options = dict(state_root=tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
        return run_once(benchmark, lambda: run(spec, **options))

    return figure
