"""R001 fixture: the campaign sampling pattern.

Random-mode draws and optimize-mode proposals each get their own
derive_seed stream, keyed literal-first (``"campaign"``) and disambiguated
by a second component (``"draw"`` vs ``"optimize"``) plus the round/point
indices — mirroring ``repro.campaign.sweep``.
"""

from random import Random

from repro.sim.rng import derive_seed


def sample_points(seed: int, round_index: int, count: int) -> list:
    return [
        Random(derive_seed(seed, "campaign", "draw", round_index, i)).random()
        for i in range(count)
    ]


def propose(seed: int, round_index: int, count: int) -> list:
    return [
        Random(derive_seed(seed, "campaign", "optimize", round_index, i)).random()
        for i in range(count)
    ]
