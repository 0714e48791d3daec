"""The batched one-shot Gaussian draw reproduces ``random.Random`` bit for bit.

:func:`repro.phy.vector.seeded_gauss` replaces one Mersenne Twister reseed
per pair at fast-medium set-up, so every value must equal, to the last
bit, what ``random.Random(seed).gauss(0.0, sigma)`` and
``RngManager.once(...).gauss(0.0, sigma)`` return.  Floats are compared by
``float.hex`` so a sign-of-zero difference would fail too.
"""

import random

import numpy as np
import pytest

from repro.phy.vector import seeded_gauss
from repro.sim.rng import RngManager

#: Key-length edges of CPython's ``init_by_array``: one 32-bit word up to
#: 2**32 - 1, two from 2**32 on.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("sigma", [3.2, 1.0])
def test_matches_random_gauss_on_random_and_edge_seeds(sigma):
    draw = random.Random(2024)
    seeds = [draw.getrandbits(64) for _ in range(10_000)]
    seeds += [draw.getrandbits(32) for _ in range(200)] + EDGE_SEEDS
    got = seeded_gauss(np.array(seeds, dtype=np.uint64), sigma)
    want = [random.Random(seed).gauss(0.0, sigma) for seed in seeds]
    assert _hex(got) == _hex(want)


@pytest.mark.parametrize("master", [7, 2**63 + 5])
def test_matches_once_over_once_seeds(master):
    draw = random.Random(master)
    pairs = [(draw.randrange(10_000), draw.randrange(10_000)) for _ in range(300)]
    pairs += [(0, 1), (2**40, 2**40 + 1)]
    rng = RngManager(master)
    got = seeded_gauss(rng.once_seeds("shadow", *zip(*pairs)), 3.2)
    want = [rng.once("shadow", a, b).gauss(0.0, 3.2) for a, b in pairs]
    assert _hex(got) == _hex(want)


def test_no_seeds_no_draws():
    empty = seeded_gauss(bytearray(), 3.2)
    assert empty.dtype == np.float64 and empty.size == 0
    assert RngManager(1).once_seeds("shadow", [], []) == bytearray()
