"""Independent truth for the temporal fading: the OU closed forms.

A stationary Ornstein–Uhlenbeck process with scale σ and time constant τ
has marginal N(0, σ²) and autocorrelation ``exp(−Δ/τ)`` at lag Δ.  Both
backends are checked against these formulas, not against each other:
``ChannelModel`` (exact, one lazy state per pair) and ``vector.ou_advance``
(fast, one array slot per pair).  Each pair is an independent sample path,
started stationary and read at 0, τ/4, τ and 3τ (by the Markov property
the intermediate reads do not disturb the lag-Δ correlation with time 0).

Bands: the sample correlation's Fisher z is normal with sd
``1/sqrt(n − 3)``; the sample variance over σ² has sd ``sqrt(2/(n − 1))``.
Both are checked at 4 sd with a fixed seed.
"""

import math

import numpy as np

from repro.phy.channel import ChannelModel
from repro.phy.vector import ou_advance
from repro.sim.rng import RngManager

SIGMA_DB = 1.5
TAU_S = 60.0
#: Read times; lags Δ ∈ {τ/4, τ, 3τ} from the first read.
TIMES = (0.0, TAU_S / 4, TAU_S, 3 * TAU_S)
PAIRS = 20000


def assert_ou_closed_form(paths: np.ndarray) -> None:
    """``paths[i, k]`` is pair ``i`` read at ``TIMES[k]``."""
    n = paths.shape[0]
    z_sd = 1.0 / math.sqrt(n - 3)
    var_sd = math.sqrt(2.0 / (n - 1))
    for k, t in enumerate(TIMES):
        ratio = float(np.var(paths[:, k], ddof=1)) / SIGMA_DB**2
        assert abs(ratio - 1.0) < 4 * var_sd, (t, ratio)
        if k == 0:
            continue
        r = float(np.corrcoef(paths[:, 0], paths[:, k])[0, 1])
        expected = math.exp(-t / TAU_S)
        assert abs(math.atanh(r) - math.atanh(expected)) < 4 * z_sd, (t, r, expected)


def test_exact_channel_ou_matches_closed_form():
    channel = ChannelModel(
        {}, RngManager(2024), temporal_sigma_db=SIGMA_DB, temporal_tau_s=TAU_S
    )
    paths = np.array(
        [[channel.temporal_db(0, b, t) for t in TIMES] for b in range(1, PAIRS + 1)]
    )
    assert_ou_closed_form(paths)


def test_fast_ou_advance_matches_closed_form():
    gen = np.random.Generator(np.random.PCG64(2024))
    x = gen.standard_normal(PAIRS) * SIGMA_DB  # stationary start
    t_last = np.zeros(PAIRS)
    slots = np.arange(PAIRS)
    columns = [x.copy()]
    for t in TIMES[1:]:
        columns.append(
            ou_advance(x, t_last, slots, t, TAU_S, SIGMA_DB, 0.01 * TAU_S, gen.standard_normal)
        )
    assert_ou_closed_form(np.column_stack(columns))
