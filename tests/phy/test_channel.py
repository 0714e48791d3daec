"""Unit tests for the channel model."""

import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from repro.phy import channel as channel_module
from repro.phy.channel import ChannelModel, PathLossModel
from repro.sim.rng import RngManager, derive_seed


def make_channel(**kwargs) -> ChannelModel:
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 25.0)}
    defaults = dict(shadowing_sigma_db=3.0, temporal_sigma_db=1.0, temporal_tau_s=10.0)
    defaults.update(kwargs)
    return ChannelModel(positions, RngManager(5), **defaults)


def test_pathloss_log_distance():
    pl = PathLossModel(pl_d0_db=55.0, exponent=3.0)
    assert pl.loss_db(1.0) == pytest.approx(55.0)
    assert pl.loss_db(10.0) == pytest.approx(85.0)
    assert pl.loss_db(100.0) == pytest.approx(115.0)


def test_pathloss_clamps_below_reference_distance():
    pl = PathLossModel()
    assert pl.loss_db(0.01) == pl.loss_db(1.0)


def test_distance():
    ch = make_channel()
    assert ch.distance(0, 1) == pytest.approx(10.0)
    assert ch.distance(0, 2) == pytest.approx(25.0)


def test_mean_gain_symmetric():
    ch = make_channel()
    assert ch.mean_gain_db(0, 1) == ch.mean_gain_db(1, 0)


def test_mean_gain_deterministic_per_seed():
    a = make_channel().mean_gain_db(0, 1)
    b = make_channel().mean_gain_db(0, 1)
    assert a == b


def test_farther_pairs_have_lower_gain_without_shadowing():
    ch = make_channel(shadowing_sigma_db=0.0)
    assert ch.mean_gain_db(0, 1) > ch.mean_gain_db(0, 2)


def test_no_shadowing_matches_pure_pathloss():
    ch = make_channel(shadowing_sigma_db=0.0)
    assert ch.mean_gain_db(0, 1) == pytest.approx(-ch.pathloss.loss_db(10.0))


def test_gain_symmetric_in_time():
    ch = make_channel()
    assert ch.gain_db(0, 1, 5.0) == ch.gain_db(1, 0, 5.0)


def test_temporal_component_frozen_for_tiny_dt():
    ch = make_channel()
    a = ch.temporal_db(0, 1, 100.0)
    b = ch.temporal_db(0, 1, 100.0005)  # well below 1% of tau
    assert a == b


def test_temporal_component_varies_over_long_times():
    ch = make_channel(temporal_sigma_db=2.0)
    samples = {round(ch.temporal_db(0, 1, t), 6) for t in range(0, 2000, 50)}
    assert len(samples) > 5


def test_temporal_disabled_when_sigma_zero():
    ch = make_channel(temporal_sigma_db=0.0)
    assert ch.temporal_db(0, 1, 123.0) == 0.0


def test_temporal_process_roughly_bounded():
    # OU with sigma=2: excursions beyond 5 sigma are effectively impossible.
    ch = make_channel(temporal_sigma_db=2.0)
    values = [ch.temporal_db(0, 1, t * 7.0) for t in range(500)]
    assert max(abs(v) for v in values) < 10.0


def test_add_position_rejects_duplicates():
    ch = make_channel()
    with pytest.raises(ValueError):
        ch.add_position(0, (5.0, 5.0))


def test_add_position_extends_model():
    ch = make_channel()
    ch.add_position(99, (3.0, 4.0))
    assert ch.distance(0, 99) == pytest.approx(5.0)


def test_bimodal_disabled_by_default():
    ch = make_channel()
    assert ch._fade_db(0, 1, 50.0) == 0.0


def test_bimodal_fraction_one_fades_sometimes():
    ch = make_channel(
        bimodal_fraction=1.0, fade_depth_db=20.0, fade_dwell_s=10.0, good_dwell_s=10.0
    )
    values = {ch._fade_db(0, 1, float(t)) for t in range(0, 500, 5)}
    assert values == {0.0, -20.0}


def test_bimodal_fraction_zero_pairs_never_fade():
    ch = make_channel(bimodal_fraction=0.0)
    assert all(ch._fade_db(0, 1, float(t)) == 0.0 for t in range(0, 100, 10))


def test_bimodal_state_included_in_gain():
    always_faded = make_channel(
        bimodal_fraction=1.0,
        fade_depth_db=30.0,
        fade_dwell_s=1e9,
        good_dwell_s=1e-6,
        temporal_sigma_db=0.0,
    )
    # With a near-certain fade state the gain sits ~30 dB below the mean.
    gain = always_faded.gain_db(0, 1, 1000.0)
    mean = always_faded.mean_gain_db(0, 1)
    assert gain <= mean  # faded or (vanishingly unlikely) equal


def test_instantaneous_extra_combines_components():
    ch = make_channel(temporal_sigma_db=1.0, bimodal_fraction=0.0)
    extra = ch.instantaneous_extra_db(0, 1, 50.0)
    assert extra == pytest.approx(ch.temporal_db(0, 1, 50.0))


def test_per_pair_draws_match_fresh_named_streams():
    """Every per-pair draw equals the same draw from a fresh stream.

    The reference re-derives each value from ``Random(derive_seed(...))``
    streams built here, so one-shot draws (shadowing, OU initial value,
    bimodal membership and initial state) and the stateful OU / dwell
    streams are pinned to the named keys of the determinism contract.
    """
    master = 2**64 - 3
    # Two ids past 2**32, and a node 0.4 m from node 0 (path loss clamps
    # at d0 = 1 m).
    big, huge = 2**32 + 5, 2**40
    positions = {
        0: (0.0, 0.0),
        1: (10.0, 0.0),
        2: (0.0, 25.0),
        7: (40.0, 30.0),
        big: (0.0, 0.4),
        huge: (10.3, 0.2),
    }
    sigma, temporal, tau, fraction = 3.2, 1.5, 10.0, 0.5
    fade_dwell, good_dwell, depth = 8.0, 24.0, 15.0
    ch = ChannelModel(
        positions,
        RngManager(master),
        shadowing_sigma_db=sigma,
        temporal_sigma_db=temporal,
        temporal_tau_s=tau,
        bimodal_fraction=fraction,
        fade_depth_db=depth,
        fade_dwell_s=fade_dwell,
        good_dwell_s=good_dwell,
    )
    pathloss = PathLossModel()

    def fresh(name, a, b):
        return Random(derive_seed(master, name, a, b))

    def ref_mean(a, b):
        lo, hi = min(a, b), max(a, b)
        shadow = fresh("shadow", lo, hi).gauss(0.0, sigma)
        return -pathloss.loss_db(ch.distance(a, b)) + shadow

    def ref_temporal(lo, hi, t0, t1):
        x = fresh("ou-init", lo, hi).gauss(0.0, temporal)
        decay = math.exp(-(t1 - t0) / tau)
        innovation = temporal * math.sqrt(max(0.0, 1.0 - decay * decay))
        return x, x * decay + fresh("ou", lo, hi).gauss(0.0, innovation)

    def ref_fade(lo, hi, t0, t1):
        init = fresh("bimodal", lo, hi)
        if not init.random() < fraction:
            return 0.0, 0.0
        faded = init.random() >= good_dwell / (good_dwell + fade_dwell)
        dwell_stream = fresh("bimodal-dwell", lo, hi)
        out = []
        state_t = t0
        for t in (t0, t1):
            while True:
                dwell = dwell_stream.expovariate(1.0 / (fade_dwell if faded else good_dwell))
                if state_t + dwell > t:
                    break
                state_t += dwell
                faded = not faded
            out.append(-depth if faded else 0.0)
        return out[0], out[1]

    pairs = [(0, 1), (2, 0), (1, 7), (7, 2), (0, 7)]
    # The array path first, with pairs in either order; it fills no cache.
    many = pairs + [(0, big), (huge, big), (1, huge), (huge, 0)]
    assert ch.distance(0, big) < ch.pathloss.d0_m
    ends = np.array(many, dtype=np.int64)
    got = ch.mean_gains(ends[:, 0], ends[:, 1])
    assert got.dtype == np.float64
    assert [g.hex() for g in got.tolist()] == [ref_mean(a, b).hex() for a, b in many]
    assert not ch._mean_gain and not ch._shadowing
    for a, b in many:
        assert ch.mean_gain_db(a, b) == ref_mean(a, b)
    t0, t1 = 1.0, 31.0
    members = 0
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        x0, x1 = ref_temporal(lo, hi, t0, t1)
        f0, f1 = ref_fade(lo, hi, t0, t1)
        assert (ch.temporal_db(a, b, t0), ch._fade_db(a, b, t0)) == (x0, f0)
        assert (ch.temporal_db(b, a, t1), ch._fade_db(b, a, t1)) == (x1, f1)
        members += ch._gilbert[(lo, hi)] is not None
    assert 0 < members < len(pairs)  # both bimodal branches exercised
    # Only the stateful per-pair streams are interned.
    assert {key[0] for key in ch._rng._streams} == {"ou", "bimodal-dwell"}


def _gain_pass_peak(channel, a, b):
    """Bytes of ``mean_gains``' tracemalloc peak above its output array."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = channel.mean_gains(a, b)
    return tracemalloc.get_traced_memory()[1] - before - out.nbytes


def test_gain_pass_transient_memory_is_bounded():
    """The gain pass works in chunks: its transient peak is flat in the
    pair count, and under 107 B/pair (output included) at 79,800 pairs,
    every pair of a 400-node uniform layout."""
    place = Random(4)
    n_nodes = 444  # 98,346 pairs: three full chunks
    positions = {i: (place.uniform(0, 500), place.uniform(0, 500)) for i in range(n_nodes)}
    channel = ChannelModel(positions, RngManager(9))
    a, b = np.triu_indices(n_nodes, 1)
    chunk = channel_module._GAIN_CHUNK
    assert a.size >= 3 * chunk
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        one = _gain_pass_peak(channel, a[:chunk], b[:chunk])
        three = _gain_pass_peak(channel, a[: 3 * chunk], b[: 3 * chunk])
        at_400 = _gain_pass_peak(channel, a[:79_800], b[:79_800]) + 8 * 79_800
    finally:
        if not tracing:
            tracemalloc.stop()
    assert three <= one * 1.05
    assert at_400 <= 107 * 79_800


def test_mean_gains_rejects_an_id_without_position():
    with pytest.raises(KeyError):
        make_channel().mean_gains(np.array([0, 1]), np.array([2, 3]))
