"""Array kernels for the fast medium: parity with the scalar channel code."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

from repro.link.frame import BROADCAST, Frame

from repro.phy.channel import ChannelModel
from repro.phy import vector
from repro.phy.lqi import LQI_MAX, LQI_MIN, _LQI_SPAN, LqiModel
from repro.phy.modulation import BER_MODELS, prr_fast, prr_grid
from repro.phy.radio import Radio, RadioParams
from repro.phy.vector import (
    PRR_TABLE_SNR_MAX_CENTI,
    PRR_TABLE_SNR_MIN_CENTI,
    dbm_to_mw,
    gilbert_advance,
    lqi_sample,
    mean_field_extra_db,
    ou_advance,
    prr_lookup,
    prr_table,
)
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.rng import RngManager


# ----------------------------------------------------------------------
# Operand forms: the fast medium passes 0-d float64 arrays, tests and other
# callers Python numbers; the kernels must agree bit for bit.
# ----------------------------------------------------------------------
#: The kernels' constant operands as first written, before they became 0-d
#: arrays.
_LITERALS = {
    "_ZERO": 0.0,
    "_ONE": 1.0,
    "_HUNDRED": 100.0,
    "_PRR_FLOOR_DB": -8.0,
    "_PRR_MIN_CENTI": PRR_TABLE_SNR_MIN_CENTI,
    "_LQI_MIN_F": LQI_MIN,
    "_LQI_MAX_F": LQI_MAX,
    "_LQI_SPAN_F": _LQI_SPAN,
}

#: ``form(x)`` turns a caller's operand into one form.
OPERAND_FORMS = (float, np.array)


@contextmanager
def operand_form(form):
    """Run the kernels with every constant operand in one form: under
    ``float`` the module's 0-d constants are the Python literals they
    replaced; under ``np.array`` they stay 0-d arrays."""
    with pytest.MonkeyPatch.context() as patch:
        if form is float:
            for name, literal in _LITERALS.items():
                assert getattr(vector, name).shape == ()
                patch.setattr(vector, name, literal)
        yield form


# ----------------------------------------------------------------------
# PRR table/gather: bit-identical to the scalar fast path
# ----------------------------------------------------------------------
class _RecordingDraw(float):
    """A receiver's uniform draw (0.5) that records the PRR the exact
    medium compares it with, then decodes regardless."""

    def __new__(cls, log):
        draw = float.__new__(cls, 0.5)
        draw.log = log
        return draw

    def __ge__(self, prr):
        self.log.append(prr)
        return False


class _Sink:
    def __init__(self, node_id, params):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id, params=params)
        self.infos = []

    def on_frame_received(self, frame, info):
        self.infos.append(info)


def _exact_loop_prr(modulation, snrs, length_bytes):
    """``(SINR, PRR)`` pairs as the exact medium's reception loop decides them.

    A two-node static channel; the sender's power is tuned bit by bit
    toward each target SINR (reached exactly where the float grid allows),
    and the recording draw forces a decode so the RxInfo reports the SINR
    of the lookup.
    """
    params = RadioParams(modulation=modulation)
    rng = RngManager(1)
    channel = ChannelModel(
        {0: (0.0, 0.0), 1: (5.0, 0.0)},
        rng.fork("ch"),
        shadowing_sigma_db=0.0,
        temporal_sigma_db=0.0,
    )
    engine = Engine()
    medium = RadioMedium(engine, channel, rng)
    sender, sink = _Sink(0, params), _Sink(1, params)
    medium.attach(sender)
    medium.attach(sink)
    medium.finalize()
    row = medium._rx_rows[0][0]
    gain, noise_db = row[1], row[4]
    prrs = []
    row[8] = lambda: _RecordingDraw(prrs)
    for snr in snrs:
        power = snr - gain + noise_db
        for _ in range(64):
            got = (power + gain) - noise_db
            if got == snr:
                break
            power = math.nextafter(power, math.inf if got < snr else -math.inf)
        sender.radio.tx_power_dbm = power
        medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=length_bytes - 6))
        engine.run()
    sinrs = [info.snr_db for info in sink.infos]
    assert sinrs == pytest.approx(list(snrs), abs=1e-12)
    # The short-circuit edges themselves are always reachable to the bit.
    assert all(got == snr for got, snr in zip(sinrs, snrs) if snr in (-8.0, 25.0))
    assert len(prrs) == len(sinrs)
    return list(zip(sinrs, prrs))


def test_prr_lookup_matches_scalar_prr_fast():
    table = prr_table("oqpsk-dsss", 44)
    snrs = np.asarray([-12.0, -8.0, -7.99, -3.2, 0.0, 1.234, 7.77, 24.99, 25.0, 30.0])
    vec = prr_lookup(table, snrs)
    for snr, p in zip(snrs.tolist(), vec.tolist()):
        assert p == prr_fast("oqpsk-dsss", snr, 44)  # exact equality
    for snr, p in _exact_loop_prr("oqpsk-dsss", snrs.tolist(), 44):
        assert p == prr_fast("oqpsk-dsss", snr, 44)


def test_prr_lookup_dense_sweep_bit_identical():
    table = prr_table("oqpsk-dsss", 28)
    centi = np.arange(PRR_TABLE_SNR_MIN_CENTI - 50, PRR_TABLE_SNR_MAX_CENTI + 50, 7)
    snrs = centi / 100.0
    vec = prr_lookup(table, snrs)
    for snr, p in zip(snrs.tolist(), vec.tolist()):
        assert p == prr_fast("oqpsk-dsss", snr, 28)
    for snr, p in _exact_loop_prr("oqpsk-dsss", snrs.tolist()[::5], 28):
        assert p == prr_fast("oqpsk-dsss", snr, 28)


@pytest.mark.parametrize("modulation", sorted(BER_MODELS))
def test_prr_lookup_short_circuit_edges_match_prr_fast(modulation):
    """The edges the lookup serves without an explicit short-circuit: the
    clipped gather above +25 dB and the masked store at or below −8 dB."""
    table = prr_table(modulation, 44)
    snrs = np.asarray([-8.0, -8.004, -7.996, 24.995, 25.0, 40.0])
    for form in OPERAND_FORMS:
        with operand_form(form):
            got = prr_lookup(table, snrs).tolist()
        for snr, p in zip(snrs.tolist(), got):
            assert p == prr_fast(modulation, snr, 44), (form, snr)
    for snr, p in _exact_loop_prr(modulation, snrs.tolist(), 44):
        assert p == prr_fast(modulation, snr, 44), snr


@pytest.mark.parametrize("modulation", sorted(BER_MODELS))
def test_prr_table_saturates_at_exactly_one(modulation):
    """``prr_lookup`` relies on the last entry being exactly 1.0."""
    for length in (1, 5, 11, 20, 28, 44, 64, 100, 127, 133, 255):
        assert prr_table(modulation, length)[-1] == 1.0


def test_prr_lookup_leaves_table_untouched():
    table = prr_table("oqpsk-dsss", 44)
    before = table.copy()
    prr_lookup(table, np.asarray([-30.0, -8.0, 0.0, 30.0]))
    assert np.array_equal(table, before)


def _oqpsk_ber_closed_form(snr_db):
    """IEEE 802.15.4 O-QPSK/DSSS bit error rate (Zuniga & Krishnamachari):
    BER = (8/15)·(1/16)·Σ_{k=2}^{16} (−1)^k·C(16,k)·exp(20·γ·(1/k − 1))."""
    gamma = 10.0 ** (snr_db / 10.0)
    total = sum(
        (-1) ** k * math.comb(16, k) * math.exp(20.0 * gamma * (1.0 / k - 1.0))
        for k in range(2, 17)
    )
    return min(max(8.0 / 15.0 / 16.0 * total, 0.0), 1.0)


@pytest.mark.parametrize("length", [11, 28, 44, 133])
def test_prr_table_matches_oqpsk_closed_form(length):
    table = prr_grid("oqpsk-dsss", length)
    assert list(table) == prr_table("oqpsk-dsss", length).tolist()
    for i, p in enumerate(table):
        snr = (PRR_TABLE_SNR_MIN_CENTI + i) / 100.0
        truth = (1.0 - _oqpsk_ber_closed_form(snr)) ** (8 * length)
        assert p == pytest.approx(truth, rel=1e-12, abs=0.0), snr


def test_prr_table_monotone_and_bounded():
    table = prr_table("oqpsk-dsss", 44)
    assert table.size == PRR_TABLE_SNR_MAX_CENTI - PRR_TABLE_SNR_MIN_CENTI + 1
    assert np.all(table >= 0.0) and np.all(table <= 1.0)
    assert np.all(np.diff(table) >= -1e-12)  # PRR never decreases with SNR


# ----------------------------------------------------------------------
# OU advance: marginal statistics and freeze behavior
# ----------------------------------------------------------------------
def test_ou_advance_freeze_keeps_state():
    for form in OPERAND_FORMS:
        x = np.asarray([1.0, -2.0])
        t_last = np.asarray([10.0, 10.0])
        gen = Generator(PCG64(1))
        with operand_form(form):
            out = ou_advance(
                x, t_last, np.arange(2), 10.0005, form(60.0), form(1.5), form(0.6),
                gen.standard_normal,
            )
        assert out.tolist() == [1.0, -2.0]  # within freeze window: untouched
        assert t_last.tolist() == [10.0, 10.0]


def test_ou_advance_long_horizon_stationary_std():
    n = 20000
    x = np.zeros(n)
    t_last = np.zeros(n)
    gen = Generator(PCG64(2))
    out = ou_advance(x, t_last, np.arange(n), 1000.0, 60.0, 1.5, 0.01, gen.standard_normal)
    # dt >> tau: the state is a fresh N(0, sigma) draw.
    assert abs(float(np.std(out)) - 1.5) < 0.05
    assert abs(float(np.mean(out))) < 0.05


def test_ou_advance_short_step_decay():
    n = 20000
    x = np.full(n, 3.0)
    t_last = np.zeros(n)
    gen = Generator(PCG64(3))
    dt = 6.0
    out = ou_advance(x, t_last, np.arange(n), dt, 60.0, 1.5, 0.01, gen.standard_normal)
    assert abs(float(np.mean(out)) - 3.0 * math.exp(-dt / 60.0)) < 0.05


def _ou_loop_reference(x, t_last, slots, t_now, tau_s, sigma_db, freeze_s, normals):
    """The OU recurrence one slot at a time, consuming ``normals`` in slot
    order for the moving slots.  ``np.exp`` on a scalar, not ``math.exp``:
    the two disagree in the last bit on a few percent of inputs, and the
    kernel is pinned to numpy's."""
    draws = iter(normals.tolist())
    out = []
    for slot in slots.tolist():
        dt = t_now - float(t_last[slot])
        if dt > freeze_s:
            decay = float(np.exp(-dt / tau_s))
            innovation = sigma_db * math.sqrt(max(0.0, 1.0 - decay * decay))
            x[slot] = float(x[slot]) * decay + innovation * next(draws)
            t_last[slot] = t_now
        out.append(float(x[slot]))
    assert next(draws, None) is None, "every draw belongs to a moving slot"
    return out


@settings(max_examples=80, deadline=None)
@given(
    n_pairs=st.integers(1, 40),
    data=st.data(),
    frozen=st.sampled_from(["none", "all", "some"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ou_advance_matches_scalar_loop_bit_for_bit(n_pairs, data, frozen, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.5, n_pairs)
    t_now, freeze_s = 100.0, 0.6
    # Moving slots were last queried 1 ms .. 300 s ago; frozen ones inside
    # the freeze window.
    t_last = t_now - rng.uniform(1e-3 + freeze_s, 300.0, n_pairs)
    slots = np.asarray(
        data.draw(st.lists(st.integers(0, n_pairs - 1), min_size=1, unique=True)),
        dtype=np.int64,
    )
    if frozen == "all":
        t_last[slots] = t_now - freeze_s / 2
    elif frozen == "some":
        hold = data.draw(st.lists(st.sampled_from(slots.tolist()), min_size=1, unique=True))
        t_last[hold] = t_now - freeze_s / 2
    n_moving = int(np.count_nonzero(t_now - t_last[slots] > freeze_s))
    normals = Generator(PCG64(seed)).standard_normal(n_moving)

    x_ref, t_ref = x.copy(), t_last.copy()
    expected = _ou_loop_reference(x_ref, t_ref, slots, t_now, 60.0, 1.5, freeze_s, normals)
    for form in OPERAND_FORMS:
        x_got, t_got = x.copy(), t_last.copy()
        draw = Generator(PCG64(seed)).standard_normal
        with operand_form(form):
            out = ou_advance(
                x_got, t_got, slots, t_now, form(60.0), form(1.5), form(freeze_s), draw
            )
        assert out.tolist() == expected, form
        assert x_got.tolist() == x_ref.tolist()
        assert t_got.tolist() == t_ref.tolist()


# ----------------------------------------------------------------------
# LQI block: the scalar LqiModel, fed the same normal draws
# ----------------------------------------------------------------------
class _FixedGauss:
    """Stands in for ``random.Random``: ``gauss`` replays given draws."""

    def __init__(self, normals):
        self._draws = iter(normals)

    def gauss(self, mu, sigma):
        return mu + next(self._draws) * sigma


@settings(max_examples=60, deadline=None)
@given(
    sinrs=st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_lqi_sample_matches_scalar_model(sinrs, seed):
    model = LqiModel()
    normals = Generator(PCG64(seed)).standard_normal(len(sinrs))
    scalar = _FixedGauss(normals.tolist())
    expected = [model.sample(s, scalar) for s in sinrs]
    for form in OPERAND_FORMS:
        with operand_form(form):
            got = lqi_sample(
                np.asarray(sinrs),
                form(model.midpoint_snr_db),
                form(model.slope_db),
                form(model.noise_sigma),
                normals.copy(),  # scaled in place
            )
        assert got.dtype == np.int64
        assert got.tolist() == expected, form


def test_lqi_sample_clamps_to_hardware_range():
    for form in OPERAND_FORMS:
        normals = np.asarray([-10.0, 10.0, 0.0])
        with operand_form(form):
            got = lqi_sample(
                np.asarray([-10.0, 40.0, 3.0]), form(3.0), form(1.8), form(50.0), normals
            )
        assert got.tolist() == [40, 110, 75], form


# ----------------------------------------------------------------------
# Gilbert advance: stationary occupancy and short-dt stickiness
# ----------------------------------------------------------------------
def test_gilbert_advance_stationary_fraction():
    n = 20000
    faded = np.zeros(n, dtype=bool)
    t_last = np.zeros(n)
    gen = Generator(PCG64(4))
    out = gilbert_advance(faded, t_last, np.arange(n), 1e6, 80.0, 240.0, gen.random)
    pi_f = 80.0 / (80.0 + 240.0)
    assert abs(float(np.mean(out)) - pi_f) < 0.02


def test_gilbert_advance_short_dt_sticky():
    n = 20000
    faded = np.ones(n, dtype=bool)
    t_last = np.zeros(n)
    gen = Generator(PCG64(5))
    out = gilbert_advance(faded, t_last, np.arange(n), 0.01, 80.0, 240.0, gen.random)
    assert float(np.mean(out)) > 0.99  # dwell times are minutes, dt is 10 ms


# ----------------------------------------------------------------------
# Mean-field corrections and unit helpers
# ----------------------------------------------------------------------
def test_mean_field_extra_matches_closed_forms():
    ou, bim = mean_field_extra_db(1.5, 0.3, 15.0, 80.0, 240.0)
    assert ou == pytest.approx(1.5 * 1.5 * math.log(10.0) / 20.0)
    pi_f = 80.0 / 320.0
    factor = (1 - pi_f) + pi_f * 10 ** (-1.5)
    assert bim == pytest.approx(10.0 * math.log10(factor))
    ou0, bim0 = mean_field_extra_db(0.0, 0.0, 15.0, 80.0, 240.0)
    assert ou0 == 0.0 and bim0 == 0.0


def test_dbm_to_mw():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3)
    vals = dbm_to_mw(np.asarray([10.0, -math.inf]))
    assert vals[0] == pytest.approx(10.0)
    assert vals[1] == 0.0
