"""Batched receive path + PRR surrogate tables.

The tentpole contract of the batch PHY: ``Receiver.receive_many`` is
**bit-for-bit** equal to looping :meth:`Receiver.receive` — same soft
metrics, same channel/noise estimates, same PSDUs, same CRC outcomes —
across every 802.11a rate, both decision modes, and erasure-mask
batches.  Batching is a scheduling change, never a numerical one.

On top of that path sit the surrogate tables: real-PHY PRR sweeps,
monotone-fitted and serialised.  Their contract is measured-value
replay — on the grid, the table returns exactly what re-running the
measurement returns, and the CoS curve is bit-compatible with
``cos_fidelity="phy"``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.channel import IndoorChannel
from repro.engine import make_specs, run_batched_trials, run_trials
from repro.kernels.interleave import (
    deinterleave_rx_numpy,
    deinterleave_rx_oracle,
)
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.preamble import (
    estimate_channel,
    estimate_channel_batch,
    estimate_noise_from_ltf,
    estimate_noise_from_ltf_batch,
)
from repro.phy.receiver import _as_waveform_batch
from repro.phy.surrogate import (
    TABLE_VERSION,
    SurrogateSpec,
    SurrogateTable,
    load_default_table,
    monotone_fit,
)

ALL_RATES = sorted(RATE_TABLE)


# ---------------------------------------------------------------------------
# Bit-for-bit equivalence: receive_many == looped receive
# ---------------------------------------------------------------------------


def _make_batch(mbps, snr_db, n_pkts, seed, mask_frac=0.0):
    """Transmit ``n_pkts`` same-spec packets over an evolving channel."""
    rate = RATE_TABLE[mbps]
    rng = np.random.default_rng(seed + mbps)
    tx = Transmitter()
    psdu = build_mpdu(bytes(rng.integers(0, 256, 60, dtype=np.uint8)))
    n_sym = tx.n_data_symbols_for(len(psdu), rate)
    channel = IndoorChannel.position("A", snr_db=snr_db, seed=seed + mbps)
    waves, masks = [], []
    for _ in range(n_pkts):
        channel.evolve(1e-3)
        mask = rng.random((n_sym, 48)) < mask_frac if mask_frac else None
        frame = tx.transmit(psdu, rate, silence_mask=mask)
        waves.append(channel.transmit(frame.waveform))
        masks.append(mask)
    return waves, masks


def _assert_results_identical(single, batched, tag):
    assert (single.signal is None) == (batched.signal is None), tag
    if single.signal is not None:
        assert single.signal == batched.signal, tag
    assert (single.observation is None) == (batched.observation is None), tag
    if single.observation is not None:
        so, bo = single.observation, batched.observation
        assert np.array_equal(so.h_est, bo.h_est), (tag, "h_est")
        assert np.array_equal(so.h_data, bo.h_data), (tag, "h_data")
        assert so.noise_var == bo.noise_var, (tag, "noise_var")
        assert np.array_equal(so.raw_data_grid, bo.raw_data_grid), (tag, "raw")
        assert np.array_equal(so.eq_data_grid, bo.eq_data_grid), (tag, "eq")
    assert single.ok == batched.ok, (tag, "fcs")
    assert single.mpdu.payload == batched.mpdu.payload, (tag, "payload")
    if single.pre_viterbi_bits is None:
        assert batched.pre_viterbi_bits is None, tag
    else:
        assert np.array_equal(single.pre_viterbi_bits,
                              batched.pre_viterbi_bits), (tag, "metrics")
    if single.decoded is None:
        assert batched.decoded is None, tag
    else:
        assert single.decoded.psdu == batched.decoded.psdu, (tag, "psdu")
        assert np.array_equal(single.decoded.descrambled_bits,
                              batched.decoded.descrambled_bits), tag
        assert np.array_equal(single.decoded.scrambled_bits,
                              batched.decoded.scrambled_bits), tag


@pytest.mark.parametrize("decision", ["soft", "hard"])
@pytest.mark.parametrize("mbps", ALL_RATES)
def test_receive_many_matches_looped_receive(mbps, decision):
    """All 8 rates x both decisions, clean and erased, mid and low SNR."""
    rx = Receiver(decision=decision)
    for snr_db, mask_frac, seed in (
        (14.0, 0.0, 0),  # working region, no erasures
        (8.0, 0.08, 100),  # near threshold, per-packet erasure masks
    ):
        waves, masks = _make_batch(mbps, snr_db, n_pkts=3, seed=seed,
                                   mask_frac=mask_frac)
        singles = [rx.receive(w, m) for w, m in zip(waves, masks)]
        batched = rx.receive_many(np.stack(waves), masks)
        assert len(batched) == len(singles)
        for i, (s, b) in enumerate(zip(singles, batched)):
            _assert_results_identical(s, b, (mbps, decision, snr_db, i))


def test_receive_many_low_snr_failed_decodes():
    """Below the waterfall the batch path fails identically, too."""
    rx = Receiver()
    waves, masks = _make_batch(54, snr_db=3.0, n_pkts=4, seed=200)
    singles = [rx.receive(w) for w in waves]
    batched = rx.receive_many(np.stack(waves))
    assert any(not s.ok for s in singles)  # the point of this SNR
    for i, (s, b) in enumerate(zip(singles, batched)):
        _assert_results_identical(s, b, ("lowsnr", i))


def test_receive_many_batch_of_one():
    rx = Receiver()
    waves, _ = _make_batch(24, snr_db=16.0, n_pkts=1, seed=7)
    single = rx.receive(waves[0])
    (batched,) = rx.receive_many(waves)
    _assert_results_identical(single, batched, ("batch1",))


def test_observe_many_matches_observe():
    rx = Receiver()
    waves, _ = _make_batch(12, snr_db=12.0, n_pkts=3, seed=3)
    singles = [rx.observe(w) for w in waves]
    batched = rx.observe_many(np.stack(waves))
    for s, b in zip(singles, batched):
        assert s.signal == b.signal
        assert np.array_equal(s.h_est, b.h_est)
        assert s.noise_var == b.noise_var
        assert np.array_equal(s.raw_data_grid, b.raw_data_grid)


def test_waveform_batch_rejects_ragged_and_non_1d():
    """Non-1-D entries are rejected; ragged batches are grouped by length
    and decode exactly like per-packet ``receive``."""
    waves, _ = _make_batch(6, snr_db=20.0, n_pkts=2, seed=1)
    rx = Receiver()
    ragged = [waves[0], waves[1][:-80], waves[1]]
    singles = [rx.receive(w) for w in ragged]
    assert not singles[1].ok  # the truncated packet is a straggler
    for i, (s, b) in enumerate(zip(singles, rx.receive_many(ragged))):
        _assert_results_identical(s, b, ("ragged", i))
    with pytest.raises(ValueError):
        _as_waveform_batch(np.zeros((2, 3, 400), dtype=np.complex128))
    stacked = _as_waveform_batch(waves)
    assert stacked.shape == (2, waves[0].size)
    assert np.array_equal(stacked[0], waves[0])


def test_receive_many_unknown_timing_matches_looped_receive():
    """Matched-filter sync finds a different start in each row; rows are
    trimmed there and stacked by remaining length."""
    rx = Receiver(known_timing=False)
    waves, _ = _make_batch(24, snr_db=18.0, n_pkts=4, seed=5)
    padded = [
        np.concatenate([np.zeros(lead, dtype=np.complex128), wave])
        for wave, lead in zip(waves, (0, 37, 37, 120))
    ]
    singles = [rx.receive(w) for w in padded]
    assert all(s.ok for s in singles)
    for i, (s, b) in enumerate(zip(singles, rx.receive_many(padded))):
        _assert_results_identical(s, b, ("unsync", i))


# ---------------------------------------------------------------------------
# Batched estimators and the gather kernel
# ---------------------------------------------------------------------------


def test_batched_preamble_estimators_match_scalar():
    waves, _ = _make_batch(24, snr_db=10.0, n_pkts=4, seed=11)
    preambles = np.stack(waves)
    h_batch = estimate_channel_batch(preambles)
    noise_batch = estimate_noise_from_ltf_batch(preambles)
    for i, wave in enumerate(waves):
        assert np.array_equal(h_batch[i], estimate_channel(wave))
        assert noise_batch[i] == estimate_noise_from_ltf(wave)


@pytest.mark.parametrize("mbps", ALL_RATES)
def test_deinterleave_rx_numpy_matches_oracle(mbps):
    rate = RATE_TABLE[mbps]
    rng = np.random.default_rng(mbps)
    values = rng.normal(size=3 * rate.n_cbps)
    args = (rate.n_cbps, rate.n_bpsc, rate.code_rate)
    expected = deinterleave_rx_oracle(values, *args)
    assert np.array_equal(deinterleave_rx_numpy(values, *args), expected)
    # Any leading batch shape produces the same per-row output.
    batch = np.stack([values, values[::-1].copy()])
    out = deinterleave_rx_numpy(batch, *args)
    assert np.array_equal(out[0], expected)
    assert np.array_equal(
        out[1], deinterleave_rx_oracle(values[::-1].copy(), *args)
    )


def test_deinterleave_rx_rejects_partial_blocks():
    rate = RATE_TABLE[6]
    with pytest.raises(ValueError):
        deinterleave_rx_numpy(np.zeros(rate.n_cbps + 1), rate.n_cbps,
                              rate.n_bpsc, rate.code_rate)


# ---------------------------------------------------------------------------
# Engine: batched trial runner
# ---------------------------------------------------------------------------


def _trial(spec):
    return (spec.params["x"], float(spec.rng().random()))


def _batch(specs):
    return [_trial(s) for s in specs]


def test_run_batched_trials_matches_run_trials():
    params = [{"x": x} for x in (1, 1, 1, 2, 2, 1)]  # consecutive groups
    flat = run_trials(make_specs(params, seed=42), _trial)
    batched = run_batched_trials(make_specs(params, seed=42), _batch)
    assert batched == flat  # bit-for-bit, order preserved


def test_run_batched_trials_respects_max_batch():
    seen = []

    def counting_batch(specs):
        seen.append(len(specs))
        return [_trial(s) for s in specs]

    params = [{"x": 1}] * 7
    out = run_batched_trials(
        make_specs(params, seed=0), counting_batch, max_batch=3
    )
    assert len(out) == 7
    assert seen == [3, 3, 1]


# ---------------------------------------------------------------------------
# Operating-point probe (the surrogate's measurement primitive)
# ---------------------------------------------------------------------------


def test_measure_operating_point_deterministic_and_sane():
    from repro.cos.link import measure_operating_point

    rate = RATE_TABLE[12]
    points = [
        measure_operating_point(
            IndoorChannel.position("A", snr_db=18.0, seed=2), rate, 6
        )
        for _ in range(2)
    ]
    assert points[0] == points[1]  # pure in its arguments
    assert points[0].n_packets == 6
    assert points[0].prr == 1.0  # well inside the working region


def test_measure_operating_point_with_control_bits():
    from repro.cos.link import measure_operating_point

    point = measure_operating_point(
        IndoorChannel.position("A", snr_db=22.0, seed=4),
        RATE_TABLE[24], 4, control_bits_per_packet=8,
    )
    assert point.n_control_packets == 4
    assert point.prr == 1.0
    assert point.message_accuracy >= 0.5


# ---------------------------------------------------------------------------
# Surrogate tables
# ---------------------------------------------------------------------------

TINY_SPEC = SurrogateSpec(
    channel_seeds=(0,),
    n_packets=4,
    sinr_min_db=6.0,
    sinr_max_db=14.0,
    sinr_step_db=4.0,
    rates_mbps=(6, 24),
    cos_n_packets=2,
)


@pytest.fixture(scope="module")
def tiny_table():
    from repro.phy.surrogate import build_surrogate_table

    return build_surrogate_table(TINY_SPEC)


def test_monotone_fit_is_pava():
    raw = np.array([0.0, 0.4, 0.3, 0.3, 0.9, 0.8, 1.0])
    fit = monotone_fit(raw)
    assert np.all(np.diff(fit) >= 0.0)
    # PAVA pools violators to their mean; sorted input is untouched.
    assert np.allclose(fit[1:4], (0.4 + 0.3 + 0.3) / 3)
    clean = np.array([0.0, 0.25, 0.9, 1.0])
    assert np.array_equal(monotone_fit(clean), clean)


def test_tiny_table_shape_and_fit(tiny_table):
    assert sorted(tiny_table.prr_fit) == [6, 24]
    assert tiny_table.sinr_grid_db.tolist() == [6.0, 10.0, 14.0]
    for rate in (6, 24):
        fit = tiny_table.prr_fit[rate]
        assert np.all(np.diff(fit) >= 0.0)
        assert np.all((fit >= 0.0) & (fit <= 1.0))
    # The satellite tolerance: the monotone fit stays within 2 pp of the
    # raw measurements (PAVA pools, never extrapolates).
    assert tiny_table.max_fit_error() <= 0.02
    assert tiny_table.spec_hash == TINY_SPEC.spec_hash()


def test_tiny_table_replays_measurement(tiny_table):
    """Grid nodes replay the raw measurement bit-for-bit."""
    from repro.phy.surrogate import measure_cos_point, measure_prr_point

    prr = measure_prr_point("A", 10.0, 24, TINY_SPEC.n_packets,
                            TINY_SPEC.payload_octets, channel_seed=0)
    assert prr == tiny_table.prr_raw[24][1]
    cos = measure_cos_point("A", 10, TINY_SPEC.cos_seed,
                            TINY_SPEC.cos_n_packets)
    assert cos == tiny_table.cos_delivery_prob(10.0)


def test_table_json_round_trip(tiny_table, tmp_path):
    path = tmp_path / "table.json"
    tiny_table.save(path)
    loaded = SurrogateTable.load(path)
    assert loaded.spec == tiny_table.spec
    assert loaded.spec_hash == tiny_table.spec_hash
    assert np.array_equal(loaded.sinr_grid_db, tiny_table.sinr_grid_db)
    for rate in tiny_table.prr_fit:
        assert np.array_equal(loaded.prr_raw[rate], tiny_table.prr_raw[rate])
        assert np.array_equal(loaded.prr_fit[rate], tiny_table.prr_fit[rate])
    assert np.array_equal(loaded.cos_accuracy, tiny_table.cos_accuracy)


def test_table_rejects_bad_version_and_hash(tiny_table):
    data = tiny_table.to_dict()
    stale = dict(data, version=TABLE_VERSION + 1)
    with pytest.raises(ValueError, match="version"):
        SurrogateTable.from_dict(stale)
    forged = json.loads(json.dumps(data))
    forged["spec"]["n_packets"] = 999  # spec no longer matches its hash
    with pytest.raises(ValueError, match="hash mismatch"):
        SurrogateTable.from_dict(forged)


def test_table_lookup_semantics(tiny_table):
    t = tiny_table
    # PRR: linear interpolation between grid nodes, clamped outside.
    assert t.prr(6.0, 24) == t.prr_fit[24][0]
    mid = t.prr(8.0, 24)
    lo, hi = sorted((t.prr_fit[24][0], t.prr_fit[24][1]))
    assert lo <= mid <= hi
    assert t.prr(-50.0, 24) == t.prr_fit[24][0]
    assert t.prr(99.0, 24) == t.prr_fit[24][-1]
    with pytest.raises(KeyError, match="54"):
        t.prr(10.0, 54)
    # CoS: integer-dB rounding + clamping (the phy cache's key scheme).
    assert t.cos_delivery_prob(9.6) == t.cos_delivery_prob(10.0)
    assert t.cos_delivery_prob(-80.0) == float(t.cos_accuracy[0])
    assert t.cos_delivery_prob(80.0) == float(t.cos_accuracy[-1])


def test_default_table_committed_and_consistent():
    table = load_default_table()
    assert table.spec == SurrogateSpec()  # built from the default spec
    assert sorted(table.prr_fit) == ALL_RATES
    assert table.max_fit_error() <= 0.02
    for rate in ALL_RATES:
        fit = table.prr_fit[rate]
        assert np.all(np.diff(fit) >= 0.0)
        assert fit[-1] == 1.0  # every rate saturates by 30 dB


def test_sinr_model_wraps_table(tiny_table, tmp_path, monkeypatch):
    from repro.net.sinr import SinrModel

    path = tmp_path / "table.json"
    tiny_table.save(path)
    model = SinrModel.from_path(path)
    assert model.prr(10.0, 24) == tiny_table.prr(10.0, 24)
    assert model.cos_delivery_prob(12.0) == tiny_table.cos_delivery_prob(12.0)
    # default() honours the REPRO_SURROGATE_TABLE override (and caches).
    monkeypatch.setenv("REPRO_SURROGATE_TABLE", str(path))
    monkeypatch.setattr(SinrModel, "_default", None)
    assert SinrModel.default().table.spec_hash == tiny_table.spec_hash
    assert SinrModel.default() is SinrModel.default()
    monkeypatch.setattr(SinrModel, "_default", None)


def test_surrogate_matches_phy_fidelity_on_grid():
    """The bit-compatibility anchor: cos_fidelity="surrogate" returns the
    exact value cos_fidelity="phy" would measure, on the phy cache's own
    integer-dB grid."""
    from repro.net.control import measured_cos_delivery_prob

    table = load_default_table()
    assert table.cos_delivery_prob(20.0) == measured_cos_delivery_prob(20.0)


# ---------------------------------------------------------------------------
# Network wiring
# ---------------------------------------------------------------------------


def test_control_plane_fidelity_validation():
    from repro.net.control import ControlPlane

    class _Collector:
        def on_control_generated(self, msg):
            pass

        def on_control_delivered(self, msg, now):
            pass

    rng = np.random.default_rng(0)
    for fidelity in ("table", "phy", "surrogate"):
        ControlPlane("cos", rng, _Collector(), cos_fidelity=fidelity)
    with pytest.raises(ValueError, match="cos_fidelity"):
        ControlPlane("cos", rng, _Collector(), cos_fidelity="exact")


def test_scenario_with_fidelity():
    from repro.net import builtin_scenario

    spec = builtin_scenario("contention")
    assert spec.cos_fidelity == "table"
    surrogate = spec.with_fidelity("surrogate")
    assert surrogate.cos_fidelity == "surrogate"
    assert surrogate.name == spec.name
    assert spec.cos_fidelity == "table"  # original untouched


def test_hidden_node_ordering_survives_surrogate_fidelity():
    """The paper's headline — CoS control beats explicit control on the
    hidden-node scenario — must hold under measured-PHY delivery, too."""
    from repro.net import builtin_scenario, run_scenario_sweep, summarize_results

    spec = builtin_scenario(
        "hidden-node", n_packets=60, duration_us=60_000.0
    ).with_fidelity("surrogate")
    goodput = {}
    for control in ("cos", "explicit"):
        results = run_scenario_sweep(
            spec.with_control(control), n_trials=2, seed=9
        )
        goodput[control] = summarize_results(results)["aggregate_goodput_mbps"]
    assert goodput["cos"] > 0.0
    assert goodput["cos"] > goodput["explicit"], goodput
