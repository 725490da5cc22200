"""Batched receive path + PRR surrogate tables.

The tentpole contract of the batch PHY: ``Receiver.receive_many`` is
**bit-for-bit** equal to looping :meth:`Receiver.receive` — same soft
metrics, same channel/noise estimates, same PSDUs, same CRC outcomes —
across every 802.11a rate, both decision modes, and erasure-mask
batches.  Batching is a scheduling change, never a numerical one.  The
same holds one layer up: ``CosReceiver.receive_many`` equals looped
``CosReceiver.receive`` in every field, control bits and EVM included.

On top of that path sit the surrogate tables: real-PHY PRR sweeps and
closed-loop CoS delivery counts, monotone-fitted and serialised.  Their
contract is measured-value replay — on the grid, the table's raw curves
hold exactly what re-running the measurement returns, for the PRR
curves and the CoS curve alike.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.channel import IndoorChannel
from repro.cos import CosReceiver, CosTransmitter
from repro.kernels.interleave import deinterleave_rx_numpy
from repro.kernels.oracle import deinterleave_rx_oracle
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.preamble import (
    estimate_channel,
    estimate_channel_and_noise_batch,
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
    fit_cos_curve,
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
    h_joint, noise_joint = estimate_channel_and_noise_batch(preambles)
    assert np.array_equal(h_joint, h_batch)
    assert np.array_equal(noise_joint, noise_batch)
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
# Batched CoS receive: receive_many == looped receive
# ---------------------------------------------------------------------------


def _cos_waves(mbps, snr_db, n_pkts, seed):
    """CoS packets carrying queued control bits over an evolving channel."""
    tx = CosTransmitter()
    channel = IndoorChannel.position("A", snr_db=snr_db, seed=seed)
    rng = np.random.default_rng(seed)
    waves = []
    for _ in range(n_pkts):
        tx.enqueue_control(rng.integers(0, 2, size=16, dtype=np.uint8))
        record = tx.build(bytes(80), RATE_TABLE[mbps], snr_db)
        waves.append(channel.transmit(record.frame.waveform))
        channel.evolve(1e-3)
    return waves


def _assert_cos_results_identical(single, batched, tag):
    _assert_results_identical(single.phy, batched.phy, tag)
    assert single.data_ok == batched.data_ok, tag
    assert single.payload == batched.payload, tag
    assert np.array_equal(single.control_bits, batched.control_bits), tag
    assert single.control_error == batched.control_error, tag
    assert (single.detection is None) == (batched.detection is None), tag
    if single.detection is not None:
        assert np.array_equal(single.detection.mask,
                              batched.detection.mask), (tag, "mask")
    assert (single.evms is None) == (batched.evms is None), tag
    if single.evms is not None:
        assert np.array_equal(single.evms, batched.evms), (tag, "evms")
    assert (single.selection is None) == (batched.selection is None), tag
    if single.selection is not None:
        ss, bs = single.selection, batched.selection
        assert ss.subcarriers == bs.subcarriers, (tag, "selection")
        assert np.array_equal(ss.bit_vector, bs.bit_vector), tag
        assert ss.threshold == bs.threshold, tag


def test_cos_receive_many_matches_looped_receive():
    """One ragged batch: silence-carrying packets at three rates, a
    faded control set, a failed data decode, noise and short inputs."""
    carrying = (_cos_waves(6, 12.0, 3, seed=5) + _cos_waves(24, 18.0, 3, seed=2)
                + _cos_waves(36, 22.0, 2, seed=3))
    # Position A seed 7 at 10 dB: the default control subcarriers sit in
    # a fade, and the third packet fails its CRC.
    faded = _cos_waves(24, 10.0, 3, seed=7)
    rng = np.random.default_rng(9)
    noise = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    stragglers = [noise, carrying[0][:300], carrying[4][:-200]]
    batch = carrying + faded + stragglers

    rx = CosReceiver()
    singles = [rx.receive(w) for w in batch]
    batched = rx.receive_many(batch)
    assert len(batched) == len(batch)
    for i, (s, b) in enumerate(zip(singles, batched)):
        _assert_cos_results_identical(s, b, ("cos", i))

    # The batch reaches every branch it claims to.
    n = len(carrying)
    assert all(s.data_ok and s.control_bits.size for s in singles[n - 2:n])
    assert sum(s.control_bits.size > 0 for s in singles[:n]) >= 6
    assert all("too faded" in s.control_error for s in singles[n:n + 3])
    assert not singles[n + 2].data_ok and singles[n + 2].detection is not None
    assert singles[-3].control_error == "signal field undecodable"
    assert singles[-2].phy.observation is None
    assert not singles[-1].data_ok


def test_measure_prr_point_deterministic_and_sane():
    from repro.phy.surrogate import measure_prr_point

    prrs = [measure_prr_point("A", 18.0, 12, 6, 256, channel_seed=2)
            for _ in range(2)]
    assert prrs[0] == prrs[1]  # pure in its arguments
    assert prrs[0] == 1.0  # well inside the working region


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
    cos_channel_seeds=(0,),
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
    counts = measure_cos_point("A", 10, 0, TINY_SPEC.cos_n_packets)
    node = TINY_SPEC.cos_grid_db().index(10)
    assert counts == (tiny_table.cos_delivered[node],
                      tiny_table.cos_carried[node])


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
    assert np.array_equal(loaded.cos_delivered, tiny_table.cos_delivered)
    assert np.array_equal(loaded.cos_carried, tiny_table.cos_carried)
    assert np.array_equal(loaded.cos_fit, tiny_table.cos_fit)


def test_table_rejects_bad_version_and_hash(tiny_table):
    data = tiny_table.to_dict()
    stale = dict(data, version=TABLE_VERSION + 1)
    with pytest.raises(ValueError, match="version"):
        SurrogateTable.from_dict(stale)
    forged = json.loads(json.dumps(data))
    forged["spec"]["n_packets"] = 999  # spec no longer matches its hash
    with pytest.raises(ValueError, match="hash mismatch"):
        SurrogateTable.from_dict(forged)


def _cut(n):
    return lambda values: values[:-n]


@pytest.mark.parametrize(
    "path,mutate,match",
    [
        (("cos_fit",), _cut(5), "'cos_fit' has shape"),
        (("rates", "24", "prr_fit"), _cut(3), "'rates.24.prr_fit' has shape"),
        (("rates", "6", "prr_raw"), lambda v: [[x] for x in v],
         "'rates.6.prr_raw' has shape"),
        (("sinr_grid_db",), lambda v: [x + 1.0 for x in v], "'sinr_grid_db'"),
        (("cos_grid_db",), _cut(1), "'cos_grid_db'"),
        (("rates",), lambda r: {k: e for k, e in r.items() if k != "54"},
         "'rates' holds"),
        (("rates", "36", "prr_raw"), lambda v: [1.5] + v[1:],
         "'rates.36.prr_raw' holds"),
        (("cos_fit",), lambda v: v[:-1] + [float("nan")],
         "'cos_fit' holds"),
        (("cos_carried",), _cut(2), "'cos_carried' has shape"),
        (("cos_delivered",), lambda v: v[:-1] + [10**6],
         "'cos_delivered' holds"),
        (("rates", "12", "prr_fit"), lambda v: [-0.1] + v[1:],
         "'rates.12.prr_fit' holds"),
    ],
    ids=["cos-cut", "fit-cut", "raw-2d", "sinr-grid", "cos-grid",
         "rate-missing", "raw-above-1", "cos-nan", "carried-cut",
         "delivered-above-carried", "fit-negative"],
)
def test_table_rejects_data_that_does_not_fit_its_spec(path, mutate, match):
    """The hash covers only the spec: the grids and curves are checked
    against it at load, naming the field, instead of failing at lookup."""
    data = json.loads(json.dumps(load_default_table().to_dict()))
    SurrogateTable.from_dict(data)  # the untouched copy loads
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = mutate(parent[path[-1]])
    with pytest.raises(ValueError, match=match):
        SurrogateTable.from_dict(data)


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
    assert t.cos_delivery_prob(-80.0) == float(t.cos_fit[0])
    assert t.cos_delivery_prob(80.0) == float(t.cos_fit[-1])


def test_prr_lookup_is_np_interp_bit_for_bit():
    """The scalar PRR lookup reproduces ``np.interp`` exactly, at and
    beside every grid node and across and beyond the grid."""
    table = load_default_table()
    xp = table.sinr_grid_db
    xs = np.concatenate([
        np.random.default_rng(0).uniform(-40.0, 60.0, 2000), xp,
        np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf),
    ])
    for rate in ALL_RATES:
        expected = np.interp(xs, xp, table.prr_fit[rate])
        assert [table.prr(x, rate) for x in xs] == expected.tolist()
    assert math.isnan(table.prr(float("nan"), 24))


def test_default_table_committed_and_consistent():
    table = load_default_table()
    assert table.spec == SurrogateSpec()  # built from the default spec
    assert sorted(table.prr_fit) == ALL_RATES
    assert table.max_fit_error() <= 0.02
    for rate in ALL_RATES:
        fit = table.prr_fit[rate]
        assert np.all(np.diff(fit) >= 0.0)
        assert fit[-1] == 1.0  # every rate saturates by 30 dB
    assert np.all(np.diff(table.cos_fit) >= 0.0)
    # Every CoS point is a measurement: at least one carrier decoded.
    assert np.all(table.cos_carried > 0)
    assert np.array_equal(table.cos_fit, monotone_fit(table.cos_raw))


@pytest.mark.parametrize("mbps,snr_db", [(24, 10.0), (6, 2.0)])
def test_default_table_replays_mid_waterfall_nodes(mbps, snr_db):
    """Re-measure two committed PRR nodes where detector erasures decide
    which frames survive; the probe must reproduce them exactly."""
    from repro.phy.surrogate import measure_prr_point

    table = load_default_table()
    spec = table.spec
    prr = np.asarray(
        [
            measure_prr_point(spec.position, snr_db, mbps, spec.n_packets,
                              spec.payload_octets, seed)
            for seed in spec.channel_seeds
        ],
        dtype=np.float64,
    ).mean()
    node = table.sinr_grid_db.tolist().index(snr_db)
    assert 0.0 < prr < 1.0
    assert prr == table.prr_raw[mbps][node]


def test_fit_cos_curve_skips_points_without_carriers():
    """A dB where no carrier decoded is no evidence: PAVA runs over the
    measured points and the gap holds the fit below it (0 at the bottom)."""
    fit = fit_cos_curve([0, 3, 0, 1, 4], [0, 4, 0, 4, 4])
    assert fit.tolist() == [0.0, 0.5, 0.5, 0.5, 1.0]
    # With a carrier everywhere it is PAVA of the per-dB ratios.
    assert fit_cos_curve([1, 3, 2], [2, 4, 4]).tolist() == \
        monotone_fit(np.asarray([0.5, 0.75, 0.5])).tolist()
    assert fit_cos_curve([0, 0], [0, 0]).tolist() == [0.0, 0.0]


def test_load_default_table_rejects_another_spec(tiny_table, tmp_path,
                                                 monkeypatch):
    """A table built under another spec (a --quick build written over
    the committed file) is refused, naming both hashes."""
    from repro.phy import surrogate

    path = tmp_path / "surrogate_default.json"
    tiny_table.save(path)
    monkeypatch.setattr(surrogate, "default_table_path", lambda: path)
    surrogate.load_default_table.cache_clear()  # read the file, not the cache
    try:
        with pytest.raises(ValueError, match=(
                f"measured under spec {TINY_SPEC.spec_hash()}, not the default "
                f"spec {SurrogateSpec().spec_hash()}; rebuild")):
            surrogate.load_default_table()
    finally:
        surrogate.load_default_table.cache_clear()


def test_sinr_model_wraps_table():
    """The reception model draws against the committed table, loaded once
    per process; the table is not a setting of it."""
    from repro.net.sinr import ReceptionModel

    table = load_default_table()
    assert load_default_table() is table
    model = ReceptionModel(capture_threshold_db=4.0)
    assert model.table is table
    with pytest.raises(TypeError, match="table"):
        ReceptionModel(table=table)
    # Above capture the draw is against the table's PRR at that SINR.
    p = table.prr(8.0, 24)
    assert 0.0 < p < 1.0
    rng = np.random.default_rng(5)
    draw = float(np.random.default_rng(5).random())
    assert model.decide(8.0, 24, rng) == (
        (True, "ok") if draw < p else (False, "channel_error"))


def test_surrogate_matches_phy_fidelity_on_grid():
    """The bit-compatibility anchor of the CoS curve: re-running the
    closed loop at the table's CoS fields reproduces the committed raw
    value at a mid-curve node, where the fit leaves it untouched."""
    from repro.phy.surrogate import measure_cos_point

    table = load_default_table()
    spec = table.spec
    node = spec.cos_grid_db().index(15)
    counts = np.sum([
        measure_cos_point(spec.cos_position, 15, seed, spec.cos_n_packets)
        for seed in spec.cos_channel_seeds
    ], axis=0)
    assert counts.tolist() == [table.cos_delivered[node],
                               table.cos_carried[node]]
    assert 0.0 < table.cos_raw[node] < 1.0
    assert table.cos_delivery_prob(15.0) == table.cos_fit[node]


# ---------------------------------------------------------------------------
# Network wiring
# ---------------------------------------------------------------------------


def test_hidden_node_ordering_survives_surrogate_fidelity():
    """The paper's headline — CoS control beats explicit control on the
    hidden-node scenario — holds under measured-PHY fates and delivery."""
    from repro.net import builtin_scenario, run_scenario_sweep, summarize_results

    spec = builtin_scenario("hidden-node", n_packets=60, duration_us=60_000.0)
    goodput = {}
    for control in ("cos", "explicit"):
        results = run_scenario_sweep(
            spec.with_control(control), n_trials=2, seed=9
        )
        goodput[control] = summarize_results(results)["aggregate_goodput_mbps"]
    assert goodput["cos"] > 0.0
    assert goodput["cos"] > goodput["explicit"], goodput
