"""Backend-equivalence suite for the :mod:`repro.kernels` layer.

Every Viterbi backend (blocked NumPy, and the C kernel when a compiler
exists) must produce bit-identical output to the pure-Python scalar
oracle — including on ties.  Strict equality is asserted on
exact-arithmetic inputs (integer-scaled LLRs, hard decisions, erasures),
per the exactness contract in :mod:`repro.kernels.dispatch`; generic
float behaviour is pinned end-to-end by CRC-verified golden packets on
all eight 802.11a rates, with and without erasure masks.

The demap / scramble / energy kernels are shared by all backends, so
they are checked once against their scalar oracles.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro.channel import IndoorChannel
from repro.cos.energy import EnergyDetector
from repro.kernels import (
    available_backends,
    decode_many,
    prbs_sequence,
    prbs_state_table,
    silence_energies,
    silence_mask,
    use_backend,
    warmup,
)
from repro.kernels import cext, dispatch
from repro.kernels.oracle import (
    demap_hard_oracle,
    scramble_oracle,
    viterbi_decode_oracle,
)
from repro.kernels.tables import MAX_BLOCK
from repro.kernels.viterbi_numpy import decode_blocked
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.convcode import conv_encode
from repro.phy.modulation import MODULATIONS
from repro.phy.params import N_DATA_SUBCARRIERS
from repro.phy.scrambler import Scrambler, scrambler_sequence
from repro.phy.viterbi import ViterbiDecoder, hard_bits_to_llrs

needs_cc = pytest.mark.skipif(
    not cext.compiler_available(), reason="no C compiler on PATH"
)

BACKENDS = ["numpy", pytest.param("cext", marks=needs_cc)]


def _integer_llrs(
    rng, n_info: int, erasure_frac: float = 0.25, tail: bool = True
) -> np.ndarray:
    """Exact-arithmetic LLR battery: integer scales + zeroed erasures.

    Integer-valued LLRs keep every partial path metric integral, so the
    exactness contract guarantees identical output (ties included) from
    every backend regardless of summation order.  ``tail`` appends the six
    zeros that terminate the trellis (``n_info + 6`` steps in all).
    """
    info = rng.integers(0, 2, n_info, dtype=np.uint8)
    if tail:
        info = np.concatenate([info, np.zeros(6, dtype=np.uint8)])
    coded = conv_encode(info)
    llrs = hard_bits_to_llrs(coded).astype(np.float64)
    llrs *= rng.integers(0, 4, llrs.size)  # scale 0 doubles as an erasure
    erase = rng.random(llrs.size) < erasure_frac
    llrs[erase] = 0.0
    return llrs


# ---------------------------------------------------------------------------
# Viterbi: every backend vs the scalar oracle
# ---------------------------------------------------------------------------

#: Stream lengths around the kernels' 256-step renormalisation interval,
#: well past it, and one 512-B packet at 54 Mbps (4,350 steps).
RENORM_STEPS = (255, 256, 257, 600, 4350)


@functools.lru_cache(maxsize=None)
def _renorm_case(n_steps: int, terminated: bool):
    """An integer-LLR stream of ``n_steps`` steps and its oracle decode
    (built once: the scalar oracle takes a while at 4,350 steps)."""
    rng = np.random.default_rng([n_steps, terminated])
    n_info = n_steps - 6 if terminated else n_steps
    llrs = _integer_llrs(rng, n_info, tail=terminated)
    return llrs, viterbi_decode_oracle(llrs, terminated)



class TestViterbiBackendsVsOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_info", [1, 3, 17, 120])
    def test_integer_llr_battery(self, rng, backend, n_info):
        for _ in range(5):
            llrs = _integer_llrs(rng, n_info)
            expected = viterbi_decode_oracle(llrs)
            with use_backend(backend) as be:
                got = be.viterbi_decode(llrs, True)
            assert np.array_equal(got, expected), backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_erasure_input(self, backend):
        """All metrics zero — ties at every single step must still agree."""
        llrs = np.zeros(2 * 50)
        expected = viterbi_decode_oracle(llrs)
        with use_backend(backend) as be:
            got = be.viterbi_decode(llrs, True)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unterminated(self, rng, backend):
        info = rng.integers(0, 2, 90, dtype=np.uint8)
        llrs = hard_bits_to_llrs(conv_encode(info)).astype(np.float64)
        expected = viterbi_decode_oracle(llrs, terminated=False)
        with use_backend(backend) as be:
            got = be.viterbi_decode(llrs, False)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize("n_steps", RENORM_STEPS)
    def test_streams_crossing_renormalisation(self, backend, terminated, n_steps):
        """Both kernels re-centre their metrics every 256 steps (the oracle
        every step): on either side of that boundary, well past it and
        over one 512-B packet, the decoded bits must not move."""
        llrs, expected = _renorm_case(n_steps, terminated)
        with use_backend(backend) as be:
            got = be.viterbi_decode(llrs, terminated)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_stream(self, backend):
        with use_backend(backend) as be:
            assert be.viterbi_decode(np.zeros(0), True).size == 0

    @pytest.mark.parametrize("block", range(1, MAX_BLOCK + 1))
    def test_every_block_size_matches_reference(self, rng, block):
        """Blocked ACS is exact for every fusion depth, incl. remainders."""
        for n_info in (1, 2, block, block + 1, 7 * block + 3, 100):
            llrs = _integer_llrs(rng, n_info)
            assert np.array_equal(
                decode_blocked(llrs, True, block=block),
                viterbi_decode_oracle(llrs, True),
            ), f"block={block} n_info={n_info}"

    def test_noisy_hard_decisions(self, rng):
        """Hard ±1 LLRs with channel errors: exact inputs, every backend."""
        info = rng.integers(0, 2, 200, dtype=np.uint8)
        coded = conv_encode(np.concatenate([info, np.zeros(6, dtype=np.uint8)]))
        corrupted = coded.copy()
        corrupted[::45] ^= 1
        llrs = hard_bits_to_llrs(corrupted).astype(np.float64)
        expected = viterbi_decode_oracle(llrs)
        for backend in available_backends():
            with use_backend(backend) as be:
                assert np.array_equal(be.viterbi_decode(llrs, True), expected)


class TestDecodeMany:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equals_looped_decode(self, rng, backend):
        """Property: batched decode == looping the single-codeword kernel."""
        codewords = [
            _integer_llrs(rng, n) for n in (5, 40, 40, 7, 40, 128, 5)
        ]
        with use_backend(backend) as be:
            batched = decode_many(codewords)
            looped = [be.viterbi_decode(cw, True) for cw in codewords]
        assert len(batched) == len(looped)
        for got, expected in zip(batched, looped):
            assert np.array_equal(got, expected)

    def test_decoder_class_batch_entry_point(self, rng):
        codewords = [_integer_llrs(rng, n) for n in (12, 12, 30)]
        dec = ViterbiDecoder(terminated=True)
        batched = dec.decode_many(codewords)
        for got, cw in zip(batched, codewords):
            assert np.array_equal(got, dec.decode(cw))

    def test_empty_batch(self):
        assert decode_many([]) == []

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            decode_many([np.zeros(3)])


# ---------------------------------------------------------------------------
# Backend dispatch semantics
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_available_backends_contains_core(self):
        expected = {"numpy"} | ({"cext"} if cext.compiler_available() else set())
        assert set(available_backends()) == expected

    def test_use_backend_restores_previous(self):
        before = dispatch.backend_name()
        with use_backend("numpy") as be:
            assert be.name == "numpy"
            assert dispatch.backend_name() == "numpy"
        assert dispatch.backend_name() == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            dispatch.set_backend("fortran")
        # The failed request must not have clobbered the active backend.
        assert dispatch.backend_name() in available_backends()

    @pytest.mark.parametrize("name", ["numba", "reference"])
    def test_deleted_backend_names_rejected(self, name):
        before = dispatch.backend_name()
        with pytest.raises(ValueError, match=r"valid: auto, cext, numpy"):
            dispatch.set_backend(name)
        assert dispatch.backend_name() == before

    def test_env_flag_resolution(self, monkeypatch):
        before = dispatch.backend_name()
        try:
            monkeypatch.setenv(dispatch.ENV_FLAG, "numpy")
            assert dispatch.set_backend(None).name == "numpy"
            monkeypatch.setenv(dispatch.ENV_FLAG, "auto")
            expected = next(
                n for n in dispatch._AUTO_ORDER if n in available_backends()
            )
            assert dispatch.set_backend(None).name == expected
        finally:
            dispatch.set_backend(before)

    def test_warmup_is_idempotent_and_names_backend(self):
        assert warmup() == dispatch.backend_name()
        assert warmup() == dispatch.backend_name()


class TestCextBuildCache:
    """The cached library is named by compiler, flags and source together."""

    def test_equal_inputs_share_a_name(self):
        stem = cext._artifact_stem("/usr/bin/gcc", cext._FLAGS)
        assert stem == cext._artifact_stem("/usr/bin/gcc", tuple(cext._FLAGS))

    def test_compiler_changes_the_name(self):
        assert cext._artifact_stem("/usr/bin/gcc", cext._FLAGS) != (
            cext._artifact_stem("/usr/bin/clang", cext._FLAGS)
        )

    def test_flags_change_the_name(self):
        base = cext._artifact_stem("/usr/bin/gcc", cext._FLAGS)
        assert base != cext._artifact_stem("/usr/bin/gcc", cext._FLAGS[1:])
        assert base != cext._artifact_stem(
            "/usr/bin/gcc", (*cext._FLAGS, "-march=x86-64")
        )
        # Order matters to a compiler, so it matters to the name.
        assert base != cext._artifact_stem("/usr/bin/gcc", cext._FLAGS[::-1])

    def test_source_changes_the_name(self, monkeypatch):
        base = cext._artifact_stem("/usr/bin/gcc", cext._FLAGS)
        monkeypatch.setattr(cext, "_SOURCE", cext._SOURCE + "\n")
        assert base != cext._artifact_stem("/usr/bin/gcc", cext._FLAGS)

    @needs_cc
    def test_new_flags_build_a_new_library(self, monkeypatch, tmp_path):
        """A stale build must not be loaded after the flags change."""
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
        assert cext._build_library() is not None
        monkeypatch.setattr(cext, "_FLAGS", ("-O1", *cext._FLAGS[1:]))
        lib = cext._build_library()
        assert lib is not None
        built = sorted(p for p in os.listdir(tmp_path) if p.endswith(".so"))
        assert len(built) == 2
        assert os.path.basename(lib._name) in built


# ---------------------------------------------------------------------------
# Scramble kernel vs bit-loop oracle
# ---------------------------------------------------------------------------


class TestScrambleKernel:
    @pytest.mark.parametrize("n", [0, 1, 7, 126, 127, 128, 255, 1000])
    @pytest.mark.parametrize("state", [0b1111111, 0b1011101, 1, 64])
    def test_sequence_matches_reference(self, n, state):
        assert np.array_equal(
            scrambler_sequence(n, state),
            scramble_oracle(np.zeros(n, np.uint8), state),
        )

    def test_scramble_matches_oracle(self, rng):
        bits = rng.integers(0, 2, 733, dtype=np.uint8)
        for state in (0b1011101, 0b0000001, 0b1111111):
            got = Scrambler(state).scramble(bits)
            assert np.array_equal(got, scramble_oracle(bits, state))

    def test_state_table_rows_are_prbs_prefixes(self):
        table = prbs_state_table()
        assert table.shape == (127, 7)
        for state in (1, 2, 87, 127):
            assert np.array_equal(table[state - 1], prbs_sequence(7, state))

    def test_recover_state_roundtrip(self):
        for state in (1, 45, 93, 127):
            prefix = prbs_sequence(16, state)  # scrambled zero-bits = keystream
            assert Scrambler.recover_state(prefix[:7]) == state

    def test_sequence_period_is_127(self):
        seq = prbs_sequence(3 * 127, 0b1111111)
        assert np.array_equal(seq[:127], seq[127:254])
        assert np.array_equal(seq[:127], seq[254:])


# ---------------------------------------------------------------------------
# Demap kernel vs scalar oracle
# ---------------------------------------------------------------------------


class TestDemapKernel:
    @pytest.mark.parametrize("name", sorted(MODULATIONS))
    def test_hard_decisions_match_oracle(self, rng, name):
        mod = MODULATIONS[name]
        symbols = (rng.normal(size=256) + 1j * rng.normal(size=256)) * 0.8
        got = mod.demap_hard(symbols)
        expected = demap_hard_oracle(symbols, mod.pam_levels, name != "bpsk")
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(MODULATIONS))
    def test_map_demap_roundtrip(self, rng, name):
        mod = MODULATIONS[name]
        bits = rng.integers(0, 2, 96 * mod.bits_per_symbol, dtype=np.uint8)
        assert np.array_equal(mod.demap_hard(mod.map_bits(bits)), bits)

    @pytest.mark.parametrize("name", sorted(MODULATIONS))
    def test_soft_signs_agree_with_hard(self, rng, name):
        """Max-log LLR sign (positive ⇒ bit 0) must match the hard slicer."""
        mod = MODULATIONS[name]
        symbols = mod.map_bits(
            rng.integers(0, 2, 64 * mod.bits_per_symbol, dtype=np.uint8)
        ) + 0.05 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        llrs = mod.demap_soft(symbols)
        hard = mod.demap_hard(symbols)
        decided = llrs != 0.0
        assert np.array_equal((llrs[decided] < 0), hard[decided].astype(bool))

    @staticmethod
    def _soft_reference(mod, symbols, csi):
        """Scalar max-log demapper: per symbol, per axis, per bit."""
        levels = [float(v) for v in mod.pam_levels]
        m = mod.bits_per_axis
        llrs = []
        for x, w in zip(symbols, csi):
            axes = [x.real] if mod.name == "bpsk" else [x.real, x.imag]
            for obs in axes:
                d2 = [(obs - lv) * (obs - lv) for lv in levels]
                for b in range(m):
                    bit = [(label >> (m - 1 - b)) & 1 for label in range(len(levels))]
                    d1 = min(d for d, v in zip(d2, bit) if v == 1)
                    d0 = min(d for d, v in zip(d2, bit) if v == 0)
                    llrs.append((d1 - d0) * w)
        return np.array(llrs)

    @pytest.mark.parametrize("name", sorted(MODULATIONS))
    def test_soft_llrs_equal_scalar_reference(self, rng, name):
        """Exact LLRs, including ties at 0, level midpoints and ±levels."""
        mod = MODULATIONS[name]
        levels = np.sort(mod.pam_levels)  # symmetric: ±every level
        edges = np.concatenate([[0.0], levels, (levels[1:] + levels[:-1]) / 2])
        special = edges[:, None] + 1j * edges[None, :]
        symbols = np.concatenate([
            special.reshape(-1),
            mod.map_bits(rng.integers(0, 2, 64 * mod.bits_per_symbol, dtype=np.uint8)),
            0.7 * (rng.normal(size=64) + 1j * rng.normal(size=64)),
        ])
        n = symbols.size
        vector_csi = rng.exponential(size=n)
        for csi, ref_csi in ((vector_csi, vector_csi), (2.5, [2.5] * n), (1.0, [1.0] * n)):
            got = mod.demap_soft(symbols, csi)
            assert np.array_equal(got, self._soft_reference(mod, symbols, ref_csi))

    @pytest.mark.parametrize("name", sorted(MODULATIONS))
    def test_cached_tables_are_immutable(self, name):
        mod = MODULATIONS[name]
        mod.prewarm()
        assert {"_label_bits", "_bit0_labels", "_bit1_labels"} <= set(vars(mod))
        for table in (mod.pam_levels, mod.constellation, mod._label_bits,
                      mod._bit0_labels, mod._bit1_labels):
            with pytest.raises((ValueError, RuntimeError)):
                table[0] = 0


# ---------------------------------------------------------------------------
# Energy kernel vs naive computation
# ---------------------------------------------------------------------------


class TestEnergyKernel:
    def test_energies_match_naive(self, rng):
        grid = rng.normal(size=(12, N_DATA_SUBCARRIERS)) + 1j * rng.normal(
            size=(12, N_DATA_SUBCARRIERS)
        )
        control = np.array([0, 5, 17, 40], dtype=np.int64)
        got = silence_energies(grid, control)
        expected = np.abs(grid[:, control]) ** 2
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_mask_scalar_and_per_subcarrier_thresholds(self, rng):
        energies = rng.exponential(size=(9, 4))
        assert np.array_equal(silence_mask(energies, 0.7), energies < 0.7)
        per_sc = np.array([0.1, 0.5, 1.0, 2.0])
        assert np.array_equal(silence_mask(energies, per_sc), energies < per_sc)

    def test_detector_end_to_end_equals_naive_loop(self, rng):
        grid = 0.2 * (
            rng.normal(size=(8, N_DATA_SUBCARRIERS))
            + 1j * rng.normal(size=(8, N_DATA_SUBCARRIERS))
        )
        grid[3, 10] = 0.001  # a clear silence cell
        control = [4, 10, 23]
        det = EnergyDetector(margin_db=7.0, adaptive=False)
        report = det.detect(grid, control, noise_var=0.01)
        naive = np.zeros(grid.shape, dtype=bool)
        for t in range(grid.shape[0]):
            for c in control:
                naive[t, c] = abs(grid[t, c]) ** 2 < report.threshold
        assert np.array_equal(report.mask, naive)
        assert report.mask[3, 10]


# ---------------------------------------------------------------------------
# CRC-verified golden packets: all 8 rates x backends x {plain, erasures}
# ---------------------------------------------------------------------------

_GOLDEN_PAYLOAD = bytes(range(120))
_GOLDEN_CACHE: dict = {}


def _golden_observation(mbps: int):
    """One high-SNR received packet per rate, observed once and shared."""
    if mbps not in _GOLDEN_CACHE:
        rate = RATE_TABLE[mbps]
        channel = IndoorChannel.position("C", snr_db=30.0, seed=3 + mbps)
        frame = Transmitter().transmit(build_mpdu(_GOLDEN_PAYLOAD), rate)
        rx = Receiver()
        obs = rx.observe(channel.transmit(frame.waveform))
        assert obs is not None and obs.signal is not None
        _GOLDEN_CACHE[mbps] = (rx, obs)
    return _GOLDEN_CACHE[mbps]


class TestGoldenPackets:
    @pytest.mark.parametrize("mbps", sorted(RATE_TABLE))
    @pytest.mark.parametrize("with_erasures", [False, True])
    def test_all_rates_crc_ok_and_backends_agree(self, mbps, with_erasures):
        rx, obs = _golden_observation(mbps)
        mask = None
        if with_erasures:
            n_symbols = obs.signal.n_data_symbols
            mask = np.zeros((n_symbols, N_DATA_SUBCARRIERS), dtype=bool)
            # Erase two full control subcarriers on alternating symbols —
            # well inside what EVD absorbs at 30 dB SNR.
            mask[::2, 11] = True
            mask[1::2, 35] = True
        psdus = {}
        for backend in available_backends():
            with use_backend(backend):
                result = rx.decode(obs, erasure_mask=mask)
            assert result.ok, f"{backend}: CRC failed at {mbps} Mbps"
            assert result.mpdu.payload == _GOLDEN_PAYLOAD
            psdus[backend] = bytes(result.decoded.psdu)
        anchor = psdus.pop("numpy")
        for backend, psdu in psdus.items():
            assert psdu == anchor, f"{backend} != numpy at {mbps} Mbps"
