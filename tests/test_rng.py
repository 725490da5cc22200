"""Unit tests for repro.utils.rng.

The owner streams are checked against numpy itself: owner ``k`` of
``SubStreams(root, *key)`` must draw what ``Generator(PCG64(SeedSequence
(root.entropy, spawn_key=root.spawn_key + key)))`` advanced by
``k << 64`` draws does, bit for bit.
"""

import numpy as np
import pytest

from repro.utils.rng import OwnerStream, SubStreams, make_rng, named_rng


class TestMakeRng:
    def test_from_int_reproducible(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestNamedRng:
    def test_streams_differ(self):
        root = np.random.SeedSequence(1)
        draws = {int(named_rng(root, *key).integers(0, 10**9))
                 for key in [(0,), (1,), (0, 0), (0, 1), (1, 0)]}
        assert len(draws) == 5

    def test_reproducible(self):
        first = [named_rng(np.random.SeedSequence(42), k).integers(0, 10**9)
                 for k in range(3)]
        second = [named_rng(np.random.SeedSequence(42), k).integers(0, 10**9)
                  for k in range(3)]
        assert first == second

    def test_pure_in_root_and_key(self):
        # The root is not mutated, so order and repetition do not matter.
        root = np.random.SeedSequence(7)
        forward = [named_rng(root, 3, k).random() for k in range(4)]
        backward = [named_rng(root, 3, k).random() for k in reversed(range(4))]
        assert forward == backward[::-1]
        assert named_rng(root, 3, 0).random() == forward[0]
        assert root.n_children_spawned == 0

    def test_extends_the_spawn_key(self):
        # A name is a spawn-key suffix: the trial's k-th child equals the
        # stream named (k,) under the root.
        root = np.random.SeedSequence(5)
        expected = [np.random.default_rng(c).random() for c in root.spawn(2)]
        fresh = np.random.SeedSequence(5)
        assert [named_rng(fresh, k).random() for k in range(2)] == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            named_rng(np.random.SeedSequence(1), -1)


def _reference(root, key, owner):
    """numpy's own stream of ``owner``: the oracle."""
    bits = np.random.PCG64(np.random.SeedSequence(
        root.entropy, spawn_key=tuple(root.spawn_key) + key))
    bits.advance(owner << 64)
    return np.random.Generator(bits)


OWNERS = [0, 1, 2**63, 2**64 - 1]
#: One value (no draw), odd and power-of-two spans, and a span past
#: 2**31 whose draws are rejected about half the time.
SPANS = [1, 3, 16, 1024, 2**31 + 1]


class TestOwnerStream:
    def test_owner_is_a_sub_stream_of_the_key(self):
        # An owner's stream is the key's stream advanced by owner * 2**64.
        root = np.random.SeedSequence(9).spawn(2)[1]
        reference = _reference(root, (3,), 5)
        stream = SubStreams(root, 3)[5]
        assert [stream.random() for _ in range(4)] == \
            reference.random(4).tolist()

    @pytest.mark.parametrize("owner", OWNERS)
    def test_closed_form_jump_equals_pcg64_advance(self, owner):
        root = np.random.SeedSequence([4, 2**40], spawn_key=(2,))
        subs = SubStreams(root, 7)
        state = _reference(root, (7,), owner).bit_generator.state
        assert state["state"] == {"state": subs.state(owner),
                                  "inc": subs.inc}
        assert subs.numpy_state(owner) == state

    def test_owner_zero_is_the_seeded_stream(self):
        root = np.random.SeedSequence(12)
        seeded = np.random.PCG64(np.random.SeedSequence(
            12, spawn_key=(0, 4))).state["state"]
        subs = SubStreams(root, 0, 4)
        assert (subs.state(0), subs.inc) == (seeded["state"],
                                               seeded["inc"])

    @pytest.mark.parametrize("owner", OWNERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_draws_match_numpy(self, owner, seed):
        root = np.random.SeedSequence(seed)
        reference = _reference(root, (1,), owner)
        stream = SubStreams(root, 1)[owner]
        script = np.random.default_rng(100 + seed)
        for _ in range(600):
            kind = int(script.integers(3))
            n = SPANS[int(script.integers(len(SPANS)))]
            if kind == 0:
                assert stream.random() == reference.random()
            elif kind == 1:
                assert stream.integers(n) == int(reference.integers(n))
            else:
                assert stream.integers(0, n) == \
                    int(reference.integers(0, n))
        # The buffered half and the 128-bit state agree at the end too.
        bits = reference.bit_generator.state
        assert stream.state == bits["state"]["state"]
        assert stream._half == (bits["uinteger"] if bits["has_uint32"]
                                else None)

    @pytest.mark.parametrize("n", SPANS)
    def test_integers_of_one_span_match_numpy(self, n):
        root = np.random.SeedSequence(3)
        reference = _reference(root, (0,), 2**63)
        stream = SubStreams(root, 0)[2**63]
        got = [stream.integers(10, 10 + n) for _ in range(200)]
        assert got == reference.integers(10, 10 + n, size=200).tolist()
        # Also for n == 1, where neither draws at all.
        assert stream.state == reference.bit_generator.state["state"]["state"]

    def test_a_random_between_integers_keeps_the_buffered_half(self):
        root = np.random.SeedSequence(8)
        reference = _reference(root, (2,), 1)
        stream = SubStreams(root, 2)[1]
        for _ in range(50):
            assert stream.integers(16) == int(reference.integers(16))
            assert stream.random() == reference.random()

    def test_owners_differ_and_repeat(self):
        root = np.random.SeedSequence([4, 2**40])
        draws = [SubStreams(root, 1)[o].random() for o in (0, 1, 2**64 - 1)]
        assert len(set(draws)) == 3
        assert SubStreams(root, 1)[1].random() == draws[1]
        assert SubStreams(root, 2)[1].random() != draws[1]

    @pytest.mark.parametrize("owner", [-1, 2**64])
    def test_owner_out_of_range_rejected(self, owner):
        with pytest.raises(ValueError, match="owner must be in"):
            SubStreams(np.random.SeedSequence(1), 0)[owner]

    @pytest.mark.parametrize("low,high", [(0, 2**32), (5, 5), (3, 1), (0, 0)])
    def test_ranges_not_below_2_32_or_empty_rejected(self, low, high):
        stream = OwnerStream(1, 1)
        with pytest.raises(ValueError):
            stream.integers(low, high)
