"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import make_rng, named_rng


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

    def test_owner_is_a_sub_stream_of_the_key(self):
        # An owner's stream is the key's stream advanced by owner * 2**64.
        root = np.random.SeedSequence(9).spawn(2)[1]
        bits = np.random.PCG64(np.random.SeedSequence(
            root.entropy, spawn_key=tuple(root.spawn_key) + (3,)))
        bits.advance(5 << 64)
        assert named_rng(root, 3, owner=5).random(4).tolist() == \
            np.random.Generator(bits).random(4).tolist()

    def test_owners_differ_and_repeat(self):
        root = np.random.SeedSequence([4, 2**40])
        draws = [named_rng(root, 1, owner=o).random() for o in (0, 1, 2**64 - 1)]
        assert len(set(draws)) == 3
        assert named_rng(root, 1, owner=1).random() == draws[1]
        assert named_rng(root, 2, owner=1).random() != draws[1]

    @pytest.mark.parametrize("owner", [-1, 2**64])
    def test_owner_out_of_range_rejected(self, owner):
        with pytest.raises(ValueError, match="owner must be in"):
            named_rng(np.random.SeedSequence(1), 0, owner=owner)
