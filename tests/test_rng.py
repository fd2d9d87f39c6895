"""Unit tests for :mod:`repro.rng`."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, TabuSearch, native
from repro.instances.generators import correlated_instance
from repro.rng import (
    derive_rng,
    make_rng,
    random_seed_from,
    reseed,
    spawn_rngs,
    task_seed,
)
from tests.differential import numpy_reference

#: Seeds at SeedSequence's word edges (one, two and three uint32 words); a
#: seed near 2**128 plus a path overflows the 4-word pool.
EDGES = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64]
SEEDS = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**128 - 1))
PATH = st.lists(st.integers(0, 2**40), max_size=3)
needs_native = pytest.mark.skipif(not native.available, reason="native kernel unavailable")


class TestMakeRng:
    def test_accepts_int(self):
        a = make_rng(5).integers(0, 100, 10)
        b = make_rng(5).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_passes_through_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawn:
    def test_children_independent(self):
        children = spawn_rngs(7, 3)
        draws = [c.integers(0, 2**31, 5).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_reproducible(self):
        a = spawn_rngs(7, 3)[1].integers(0, 2**31, 5)
        b = spawn_rngs(7, 3)[1].integers(0, 2**31, 5)
        np.testing.assert_array_equal(a, b)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(7, -1)

    def test_zero_count(self):
        assert spawn_rngs(7, 0) == []


class TestDerive:
    def test_path_addressing_reproducible(self):
        a = derive_rng(9, 2, 5).integers(0, 2**31, 4)
        b = derive_rng(9, 2, 5).integers(0, 2**31, 4)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(9, 2, 5).integers(0, 2**31, 4)
        b = derive_rng(9, 2, 6).integers(0, 2**31, 4)
        c = derive_rng(9, 3, 5).integers(0, 2**31, 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSeedHelpers:
    def test_random_seed_range(self):
        gen = make_rng(0)
        for _ in range(100):
            s = random_seed_from(gen)
            assert 0 <= s < 2**63


def _pcg64_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


class TestNativeSeeding:
    """``task_seed`` and ``reseed`` against the numpy expressions they replace."""

    @needs_native
    @given(SEEDS, PATH)
    @settings(max_examples=300, deadline=None)
    def test_task_seed_matches_numpy(self, seed, path):
        assert task_seed(seed, *path) == random_seed_from(derive_rng(seed, *path))

    @needs_native
    @given(SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_reseed_matches_default_rng(self, seed):
        gen = reseed(np.random.default_rng(1), seed)
        assert _pcg64_state(gen) == _pcg64_state(np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", EDGES)
    def test_edges_on_both_paths(self, seed):
        want = random_seed_from(derive_rng(seed, 3, 1))
        assert task_seed(seed, 3, 1) == want
        with numpy_reference():
            assert task_seed(seed, 3, 1) == want
            fallback = _pcg64_state(reseed(np.random.default_rng(1), seed))
        assert fallback == _pcg64_state(reseed(np.random.default_rng(1), seed))
        assert fallback == _pcg64_state(np.random.default_rng(seed))

    @given(SEEDS, PATH)
    @settings(max_examples=50, deadline=None)
    def test_fallback_gives_the_same_seeds(self, seed, path):
        native_seed = task_seed(seed, *path)
        with numpy_reference():
            assert task_seed(seed, *path) == native_seed

    @pytest.mark.parametrize("fallback", [False, True])
    def test_negative_seed_raises(self, fallback):
        with numpy_reference() if fallback else contextlib.nullcontext():
            with pytest.raises(ValueError):
                task_seed(-1, 1, 0)
            with pytest.raises(ValueError):
                task_seed(5, -2, 0)
            with pytest.raises(ValueError):
                reseed(np.random.default_rng(1), -1)

    @given(SEEDS, st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_reseed_after_buffered_draws(self, seed, n_draws):
        # An odd count of 32-bit draws leaves a buffered half-word behind.
        gen = np.random.default_rng(99)
        gen.integers(0, 2**31, size=n_draws, dtype=np.int32)
        reseed(gen, seed)
        fresh = np.random.default_rng(seed)
        for draw in (
            lambda g: g.integers(0, 2**31, size=3, dtype=np.int32).tolist(),
            lambda g: g.random(2).tolist(),
            lambda g: g.integers(0, 2**62, size=2).tolist(),
            lambda g: g.permutation(9).tolist(),
        ):
            assert draw(gen) == draw(fresh)


class TestRebindGenerator:
    @pytest.fixture(scope="class")
    def instance(self):
        return correlated_instance(3, 20, rng=4)

    def test_int_seeds_keep_one_generator(self, instance):
        thread = TabuSearch(instance, Strategy(5, 1, 9), rng=3)
        rng = thread.rng
        for seed in (4, 2**70, 0):
            thread.rebind(rng=seed)
            assert thread.rng is rng and thread.engine.rng is rng
            assert _pcg64_state(rng) == _pcg64_state(np.random.default_rng(seed))

    def test_callers_generator_is_never_reseeded(self, instance):
        mine = np.random.default_rng(21)
        before = _pcg64_state(mine)
        thread = TabuSearch(instance, Strategy(5, 1, 9), rng=mine)
        thread.rebind(rng=7)
        assert thread.rng is not mine
        assert _pcg64_state(mine) == before
        theirs = np.random.default_rng(22)
        thread.rebind(rng=theirs)
        assert thread.rng is theirs
        thread.rebind(rng=8)
        assert thread.rng is not theirs and thread.rng is not mine
        assert _pcg64_state(theirs) == _pcg64_state(np.random.default_rng(22))
        thread.rebind(rng=None)
        assert isinstance(thread.rng, np.random.Generator)
