"""Unit tests for :mod:`repro.core.solution`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SearchState,
    Solution,
    hamming_distance,
    mean_pairwise_distance,
)


class TestSolution:
    def test_snapshot_roundtrip(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        snap = state.snapshot()
        assert snap.value == 10.0
        assert list(snap.items) == [0]

    def test_immutability(self, tiny_instance):
        sol = Solution(np.array([1, 0, 0, 0]), 10.0)
        with pytest.raises(ValueError):
            sol.x[0] = 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            Solution(np.array([0, 2]), 1.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Solution(np.zeros((2, 2)), 0.0)

    def test_verified_recomputes(self, tiny_instance):
        sol = Solution(np.array([1, 0, 1, 0]), 999.0)
        assert sol.verified(tiny_instance).value == 18.0

    def test_equality_and_hash(self):
        a = Solution(np.array([1, 0]), 5.0)
        b = Solution(np.array([1, 0]), 5.0)
        c = Solution(np.array([0, 1]), 5.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_distance(self):
        a = Solution(np.array([1, 0, 1]), 1.0)
        b = Solution(np.array([0, 0, 1]), 1.0)
        assert a.distance(b) == 1


class TestHamming:
    def test_identity(self):
        x = np.array([1, 0, 1])
        assert hamming_distance(x, x) == 0

    def test_symmetry(self, rng):
        a = rng.integers(0, 2, 20)
        b = rng.integers(0, 2, 20)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_triangle_inequality(self, rng):
        a, b, c = (rng.integers(0, 2, 30) for _ in range(3))
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance(np.zeros(3), np.zeros(4))

    def test_mean_pairwise_small_sets(self):
        assert mean_pairwise_distance([]) == 0.0
        assert mean_pairwise_distance([Solution(np.array([1, 0]), 1.0)]) == 0.0

    def test_mean_pairwise_value(self):
        sols = [
            Solution(np.array([0, 0, 0]), 1.0),
            Solution(np.array([1, 1, 0]), 2.0),
            Solution(np.array([1, 1, 1]), 3.0),
        ]
        # pairwise distances: 2, 3, 1 -> mean 2
        assert mean_pairwise_distance(sols) == pytest.approx(2.0)


class TestSearchState:
    def test_empty_state(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        assert state.value == 0.0
        assert state.is_feasible
        np.testing.assert_allclose(state.load, [0.0, 0.0])

    def test_add_updates_incrementally(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(1)
        assert state.value == 7.0
        np.testing.assert_allclose(state.load, [6.0, 4.0])

    def test_drop_reverses_add(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(1)
        state.drop(1)
        assert state.value == 0.0
        np.testing.assert_allclose(state.load, [0.0, 0.0])

    def test_add_twice_raises(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        with pytest.raises(ValueError, match="already"):
            state.add(0)

    def test_drop_absent_raises(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        with pytest.raises(ValueError, match="not in"):
            state.drop(0)

    def test_flip(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.flip(2)
        assert state.x[2] == 1
        state.flip(2)
        assert state.x[2] == 0

    def test_slack(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        np.testing.assert_allclose(state.slack, [5.0, 5.0])

    def test_violation_when_overloaded(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        for j in range(4):
            state.add(j)
        assert not state.is_feasible
        assert tiny_instance.violation(state.x) > 0

    def test_fitting_items(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)  # load (5,3); slack (5,5)
        fitting = set(state.fitting_items())
        # item1 (6,4) does not fit; item2 (4,5) fits; item3 (2,1) fits
        assert fitting == {2, 3}

    def test_most_saturated_constraint(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(2)  # load (4, 5); slack (6, 3) -> constraint 1 tightest
        assert state.most_saturated_constraint() == 1

    def test_restore(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        snap = state.snapshot()
        state.add(2)
        state.restore(snap)
        assert state.value == 10.0
        assert list(state.packed_items()) == [0]

    def test_restore_shape_mismatch(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        with pytest.raises(ValueError):
            state.restore(Solution(np.array([1, 0]), 1.0))

    def test_copy_is_independent(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        clone = state.copy()
        clone.add(2)
        assert state.value == 10.0
        assert clone.value == 18.0

    def test_recompute_matches_incremental(self, small_instance, rng):
        state = SearchState.empty(small_instance)
        for j in rng.permutation(small_instance.n_items)[:10]:
            state.flip(int(j))
        fresh = SearchState(small_instance, state.x.copy())
        assert state.value == pytest.approx(fresh.value)
        np.testing.assert_allclose(state.load, fresh.load)

    def test_rejects_non_binary_vector(self, tiny_instance):
        with pytest.raises(ValueError, match="0/1"):
            SearchState(tiny_instance, np.array([0, 1, 2, 0]))
