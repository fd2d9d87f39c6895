"""Unit tests for :mod:`repro.core.construction`."""

from __future__ import annotations

import numpy as np

from repro.core import (
    SearchState,
    fill_greedily,
    greedy_solution,
    random_solution,
    repair,
)


class TestGreedy:
    def test_feasible(self, small_instance):
        sol = greedy_solution(small_instance)
        assert sol.is_feasible(small_instance)

    def test_maximal(self, small_instance):
        """Greedy output is maximal: no further item fits."""
        sol = greedy_solution(small_instance)
        state = SearchState.from_solution(small_instance, sol)
        assert state.fitting_items().size == 0

    def test_deterministic(self, small_instance):
        assert greedy_solution(small_instance) == greedy_solution(small_instance)

    def test_tiny_greedy_value(self, tiny_instance):
        # Density order packs {0, 3} (value 13) — maximal but sub-optimal,
        # which is exactly the gap tabu search must close (optimum 18).
        sol = greedy_solution(tiny_instance)
        assert sol.value == 13.0
        assert set(sol.items) == {0, 3}


class TestRandom:
    def test_feasible_and_maximal(self, small_instance):
        sol = random_solution(small_instance, rng=7)
        assert sol.is_feasible(small_instance)
        state = SearchState.from_solution(small_instance, sol)
        assert state.fitting_items().size == 0

    def test_seed_reproducibility(self, small_instance):
        assert random_solution(small_instance, rng=5) == random_solution(
            small_instance, rng=5
        )

    def test_different_seeds_diverge(self, medium_instance):
        sols = {random_solution(medium_instance, rng=s).x.tobytes() for s in range(8)}
        assert len(sols) > 1

    def test_scratch_state_refill_matches_a_fresh_state(self, small_instance):
        # The master's restarts refill one scratch state; each draw must be
        # the one a fresh state gives, whatever the scratch last held.
        scratch = SearchState.from_solution(small_instance, greedy_solution(small_instance))
        for seed in range(6):
            refilled = random_solution(small_instance, seed, scratch)
            assert refilled == random_solution(small_instance, seed)
            assert refilled.x is not scratch.x


class TestFillGreedily:
    def test_respects_order(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        fill_greedily(state, order=np.array([1, 0, 2, 3]))
        # item1 (6,4) fits first; then item0 (5,3) does not (11 > 10);
        # item2 (4,5) fits? load (6,4)+(4,5)=(10,9) -> 9 > 8 no; item3 (2,1) fits.
        assert list(state.packed_items()) == [1, 3]

    def test_skips_packed(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        state.add(0)
        fill_greedily(state, order=np.array([0, 3]))
        assert state.x[0] == 1 and state.x[3] == 1


class TestRepairOrder:
    def test_ejects_worst_density_first(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        for j in range(4):
            state.add(j)
        assert not state.is_feasible
        repair(state)
        assert state.is_feasible
        # Worst density item(s) must be gone; density = col sums / profit.
        density = tiny_instance.density
        packed = set(state.packed_items())
        dropped = set(range(4)) - packed
        assert dropped, "repair must drop something on an overloaded state"
        assert max(density[list(dropped)]) >= max(
            density[list(packed)].min(), 0
        )

    def test_returns_drop_count(self, tiny_instance):
        state = SearchState.empty(tiny_instance)
        for j in range(4):
            state.add(j)
        count = repair(state)
        assert count == 4 - len(state.packed_items())
