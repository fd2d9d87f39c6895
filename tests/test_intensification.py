"""Unit tests for :mod:`repro.core.intensification`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SearchState, greedy_solution, strategic_oscillation
from repro.core.intensification import apply_swaps


def swapped(state: SearchState):
    """:func:`apply_swaps` on ``state``; the swapped solution."""
    apply_swaps(state)
    return state.snapshot()


class TestSwap:
    def test_never_decreases_value(self, small_instance):
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        before = state.value
        result = swapped(state)
        assert result.value >= before

    def test_preserves_feasibility(self, small_instance):
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        swapped(state)
        assert state.is_feasible

    def test_finds_tiny_improving_swap(self, tiny_instance):
        # Greedy packs {0, 3} (value 13); swapping 3 -> 2 yields {0, 2} = 18.
        state = SearchState.from_solution(
            tiny_instance, greedy_solution(tiny_instance)
        )
        result = swapped(state)
        assert result.value == 18.0
        assert set(result.items) == {0, 2}

    def test_stats_counted(self, small_instance):
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        swapped(state)
        assert state.counters.intensify_evaluations > 0
        assert state.counters.move_evaluations == 0

    def test_fixed_point(self, small_instance):
        """Applying swap intensification twice changes nothing the 2nd time."""
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        first = swapped(state)
        second = swapped(state)
        assert first == second

    def test_empty_state_noop(self, small_instance):
        state = SearchState.empty(small_instance)
        result = swapped(state)
        assert result.value == 0.0


class TestStrategicOscillation:
    def test_result_is_feasible(self, small_instance, rng):
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        result = strategic_oscillation(state, depth=5, rng=rng)
        assert state.is_feasible
        assert result.is_feasible(small_instance)

    def test_zero_depth_projects_only(self, small_instance, rng):
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        before = state.value
        result = strategic_oscillation(state, depth=0, rng=rng)
        # Already feasible and maximal: nothing to add, nothing to repair.
        assert result.value == before

    def test_negative_depth_rejected(self, small_instance, rng):
        state = SearchState.empty(small_instance)
        with pytest.raises(ValueError):
            strategic_oscillation(state, depth=-1, rng=rng)

    def test_oscillation_counter(self, small_instance, rng):
        """Each excursion charges its forced adds plus one greedy pass."""
        state = SearchState.from_solution(
            small_instance, greedy_solution(small_instance)
        )
        strategic_oscillation(state, depth=3, rng=rng)
        strategic_oscillation(state, depth=3, rng=rng)
        assert state.counters.intensify_evaluations == 2 * (3 + small_instance.n_items)

    def test_can_escape_greedy_local_optimum(self, tiny_instance, rng):
        """The excursion can land somewhere the greedy fill cannot reach."""
        state = SearchState.from_solution(
            tiny_instance, greedy_solution(tiny_instance)
        )
        values = set()
        for seed in range(10):
            state.restore(greedy_solution(tiny_instance))
            result = strategic_oscillation(
                state, depth=2, rng=np.random.default_rng(seed)
            )
            values.add(result.value)
        # At least reaches the greedy value; often finds something else too.
        assert max(values) >= 13.0
