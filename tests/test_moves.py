"""Unit tests for :mod:`repro.core.moves` (the Drop/Add compound move)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MoveEngine, SearchState, TabuList, greedy_solution


def make_engine(instance, rng, tenure=3):
    state = SearchState.from_solution(instance, greedy_solution(instance))
    tabu = TabuList(instance.n_items, tenure)
    return MoveEngine(state, tabu, rng), state, tabu


class TestDropRule:
    def test_drop_follows_saturated_constraint_rule(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        i_star = state.most_saturated_constraint()
        packed = state.packed_items()
        ratios = (
            small_instance.weights[i_star, packed] / small_instance.profits[packed]
        )
        expected_best = ratios.max()
        j = engine.select_drop()
        actual = small_instance.weights[i_star, j] / small_instance.profits[j]
        assert actual == pytest.approx(expected_best)

    def test_drop_skips_tabu(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        i_star = state.most_saturated_constraint()
        packed = state.packed_items()
        ratios = small_instance.weights[i_star, packed] / small_instance.profits[packed]
        worst = packed[int(np.argmax(ratios))]
        tabu.make_tabu(worst)
        j = engine.select_drop()
        assert j != worst

    def test_drop_fallback_when_all_tabu(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        tabu.make_tabu(state.packed_items())
        assert engine.select_drop() is not None

    def test_drop_none_on_empty(self, small_instance, rng):
        state = SearchState.empty(small_instance)
        engine = MoveEngine(state, TabuList(small_instance.n_items, 3), rng)
        assert engine.select_drop() is None

    def test_drop_step_count(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        dropped = engine.drop_step(3)
        assert len(dropped) == 3
        assert all(state.x[j] == 0 for j in dropped)


class TestAddRule:
    def test_add_never_violates_feasibility(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        engine.drop_step(2)
        engine.add_step(best_value=float("inf"))
        assert state.is_feasible

    def test_add_until_maximal(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        engine.drop_step(2)
        engine.add_step(best_value=float("inf"))
        # tabu items may still "fit" but be inadmissible; non-tabu fitting
        # set must be empty
        fitting = state.fitting_items()
        tabu_mask = engine.tabu.tabu_mask(fitting)
        assert fitting[~tabu_mask].size == 0

    def test_add_respects_tabu_without_aspiration(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        engine.drop_step(1)
        fitting = state.fitting_items()
        assert fitting.size > 0
        tabu.make_tabu(fitting)
        # best so high that no aspiration possible
        assert engine.add_step(best_value=1e12) == []

    def test_aspiration_admits_tabu_item(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        engine.drop_step(1)
        fitting = state.fitting_items()
        tabu.make_tabu(fitting)
        # incumbent low enough that any add beats it; every later fitting
        # item was fitting before, so tabu too
        added = engine.add_step(best_value=state.value)
        assert added
        assert all(tabu.is_tabu(j) for j in added)


class TestCompoundMove:
    def test_apply_returns_record(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        record = engine.apply(2, best_value=state.value)
        assert record.dropped and len(record.dropped) <= 2
        assert record.touched == record.dropped + record.added
        assert record.hamming_step == len(record.touched)

    def test_apply_keeps_feasibility(self, small_instance, rng):
        engine, state, tabu = make_engine(small_instance, rng)
        best = state.value
        for _ in range(50):
            record = engine.apply(2, best)
            best = max(best, state.value)
            tabu.tick()
            if record.touched:
                tabu.make_tabu(np.asarray(record.touched))
            assert state.is_feasible

    def test_evaluation_counter_monotone(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        assert engine.counters.move_evaluations == 0
        engine.apply(1, best_value=state.value)
        first = engine.counters.move_evaluations
        assert first > 0
        engine.apply(1, best_value=state.value)
        assert engine.counters.move_evaluations > first

    def test_nb_drop_zero_is_pure_add(self, small_instance, rng):
        engine, state, _ = make_engine(small_instance, rng)
        record = engine.apply(0, best_value=state.value)
        assert record.dropped == []


class TestTieBreaking:
    def test_random_ties_follow_rng(self):
        """With an all-symmetric instance, different seeds pick different
        drops — the mechanism that decorrelates parallel threads."""
        from repro.core import MKPInstance

        inst = MKPInstance.from_lists(
            weights=[[1, 1, 1, 1, 1, 1]],
            capacities=[3],
            profits=[1, 1, 1, 1, 1, 1],
        )
        picks = set()
        for seed in range(20):
            state = SearchState(inst, np.array([1, 1, 1, 0, 0, 0], dtype=np.int8))
            engine = MoveEngine(
                state, TabuList(6, 2), np.random.default_rng(seed)
            )
            picks.add(engine.select_drop())
        assert len(picks) > 1
