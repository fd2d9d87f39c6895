"""Unit and behaviour tests for :mod:`repro.core.tabu_search`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Budget,
    IntensificationKind,
    Strategy,
    TabuSearch,
    TabuSearchConfig,
    greedy_solution,
)


def small_config(**overrides) -> TabuSearchConfig:
    defaults = dict(nb_div=2, elite_size=5)
    defaults.update(overrides)
    return TabuSearchConfig(**defaults)


class TestRun:
    def test_best_is_feasible(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_moves=200))
        assert result.best.is_feasible(small_instance)

    def test_best_at_least_initial(self, small_instance):
        x0 = greedy_solution(small_instance)
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(x_init=x0, budget=Budget(max_moves=200))
        assert result.best.value >= x0.value
        assert result.initial_value == x0.value

    def test_beats_greedy_on_tiny(self, tiny_instance):
        """TS must climb from the greedy local optimum (13) to 18."""
        ts = TabuSearch(tiny_instance, Strategy(2, 1, 10), small_config(), rng=0)
        result = ts.run(
            x_init=greedy_solution(tiny_instance), budget=Budget(max_moves=100)
        )
        assert result.best.value == 18.0

    def test_deterministic_given_seed(self, small_instance):
        def run():
            ts = TabuSearch(
                small_instance, Strategy(8, 2, 15), small_config(), rng=77
            )
            return ts.run(
                x_init=greedy_solution(small_instance), budget=Budget(max_moves=150)
            )

        a, b = run(), run()
        assert a.best == b.best
        assert a.evaluations == b.evaluations
        assert a.value_trace == b.value_trace

    def test_seeds_decorrelate(self, medium_instance):
        bests = set()
        for seed in range(6):
            ts = TabuSearch(
                medium_instance, Strategy(8, 2, 15), small_config(), rng=seed
            )
            r = ts.run(budget=Budget(max_moves=60))
            bests.add(r.best.x.tobytes())
        assert len(bests) > 1

    def test_rejects_infeasible_init(self, tiny_instance):
        from repro.core import Solution

        bad = Solution(np.array([1, 1, 1, 1]), 28.0)
        ts = TabuSearch(tiny_instance, Strategy(2, 1, 5), small_config(), rng=0)
        with pytest.raises(ValueError, match="feasible"):
            ts.run(x_init=bad)

    def test_default_init_is_random_feasible(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=1)
        result = ts.run(budget=Budget(max_moves=50))
        assert result.initial_value > 0


class TestBudgets:
    def test_move_budget_respected(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_moves=30))
        assert result.moves <= 30

    def test_evaluation_budget_respected_approximately(self, small_instance):
        """Evaluations may overshoot by at most one compound move's worth."""
        cap = 3000
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_evaluations=cap))
        # one compound move evaluates O(n) candidates a few times
        assert result.evaluations < cap + 20 * small_instance.n_items

    def test_target_value_stops_early(self, tiny_instance):
        ts = TabuSearch(tiny_instance, Strategy(2, 1, 10), small_config(), rng=0)
        result = ts.run(
            x_init=greedy_solution(tiny_instance),
            budget=Budget(max_moves=10_000, target_value=18.0),
        )
        assert result.best.value >= 18.0
        assert result.moves < 10_000

    def test_structural_budget_only(self, small_instance):
        """Without an explicit budget the Nb_div/Nb_int loops terminate."""
        config = TabuSearchConfig(nb_div=1, elite_size=3)
        strategy = Strategy(5, 4, 5)  # nb_it = 600//4 = 150 loops... keep small
        config = TabuSearchConfig(
            nb_div=1,
            elite_size=3,
            bounds=type(config.bounds)(base_iterations=8),
        )
        ts = TabuSearch(small_instance, strategy, config, rng=0)
        result = ts.run()
        assert result.local_search_loops == 2  # base_iterations // nb_drop = 2
        assert result.diversifications == 1


class TestResultAccounting:
    def test_counters_consistent(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_moves=100))
        assert result.moves > 0
        assert result.evaluations > result.moves  # each move evaluates many
        assert len(result.value_trace) == result.moves + 1
        assert result.value_trace == sorted(result.value_trace)  # incumbent is monotone

    def test_improved_flag(self, tiny_instance):
        ts = TabuSearch(tiny_instance, Strategy(2, 1, 10), small_config(), rng=0)
        result = ts.run(
            x_init=greedy_solution(tiny_instance), budget=Budget(max_moves=100)
        )
        assert result.improved  # 13 -> 18

    def test_elite_sorted_and_distinct(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_moves=150))
        values = [s.value for s in result.elite]
        assert values == sorted(values, reverse=True)
        vectors = {s.x.tobytes() for s in result.elite}
        assert len(vectors) == len(result.elite)

    def test_elite_contains_best(self, small_instance):
        ts = TabuSearch(small_instance, Strategy(8, 2, 15), small_config(), rng=0)
        result = ts.run(budget=Budget(max_moves=150))
        assert result.best.value == result.elite[0].value


class TestIntensificationModes:
    @pytest.mark.parametrize("kind", list(IntensificationKind))
    def test_all_modes_run(self, small_instance, kind):
        config = small_config(intensification=kind)
        ts = TabuSearch(small_instance, Strategy(8, 2, 10), config, rng=0)
        result = ts.run(budget=Budget(max_moves=80))
        assert result.best.is_feasible(small_instance)

    def test_none_mode_does_no_intensification_work(self, small_instance):
        config = small_config(intensification=IntensificationKind.NONE)
        ts = TabuSearch(small_instance, Strategy(8, 2, 10), config, rng=0)
        ts.run(budget=Budget(max_moves=80))
        assert ts.counters.intensify_evaluations == 0


class TestConfigValidation:
    def test_bad_nb_div(self):
        with pytest.raises(ValueError):
            TabuSearchConfig(nb_div=0)

    def test_bad_elite(self):
        with pytest.raises(ValueError):
            TabuSearchConfig(elite_size=0)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            TabuSearchConfig(oscillation_depth=-1)


class TestOnMoveHook:
    def test_hook_called_per_move(self, small_instance):
        calls = []
        ts = TabuSearch(
            small_instance,
            Strategy(8, 2, 15),
            small_config(),
            rng=0,
            on_move=lambda t: calls.append(t.state.value),
        )
        result = ts.run(budget=Budget(max_moves=40))
        assert len(calls) == result.moves
