"""Unit tests for the Initial Solution generation Procedure (ISP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Solution, Strategy
from repro.master import (
    AlphaController,
    ISPConfig,
    SlaveEntry,
    generate_initial_solutions,
)


def sol(instance, items: list[int]) -> Solution:
    x = np.zeros(instance.n_items, dtype=np.int8)
    x[items] = 1
    return Solution(x, float(instance.profits[items].sum()))


def entry(instance, slave_id: int, items: list[int], stagnant=0) -> SlaveEntry:
    s = sol(instance, items)
    e = SlaveEntry(
        slave_id=slave_id, strategy=Strategy(10, 2, 20), init_solution=s
    )
    e.absorb_elite([s], capacity=8)
    e.stagnant_rounds = stagnant
    return e


class TestRules:
    def test_keep_when_close_to_global_best(self, small_instance, rng):
        global_best = sol(small_instance, [0, 1, 2, 3, 4, 5])
        good = entry(small_instance, 0, [0, 1, 2, 3, 4])  # close in value
        config = ISPConfig(alpha=0.5, stagnation_limit=10)
        decisions = generate_initial_solutions(
            [good], global_best, small_instance, config, rng
        )
        assert decisions[0].rule == "keep"
        assert decisions[0].solution == good.best

    def test_pool_rule_pulls_laggard_to_global_best(self, small_instance, rng):
        global_best = sol(small_instance, list(range(10)))
        weak = entry(small_instance, 0, [0])  # far below alpha * best
        config = ISPConfig(alpha=0.99, stagnation_limit=10)
        decisions = generate_initial_solutions(
            [weak], global_best, small_instance, config, rng
        )
        assert decisions[0].rule == "pool"
        assert decisions[0].solution == global_best
        assert weak.init_solution == global_best

    def test_restart_rule_on_stagnation(self, small_instance, rng):
        global_best = sol(small_instance, list(range(10)))
        stuck = entry(small_instance, 0, list(range(9)), stagnant=5)
        config = ISPConfig(alpha=0.5, stagnation_limit=3)
        decisions = generate_initial_solutions(
            [stuck], global_best, small_instance, config, rng
        )
        assert decisions[0].rule == "restart"
        assert stuck.stagnant_rounds == 0
        assert decisions[0].solution.is_feasible(small_instance)

    def test_restart_takes_priority_over_pool(self, small_instance, rng):
        """A stagnant laggard restarts randomly rather than pooling."""
        global_best = sol(small_instance, list(range(10)))
        weak_and_stuck = entry(small_instance, 0, [0], stagnant=99)
        config = ISPConfig(alpha=0.99, stagnation_limit=3)
        decisions = generate_initial_solutions(
            [weak_and_stuck], global_best, small_instance, config, rng
        )
        assert decisions[0].rule == "restart"

    def test_alpha_zero_edge(self, small_instance, rng):
        """alpha must be in (0, 1]."""
        with pytest.raises(ValueError):
            ISPConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ISPConfig(alpha=1.5)
        with pytest.raises(ValueError):
            ISPConfig(stagnation_limit=0)

    def test_decisions_in_slave_order(self, small_instance, rng):
        global_best = sol(small_instance, list(range(10)))
        entries = [entry(small_instance, k, [k]) for k in range(4)]
        config = ISPConfig(alpha=0.01, stagnation_limit=10)
        decisions = generate_initial_solutions(
            entries, global_best, small_instance, config, rng
        )
        assert [d.slave_id for d in decisions] == [0, 1, 2, 3]


class TestAlphaController:
    def test_raises_on_improvement(self):
        ctrl = AlphaController(alpha=0.9, step=0.02, alpha_min=0.85, alpha_max=0.99)
        assert ctrl.update(True) == pytest.approx(0.92)

    def test_decays_on_stall(self):
        ctrl = AlphaController(alpha=0.9, step=0.02, alpha_min=0.85, alpha_max=0.99)
        assert ctrl.update(False) == pytest.approx(0.88)

    def test_clamped_to_range(self):
        ctrl = AlphaController(alpha=0.99, step=0.05, alpha_min=0.85, alpha_max=0.995)
        assert ctrl.update(True) == 0.995
        ctrl2 = AlphaController(alpha=0.86, step=0.05, alpha_min=0.85, alpha_max=0.995)
        assert ctrl2.update(False) == 0.85

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaController(alpha=0.5, alpha_min=0.8, alpha_max=0.9)
        with pytest.raises(ValueError):
            AlphaController(step=-0.1)

    def test_macro_behaviour(self):
        """Sustained improvement pushes alpha high (macro-intensification);
        sustained stall pushes it low (macro-diversification)."""
        ctrl = AlphaController()
        for _ in range(50):
            ctrl.update(True)
        assert ctrl.alpha == ctrl.alpha_max
        for _ in range(50):
            ctrl.update(False)
        assert ctrl.alpha == ctrl.alpha_min
