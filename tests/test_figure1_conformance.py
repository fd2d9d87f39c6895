"""Conformance of :class:`TabuSearch` to the paper's Figure 1 control flow.

Checks that the phase sequence is exactly
``Nb_div × (Nb_int × [local_search, intensification] + diversification)``
and that the step-level bookkeeping (incumbent, X_local, History, tabu list)
matches the pseudocode's ordering.
"""

from __future__ import annotations

from repro.core import Strategy, StrategyBounds, TabuSearch, TabuSearchConfig


def expected_phase_sequence(nb_div: int, nb_int: int) -> list[str]:
    """The Figure-1 phase order for given loop bounds.

    ``nb_div`` rounds of (``nb_int`` × [local_search, intensification])
    followed by one diversification.
    """
    if nb_div < 1 or nb_int < 1:
        raise ValueError("loop bounds must be >= 1")
    seq: list[str] = []
    for _ in range(nb_div):
        for _ in range(nb_int):
            seq.append("local_search")
            seq.append("intensification")
        seq.append("diversification")
    return seq


def make_ts(instance, nb_div=2, base_iterations=6, nb_drop=2, rng=0):
    bounds = StrategyBounds(base_iterations=base_iterations)
    config = TabuSearchConfig(nb_div=nb_div, elite_size=4, bounds=bounds)
    strategy = Strategy(lt_length=6, nb_drop=nb_drop, nb_local=5)
    return TabuSearch(instance, strategy, config, rng=rng), bounds, strategy


class TestPhaseOrder:
    def test_phase_sequence_matches_figure1(self, small_instance):
        ts, bounds, strategy = make_ts(small_instance)
        trace = ts.enable_control_flow_trace()
        ts.run()
        nb_int = bounds.nb_it(strategy)
        assert trace == expected_phase_sequence(nb_div=2, nb_int=nb_int)

    def test_nb_int_scales_inversely_with_nb_drop(self, small_instance):
        """The same driver runs fewer cycles when moves are heavier."""
        ts1, bounds, s1 = make_ts(small_instance, base_iterations=8, nb_drop=1)
        ts4, _, s4 = make_ts(small_instance, base_iterations=8, nb_drop=4)
        t1 = ts1.enable_control_flow_trace()
        t4 = ts4.enable_control_flow_trace()
        ts1.run()
        ts4.run()
        assert t1.count("local_search") == 2 * 8
        assert t4.count("local_search") == 2 * 2

    def test_expected_sequence_helper_validation(self):
        import pytest

        with pytest.raises(ValueError):
            expected_phase_sequence(0, 1)


class TestStepSemantics:
    def test_history_updated_once_per_move(self, small_instance):
        ts, _, _ = make_ts(small_instance)
        result = ts.run()
        assert ts.history.iterations == result.moves

    def test_tabu_clock_ticks_once_per_move(self, small_instance):
        ts, _, _ = make_ts(small_instance)
        result = ts.run()
        assert ts.tabu.clock == result.moves

    def test_moved_attributes_are_tabu_immediately_after_move(self, small_instance):
        """Step 9: "Lt = Lt + X" — audit via the on_move hook."""
        records = []

        def hook(thread):
            # engine state right after a move: recently-touched attributes
            # must be tabu (the hook runs after make_tabu in the driver).
            records.append(thread.tabu.active_count())

        ts, _, _ = make_ts(small_instance)
        ts.on_move = hook
        ts.run()
        assert all(count > 0 for count in records[1:])

    def test_incumbent_monotone_through_all_phases(self, small_instance):
        ts, _, _ = make_ts(small_instance)
        result = ts.run()
        trace = result.value_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_aspiration_leaves_tabu_barrier(self, tiny_instance):
        """A tabu item must still be addable when it beats the incumbent:
        on the tiny instance the optimum requires re-adding a recently
        dropped item, so reaching 18 under a long tenure proves aspiration
        works (without it the search would be stuck below)."""
        from repro.core import Budget, greedy_solution

        config = TabuSearchConfig(nb_div=3, elite_size=4)
        ts = TabuSearch(tiny_instance, Strategy(4, 1, 8), config, rng=1)
        result = ts.run(
            x_init=greedy_solution(tiny_instance), budget=Budget(max_moves=60)
        )
        assert result.best.value == 18.0
