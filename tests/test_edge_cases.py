"""Edge-case tests across modules (final coverage pass)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Budget,
    MKPInstance,
    SearchState,
    Solution,
    Strategy,
    TabuSearch,
    TabuSearchConfig,
    greedy_solution,
)


class TestDegenerateInstances:
    def test_single_item_single_constraint(self):
        inst = MKPInstance.from_lists(weights=[[3]], capacities=[5], profits=[7])
        ts = TabuSearch(inst, Strategy(2, 1, 5), TabuSearchConfig(nb_div=1), rng=0)
        result = ts.run(budget=Budget(max_moves=10))
        assert result.best.value == 7.0

    def test_item_never_fits(self):
        inst = MKPInstance.from_lists(weights=[[10]], capacities=[5], profits=[7])
        ts = TabuSearch(inst, Strategy(2, 1, 5), TabuSearchConfig(nb_div=1), rng=0)
        result = ts.run(budget=Budget(max_moves=10))
        assert result.best.value == 0.0

    def test_all_items_fit(self):
        inst = MKPInstance.from_lists(
            weights=[[1, 1, 1]], capacities=[10], profits=[2, 3, 4]
        )
        ts = TabuSearch(inst, Strategy(2, 1, 5), TabuSearchConfig(nb_div=1), rng=0)
        result = ts.run(budget=Budget(max_moves=20))
        assert result.best.value == 9.0

    def test_zero_capacity_constraint(self):
        """A zero capacity row forbids every item with weight there."""
        inst = MKPInstance.from_lists(
            weights=[[1, 0], [1, 1]], capacities=[0, 5], profits=[9, 4]
        )
        # item 0 has weight 1 in the zero-capacity row: only item 1 fits.
        sol = greedy_solution(inst)
        assert sol.value == 4.0

    def test_exact_handles_degenerate(self):
        from repro.exact import branch_and_bound

        inst = MKPInstance.from_lists(weights=[[10]], capacities=[5], profits=[7])
        result = branch_and_bound(inst)
        assert result.proven and result.value == 0.0


class TestSolutionEdgeCases:
    def test_empty_solution_items(self):
        sol = Solution(np.zeros(5, dtype=np.int8), 0.0)
        assert sol.items.size == 0

    def test_full_solution_items(self):
        sol = Solution(np.ones(3, dtype=np.int8), 6.0)
        assert list(sol.items) == [0, 1, 2]

    def test_search_state_on_single_item(self):
        inst = MKPInstance.from_lists(weights=[[3]], capacities=[5], profits=[7])
        state = SearchState.empty(inst)
        assert state.fitting_items().size == 1
        state.add(0)
        assert state.fitting_items().size == 0
        assert state.free_items().size == 0


class TestBudgetInteractions:
    def test_target_and_evals_combined(self, small_instance):
        """Whichever limit hits first stops the run."""
        budget = Budget(max_evaluations=10**9, target_value=0.0)
        ts = TabuSearch(
            small_instance, Strategy(5, 1, 5), TabuSearchConfig(nb_div=1), rng=0
        )
        result = ts.run(budget=budget)
        # target 0 is met by the initial solution: immediate stop
        assert result.moves == 0

    def test_zero_move_budget(self, small_instance):
        ts = TabuSearch(
            small_instance, Strategy(5, 1, 5), TabuSearchConfig(nb_div=1), rng=0
        )
        result = ts.run(budget=Budget(max_moves=0))
        assert result.moves == 0
        assert result.best.is_feasible(small_instance)


class TestGanttCommGlyph:
    def test_comm_events_render(self):
        from repro.analysis import render_gantt
        from repro.farm import EventKind, FarmTrace

        trace = FarmTrace()
        trace.record(0, EventKind.SEND, 0.0, 1.0)
        art = render_gantt(trace, width=4)
        assert "▒" in art


class TestDecompositionSubInstance:
    def test_block_capacity_shares_sum_to_whole(self, medium_instance):
        from repro.variants.decomposition import _sub_instance, partition_items

        blocks = partition_items(medium_instance, 4)
        share = 1.0 / len(blocks)
        total = sum(
            _sub_instance(medium_instance, b, share).capacities
            for b in blocks
        )
        np.testing.assert_allclose(total, medium_instance.capacities)

    def test_sub_instance_columns_match(self, medium_instance):
        from repro.variants.decomposition import _sub_instance, partition_items

        block = partition_items(medium_instance, 3)[1]
        sub = _sub_instance(medium_instance, block, 0.5)
        np.testing.assert_allclose(sub.weights, medium_instance.weights[:, block])
        np.testing.assert_allclose(sub.profits, medium_instance.profits[block])


class TestPipeCommProtocol:
    def test_tag_mismatch_detected(self):
        import multiprocessing as mp

        from repro.parallel import PipeComm

        a, b = mp.get_context("fork").Pipe(duplex=True)
        left, right = PipeComm(a), PipeComm(b)
        left.send(b"hello", tag=5)
        with pytest.raises(RuntimeError, match="protocol error"):
            right.recv(tag=6)
        left.close()
        right.close()

    def test_byte_counters(self):
        import multiprocessing as mp

        from repro.parallel import PipeComm

        a, b = mp.get_context("fork").Pipe(duplex=True)
        left, right = PipeComm(a), PipeComm(b)
        left.send(b"\x01\x02\x03", tag=1)
        got = right.recv(tag=1)
        assert got == b"\x01\x02\x03"
        assert left.bytes_sent == right.bytes_received == 3
        left.close()
        right.close()


class TestGeneratorCapacityFloor:
    def test_every_item_fits_alone_even_at_tiny_tightness(self):
        from repro.instances import uncorrelated_instance

        inst = uncorrelated_instance(4, 30, tightness=0.01, rng=0)
        for j in range(inst.n_items):
            x = np.zeros(inst.n_items, dtype=np.int8)
            x[j] = 1
            assert inst.is_feasible(x), f"item {j} does not fit alone"


class TestOscillationDepthEffect:
    def test_deeper_excursions_explore_more(self, medium_instance, rng):
        """Depth controls how far the oscillation wanders: deeper
        excursions eject more items on projection (on average)."""
        from repro.core import strategic_oscillation

        def result_distance(depth, seed):
            state = SearchState.from_solution(
                medium_instance, greedy_solution(medium_instance)
            )
            start = state.snapshot()
            out = strategic_oscillation(
                state, depth, np.random.default_rng(seed)
            )
            return int(np.count_nonzero(out.x != start.x))

        shallow = np.mean([result_distance(1, s) for s in range(10)])
        deep = np.mean([result_distance(12, s) for s in range(10)])
        assert deep >= shallow
