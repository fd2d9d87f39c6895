"""Warm-runtime reset contract and warm-vs-cold golden equivalence.

DESIGN.md §5.4: a :class:`~repro.parallel.runtime.SlaveRuntime` rebinds one
resident :class:`~repro.core.tabu_search.TabuSearch` per task instead of
reconstructing it, and the resulting trajectory must be *bit-identical* to
a cold construction.  These tests pin that contract at every layer: the
individual ``reset()`` paths, ``TabuSearch.rebind``, the runtime itself,
and both backends across several consecutive rounds (including fork and
spawn multiprocessing contexts).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import Budget, Strategy, TabuSearchConfig, random_solution
from repro.core.solution import SearchState
from repro.core.tabu_list import TabuList
from repro.core.tabu_search import TabuSearch
from repro.parallel import (
    MultiprocessingBackend,
    SerialBackend,
    SlaveRuntime,
    SlaveTask,
)

CONFIG = TabuSearchConfig(nb_div=100)

#: Deliberately heterogeneous tasks: different strategies, seeds, starts
#: and budgets, so any state leaking across a rebind changes a trajectory.
TASK_SPECS = [
    (Strategy(8, 2, 10), 1000, 0, 1500),
    (Strategy(4, 1, 6), 2000, 1, 800),
    (Strategy(12, 3, 15), 3000, 2, 1200),
    (Strategy(8, 2, 10), 1000, 3, 1500),  # same params as task 0, later round
]


def make_task(instance, spec, slave_id=0, n_slaves=1):
    strategy, seed, round_index, evals = spec
    return SlaveTask(
        x_init=random_solution(instance, rng=seed % 7),
        strategy=strategy,
        budget=Budget(max_evaluations=evals),
        seed=seed,
        round_index=round_index,
        seq_id=round_index * n_slaves + slave_id,
    )


def round_tasks(instance, n, round_index, evals=900):
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=10 * round_index + k),
            strategy=Strategy(6 + k, 1 + k % 3, 8 + 2 * k),
            budget=Budget(max_evaluations=evals),
            seed=500 + 97 * round_index + k,
            round_index=round_index,
            seq_id=round_index * n + k,
        )
        for k in range(n)
    ]


def cold_keys(instance, tasks):
    """The cold reference: a fresh runtime per task, built for its slave."""
    return [
        report_key(SlaveRuntime(instance, CONFIG, k).execute(task))
        for k, task in enumerate(tasks)
    ]


def report_key(r):
    return (
        r.slave_id,
        r.seq_id,
        r.best,
        tuple(r.elite),
        r.initial_value,
        r.evaluations,
        r.moves,
    )


# --------------------------------------------------------------------- #
# Reset-contract units
# --------------------------------------------------------------------- #
class TestResetContract:
    def test_tabu_list_reset_matches_fresh(self):
        tl = TabuList(10, tenure=3)
        for _ in range(5):
            tl.tick()
        tl.make_tabu(np.array([1, 4, 7]))
        assert tl.is_tabu(4)
        tl.reset(tenure=5)
        fresh = TabuList(10, tenure=5)
        assert tl.clock == fresh.clock == 0
        assert tl.tenure == fresh.tenure == 5
        np.testing.assert_array_equal(tl._expiry, fresh._expiry)
        assert not any(tl.is_tabu(i) for i in range(10))

    def test_tabu_list_reset_keeps_tenure_when_omitted(self):
        tl = TabuList(4, tenure=7)
        tl.make_tabu(0)
        tl.reset()
        assert tl.tenure == 7 and tl.clock == 0 and not tl.is_tabu(0)

    def test_search_state_reset_is_empty_state(self, small_instance):
        state = SearchState.empty(small_instance)
        for j in (0, 3, 5):
            state.add(j)
        assert state.value > 0
        state.reset()
        fresh = SearchState.empty(small_instance)
        assert state.value == fresh.value == 0.0
        np.testing.assert_array_equal(state.packed_items(), fresh.packed_items())
        assert state.snapshot() == fresh.snapshot()

    def test_kernel_reset_clears_exclusions(self, small_instance):
        state = SearchState.empty(small_instance)
        baseline = state.fitting_items().copy()
        state.set_exclusions([0, 1, 2])
        assert state.fitting_items().size < baseline.size
        state.reset(None)
        np.testing.assert_array_equal(state.fitting_items(), baseline)

    def test_rebind_matches_fresh_construction(self, small_instance):
        strategy, seed, _, evals = TASK_SPECS[0]
        x0 = random_solution(small_instance, rng=9)
        budget = Budget(max_evaluations=evals)

        fresh = TabuSearch(small_instance, strategy, config=CONFIG, rng=seed)
        want = fresh.run(x_init=x0, budget=budget)

        warm = TabuSearch(small_instance, Strategy(3, 1, 4), config=CONFIG, rng=7)
        warm.run(x_init=random_solution(small_instance, rng=2), budget=Budget(max_evaluations=600))
        got = warm.rebind(strategy, seed).run(x_init=x0, budget=budget)

        assert got.best == want.best
        assert tuple(got.elite) == tuple(want.elite)
        assert got.evaluations == want.evaluations
        assert got.moves == want.moves
        assert got.initial_value == want.initial_value


# --------------------------------------------------------------------- #
# SlaveRuntime warm == cold
# --------------------------------------------------------------------- #
class TestSlaveRuntime:
    def test_warm_reports_equal_cold_across_tasks(self, small_instance):
        runtime = SlaveRuntime(small_instance, CONFIG, slave_id=0)
        for spec in TASK_SPECS:
            task = make_task(small_instance, spec)
            warm = runtime.execute(task)
            cold = SlaveRuntime(small_instance, CONFIG, 0).execute(task)
            assert report_key(warm) == report_key(cold)
        assert runtime.tasks_served == len(TASK_SPECS)

    def test_reports_carry_the_runtime_slave_id(self, small_instance):
        runtime = SlaveRuntime(small_instance, CONFIG, slave_id=3)
        assert runtime.slave_id == 3
        assert runtime.execute(make_task(small_instance, TASK_SPECS[0])).slave_id == 3

    def test_idle_telemetry_counts_gaps_between_tasks(self, small_instance):
        runtime = SlaveRuntime(small_instance, CONFIG, slave_id=0)
        assert runtime.total_idle_s == 0.0

        runtime.execute(make_task(small_instance, TASK_SPECS[0]))
        # The first task has no predecessor: no starvation charged yet.
        assert runtime.last_idle_s == 0.0
        assert runtime.total_idle_s == 0.0

        time.sleep(0.02)
        runtime.execute(make_task(small_instance, TASK_SPECS[1]))
        assert runtime.last_idle_s >= 0.02
        assert runtime.total_idle_s == pytest.approx(runtime.last_idle_s)

        runtime.execute(make_task(small_instance, TASK_SPECS[2]))
        assert runtime.total_idle_s > runtime.last_idle_s


# --------------------------------------------------------------------- #
# Backend-level golden equivalence (>= 3 consecutive rounds)
# --------------------------------------------------------------------- #
N_ROUNDS = 3
N_SLAVES = 2


class TestBackendWarmEqualsCold:
    def test_serial_backend(self, small_instance):
        warm = SerialBackend(N_SLAVES)
        warm.start(small_instance, CONFIG)
        for r in range(N_ROUNDS):
            tasks = round_tasks(small_instance, N_SLAVES, r)
            got = [report_key(x) for x in warm.run_round(tasks)]
            assert got == cold_keys(small_instance, tasks)
        assert all(rt.tasks_served == N_ROUNDS for rt in warm._runtimes)

    @pytest.mark.slow
    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_multiprocessing_backend(self, small_instance, context):
        rounds = [
            round_tasks(small_instance, N_SLAVES, r, evals=600)
            for r in range(N_ROUNDS)
        ]
        with MultiprocessingBackend(N_SLAVES, mp_context=context) as backend:
            backend.start(small_instance, CONFIG)
            warm = [
                [report_key(x) for x in backend.run_round(tasks)]
                for tasks in rounds
            ]
        assert warm == [cold_keys(small_instance, tasks) for tasks in rounds]
        assert all(len(per_round) == N_SLAVES for per_round in warm)
