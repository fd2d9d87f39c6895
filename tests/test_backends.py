"""Unit tests for the serial and multiprocessing backends."""

from __future__ import annotations

import time

import pytest

from repro.core import Budget, Strategy, TabuSearchConfig, random_solution
from repro.parallel import MultiprocessingBackend, SerialBackend, SlaveTask


def make_tasks(instance, n, evals=2000):
    tasks = []
    for k in range(n):
        tasks.append(
            SlaveTask(
                x_init=random_solution(instance, rng=k),
                strategy=Strategy(8, 2, 10),
                budget=Budget(max_evaluations=evals),
                seed=1000 + k,
                round_index=0,
            )
        )
    return tasks


class TestSerialBackend:
    def test_round_returns_reports_in_order(self, small_instance):
        backend = SerialBackend(3)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        reports = backend.run_round(make_tasks(small_instance, 3))
        assert [r.slave_id for r in reports] == [0, 1, 2]

    def test_requires_start(self, small_instance):
        backend = SerialBackend(2)
        with pytest.raises(RuntimeError, match="not started"):
            backend.run_round(make_tasks(small_instance, 2))

    def test_task_count_checked(self, small_instance):
        backend = SerialBackend(2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        with pytest.raises(ValueError, match="expected 2 tasks"):
            backend.run_round(make_tasks(small_instance, 3))

    def test_message_sizes_recorded(self, small_instance):
        backend = SerialBackend(2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.run_round(make_tasks(small_instance, 2))
        assert sorted(backend.last_task_nbytes) == [0, 1]
        assert sorted(backend.last_report_nbytes) == [0, 1]
        assert all(b > 0 for b in backend.last_task_nbytes.values())
        assert all(b > 0 for b in backend.last_report_nbytes.values())

    def test_reports_carry_results(self, small_instance):
        backend = SerialBackend(2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        tasks = make_tasks(small_instance, 2)
        reports = backend.run_round(tasks)
        for task, report in zip(tasks, reports):
            assert report.best.value >= task.x_init.value
            assert report.evaluations > 0
            assert report.best.is_feasible(small_instance)

    def test_invalid_slave_count(self):
        with pytest.raises(ValueError):
            SerialBackend(0)

    def test_context_manager(self, small_instance):
        with SerialBackend(1) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            backend.run_round(make_tasks(small_instance, 1))

    def test_phase_wall_counters_recorded(self, small_instance):
        backend = SerialBackend(2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.run_round(make_tasks(small_instance, 2))
        phases = backend.last_telemetry.phase_seconds
        assert set(phases) == {"scatter", "compute", "gather"}
        assert all(v >= 0.0 for v in phases.values())
        # Inline slaves do all the work in the compute phase.
        assert phases["compute"] > 0.0
        assert backend.last_telemetry.master_wait_s == 0.0
        backend.run_round(make_tasks(small_instance, 2))
        assert backend.last_telemetry.phase_seconds["compute"] > 0.0


@pytest.mark.slow
class TestMultiprocessingBackend:
    def test_round_matches_serial(self, small_instance, mp_context):
        """Same tasks + same seeds => bit-identical reports across backends
        (the property that transfers simulated results to real hardware)."""
        config = TabuSearchConfig(nb_div=100)
        tasks = make_tasks(small_instance, 2)

        serial = SerialBackend(2)
        serial.start(small_instance, config)
        serial_reports = serial.run_round(tasks)

        with MultiprocessingBackend(2, mp_context=mp_context) as mp_backend:
            mp_backend.start(small_instance, config)
            mp_reports = mp_backend.run_round(tasks)

        for a, b in zip(serial_reports, mp_reports):
            assert a.best == b.best
            assert a.evaluations == b.evaluations
            assert a.initial_value == b.initial_value

    def test_multiple_rounds_reuse_workers(self, small_instance, mp_context):
        with MultiprocessingBackend(2, mp_context=mp_context) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            r1 = backend.run_round(make_tasks(small_instance, 2, evals=800))
            r2 = backend.run_round(make_tasks(small_instance, 2, evals=800))
            assert len(r1) == len(r2) == 2

    def test_double_start_is_warm_reuse(self, small_instance):
        # start() on a live backend used to raise; the service lease model
        # makes it a warm no-op for the same problem (see TestMultiprocessing-
        # WarmLeasing for the rebind path).
        with MultiprocessingBackend(1) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            assert backend.warm_reuses == 1

    def test_requires_start(self, small_instance):
        backend = MultiprocessingBackend(1)
        with pytest.raises(RuntimeError, match="not started"):
            backend.run_round(make_tasks(small_instance, 1))

    def test_shutdown_idempotent(self, small_instance):
        backend = MultiprocessingBackend(1)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.run_round(make_tasks(small_instance, 1, evals=500))
        backend.shutdown()
        backend.shutdown()  # second call is a no-op

    def test_phase_and_idle_counters(self, small_instance, mp_context):
        with MultiprocessingBackend(2, mp_context=mp_context) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            backend.run_round(make_tasks(small_instance, 2, evals=500))
            told = backend.last_telemetry
            assert set(told.phase_seconds) == {"scatter", "compute", "gather"}
            # Every reporting slave gets a collection latency, and the
            # master's blocked time is bounded by the gather wall.
            assert sorted(told.gather_idle_s) == [0, 1]
            gather = told.phase_seconds["gather"]
            assert all(0.0 <= v <= gather for v in told.gather_idle_s.values())
            assert 0.0 <= told.master_wait_s <= gather + 1e-6

    def test_healthy_shutdown_is_prompt(self, small_instance, mp_context):
        backend = MultiprocessingBackend(
            4, mp_context=mp_context, shutdown_timeout_s=10.0
        )
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.run_round(make_tasks(small_instance, 4, evals=300))
        t0 = time.perf_counter()
        backend.shutdown()
        # Shared deadline: 4 healthy workers stop in well under one
        # per-worker timeout, let alone 4 x 10 s of sequential joins.
        assert time.perf_counter() - t0 < 5.0

    def test_shutdown_timeout_validated(self):
        with pytest.raises(ValueError, match="shutdown_timeout_s"):
            MultiprocessingBackend(1, shutdown_timeout_s=0.0)


def reports_values(reports):
    return [(r.slave_id, r.best.value, r.evaluations) for r in reports]


class TestSerialWarmLeasing:
    def test_same_problem_restart_is_warm_noop(self, small_instance):
        backend = SerialBackend(2)
        config = TabuSearchConfig(nb_div=100)
        backend.start(small_instance, config)
        runtimes = list(backend._runtimes)
        backend.start(small_instance, config)
        assert backend.warm_reuses == 1
        assert backend.rebinds == 0
        # warm path keeps the exact runtime objects (arenas preserved)
        assert all(a is b for a, b in zip(runtimes, backend._runtimes))

    def test_rebind_matches_cold_backend(self, small_instance, medium_instance):
        config = TabuSearchConfig(nb_div=100)
        warm = SerialBackend(2)
        warm.start(small_instance, config)
        warm.run_round(make_tasks(small_instance, 2, evals=800))
        warm.start(medium_instance, config)  # in-place rebind
        assert warm.rebinds == 1
        cold = SerialBackend(2)
        cold.start(medium_instance, config)
        warm_reports = warm.run_round(make_tasks(medium_instance, 2, evals=800))
        cold_reports = cold.run_round(make_tasks(medium_instance, 2, evals=800))
        assert reports_values(warm_reports) == reports_values(cold_reports)

    def test_config_change_forces_rebind(self, small_instance):
        backend = SerialBackend(2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.start(small_instance, TabuSearchConfig(nb_div=50))
        assert backend.warm_reuses == 0
        assert backend.rebinds == 1

    def test_shutdown_idempotent_and_revivable(self, small_instance):
        config = TabuSearchConfig(nb_div=100)
        backend = SerialBackend(2)
        backend.start(small_instance, config)
        backend.run_round(make_tasks(small_instance, 2, evals=500))
        backend.shutdown()
        backend.shutdown()  # repeated shutdown is a no-op
        with pytest.raises(RuntimeError, match="not started"):
            backend.run_round(make_tasks(small_instance, 2, evals=500))
        backend.start(small_instance, config)  # revival cold-starts
        reports = backend.run_round(make_tasks(small_instance, 2, evals=500))
        cold = SerialBackend(2)
        cold.start(small_instance, config)
        assert reports_values(reports) == reports_values(
            cold.run_round(make_tasks(small_instance, 2, evals=500))
        )


class TestMultiprocessingWarmLeasing:
    def test_same_problem_restart_keeps_workers(self, small_instance, mp_context):
        config = TabuSearchConfig(nb_div=100)
        with MultiprocessingBackend(2, mp_context=mp_context) as backend:
            backend.start(small_instance, config)
            backend.run_round(make_tasks(small_instance, 2, evals=500))
            pids = [p.pid for p in backend._procs]
            backend.start(small_instance, config)
            assert backend.warm_reuses == 1
            assert [p.pid for p in backend._procs] == pids
            backend.run_round(make_tasks(small_instance, 2, evals=500))

    def test_rebind_without_respawn_matches_cold(
        self, small_instance, medium_instance, mp_context
    ):
        config = TabuSearchConfig(nb_div=100)
        with MultiprocessingBackend(2, mp_context=mp_context) as warm:
            warm.start(small_instance, config)
            warm.run_round(make_tasks(small_instance, 2, evals=500))
            pids = [p.pid for p in warm._procs]
            warm.start(medium_instance, config)
            assert warm.rebinds == 1
            # same live workers: rebind is a pipe message, not a respawn
            assert [p.pid for p in warm._procs] == pids
            warm_reports = warm.run_round(
                make_tasks(medium_instance, 2, evals=500)
            )
        with MultiprocessingBackend(2, mp_context=mp_context) as cold:
            cold.start(medium_instance, config)
            cold_reports = cold.run_round(
                make_tasks(medium_instance, 2, evals=500)
            )
        assert reports_values(warm_reports) == reports_values(cold_reports)

    def test_shutdown_idempotent_and_revivable(self, small_instance, mp_context):
        config = TabuSearchConfig(nb_div=100)
        backend = MultiprocessingBackend(2, mp_context=mp_context)
        backend.start(small_instance, config)
        backend.run_round(make_tasks(small_instance, 2, evals=300))
        backend.shutdown()
        backend.shutdown()
        backend.shutdown()  # any number of repeats stays a no-op
        backend.start(small_instance, config)  # fresh workers after revival
        try:
            reports = backend.run_round(make_tasks(small_instance, 2, evals=300))
            assert [r.slave_id for r in reports] == [0, 1]
        finally:
            backend.shutdown()


class TestBatchedKernel:
    """The (K, n) kernel path must agree with K scalar resets bit-for-bit."""

    def test_batch_values_loads_feasible_match_scalar(self, small_instance, rng):
        import numpy as np

        from repro.core.kernels import EvalKernel

        kernel = EvalKernel(small_instance)
        X = (rng.random((6, small_instance.n_items)) < 0.4).astype(np.int8)
        values = kernel.batch_values(X)
        loads = kernel.batch_loads(X)
        feasible = kernel.batch_feasible(X)
        assert values.shape == (6,)
        assert loads.shape == (6, small_instance.n_constraints)
        for i in range(6):
            kernel.reset(X[i])
            assert values[i] == kernel.value
            assert np.array_equal(loads[i], kernel.load)
            assert feasible[i] == kernel.is_feasible

    def test_single_row_is_promoted_to_2d(self, small_instance):
        import numpy as np

        from repro.core.kernels import EvalKernel

        kernel = EvalKernel(small_instance)
        x = np.zeros(small_instance.n_items, dtype=np.int8)
        assert kernel.batch_values(x).shape == (1,)
        assert bool(kernel.batch_feasible(x)[0])  # empty knapsack is feasible


class TestBatchedBackends:
    """batch_k groups slaves onto shared runtimes without changing reports."""

    def test_serial_batched_reports_match_per_slave(self, small_instance):
        tasks = make_tasks(small_instance, 4, evals=600)
        with SerialBackend(4) as ref, SerialBackend(4, batch_k=3) as batched:
            ref.start(small_instance, TabuSearchConfig(nb_div=100))
            batched.start(small_instance, TabuSearchConfig(nb_div=100))
            a = ref.run_round(list(tasks))
            b = batched.run_round(list(tasks))
            # 4 slaves over groups of 3 → two warm runtimes, not four.
            assert len(batched._runtimes) == 2
        assert [r.slave_id for r in b] == [r.slave_id for r in a]
        assert [r.best.value for r in b] == [r.best.value for r in a]
        assert [r.evaluations for r in b] == [r.evaluations for r in a]

    def test_mp_batched_spawns_fewer_workers(self, small_instance):
        with MultiprocessingBackend(4, batch_k=2) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            assert backend.n_workers == 2
            assert len(backend._procs) == 2
            reports = backend.run_round(make_tasks(small_instance, 4, evals=600))
            assert [r.slave_id for r in reports] == [0, 1, 2, 3]

    def test_batch_k_validation(self):
        with pytest.raises(ValueError):
            SerialBackend(2, batch_k=0)
        with pytest.raises(ValueError):
            MultiprocessingBackend(2, batch_k=0)

    def test_batched_runtime_audit_rejects_corrupt_x_init(self, small_instance):
        from repro.core import TabuSearchConfig as _Cfg
        from repro.parallel.runtime import SlaveRuntime

        runtime = SlaveRuntime(small_instance, _Cfg(nb_div=100), slave_id=0)
        tasks = make_tasks(small_instance, 2, evals=100)
        bad = SlaveTask(
            x_init=type(tasks[1].x_init).trusted(
                tasks[1].x_init.x, tasks[1].x_init.value + 1.0
            ),
            strategy=tasks[1].strategy,
            budget=tasks[1].budget,
            seed=tasks[1].seed,
            round_index=tasks[1].round_index,
            seq_id=tasks[1].seq_id,
        )
        with pytest.raises(ValueError, match="corrupt x_init"):
            runtime.execute_batch([tasks[0], bad], [0, 1])
