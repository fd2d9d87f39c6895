"""Unit tests for the serial and multiprocessing backends and their shared base."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    Budget,
    MKPInstance,
    Strategy,
    TabuSearchConfig,
    native,
    random_solution,
)
from repro.core.reduction import FixationPattern
from repro.parallel import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    MultiprocessingBackend,
    SerialBackend,
    ShmComm,
    SlaveRuntime,
    SlaveTask,
    SocketBackend,
    WireCodec,
)
from repro.parallel import backends
from repro.parallel.backends import _worker_main
from repro.parallel.message import STOP_TAG, TASK_TAG
from repro.variants import solve_cts2

from tests.differential import (
    assert_differential,
    canonical_bytes,
    numpy_reference,
    per_move_reference,
)


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
        told = backend.last_telemetry
        assert sorted(told.task_nbytes) == [0, 1]
        assert sorted(told.report_nbytes) == [0, 1]
        assert all(b > 0 for b in told.task_nbytes.values())
        assert all(b > 0 for b in told.report_nbytes.values())

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


def _corrupt(task: SlaveTask, **changes) -> SlaveTask:
    """``task`` with an ``x_init`` whose claimed value disagrees with its bits."""
    bad = type(task.x_init).trusted(task.x_init.x, task.x_init.value + 1.0)
    return dataclasses.replace(task, x_init=bad, **changes)


#: An armed plan that never fires: its events lie far past any test round.
NEVER_FIRING = FaultPlan(
    events=tuple(
        FaultEvent(1_000_000, k, kind)
        for k in range(4)
        for kind in (FaultKind.CRASH, FaultKind.DROP_REPORT)
    )
)


class TestBatchedBackends:
    """batch_k groups slaves onto shared worker runtimes without changing reports."""

    def test_mp_batched_spawns_fewer_workers(self, small_instance):
        with MultiprocessingBackend(4, batch_k=2) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            assert backend.n_workers == 2
            assert len(backend._procs) == 2
            reports = backend.run_round(make_tasks(small_instance, 4, evals=600))
            assert [r.slave_id for r in reports] == [0, 1, 2, 3]

    def test_batch_k_validation(self):
        with pytest.raises(ValueError):
            MultiprocessingBackend(2, batch_k=0)

    def test_batched_runtime_audit_rejects_corrupt_x_init(self, small_instance):
        runtime = SlaveRuntime(small_instance, TabuSearchConfig(nb_div=100), slave_id=0)
        tasks = make_tasks(small_instance, 2, evals=100)
        runtime.execute(tasks[0], slave_id=0)
        with pytest.raises(ValueError, match="corrupt x_init frame for slave 1"):
            runtime.execute(_corrupt(tasks[1]), slave_id=1)

    def test_audit_follows_the_data_not_the_kernel(self, small_instance):
        # Integer data makes the recomputation exact whichever kernel the
        # state runs, so a runtime on the Python reference path audits too.
        assert small_instance.hot.integer is not None
        with numpy_reference():
            runtime = SlaveRuntime(
                small_instance, TabuSearchConfig(nb_div=100), slave_id=0
            )
        assert runtime._thread.state.native() is None
        task = make_tasks(small_instance, 1, evals=100)[0]
        with pytest.raises(ValueError, match="corrupt x_init frame for slave 0"):
            runtime.execute(_corrupt(task))


class TestArmedPlanAudit:
    """Every task is audited in ``SlaveRuntime.execute``, under any plan.

    An armed plan that never fires must not switch the corrupt-``x_init``
    check off: ``serve_batch`` has one serving path for every plan.
    """

    def test_serial_backend(self, small_instance):
        tasks = make_tasks(small_instance, 2, evals=100)
        with SerialBackend(2, fault_plan=NEVER_FIRING) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            with pytest.raises(ValueError, match="corrupt x_init"):
                backend.run_round([tasks[0], _corrupt(tasks[1])])

    def test_fixation_pattern_is_audited_before_projection(self, small_instance):
        n = small_instance.n_items
        core_mask = np.ones(n, dtype=bool)
        core_mask[: n // 3] = False
        pattern = FixationPattern(core_mask=core_mask, fixed_values=np.zeros(n, np.int8))
        assert not pattern.is_trivial
        task = _corrupt(make_tasks(small_instance, 1, evals=100)[0], pattern=pattern)
        with SerialBackend(1, fault_plan=NEVER_FIRING) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            with pytest.raises(ValueError, match="corrupt x_init"):
                backend.run_round([task])

    def test_multiprocessing_worker(self, small_instance, mp_context):
        # The worker entry point itself, run in-process over a real pipe.
        config = TabuSearchConfig(nb_div=100)
        task = _corrupt(make_tasks(small_instance, 1, evals=100)[0])
        master_end, worker_end = mp.Pipe()
        master = ShmComm(master_end)
        master.send(
            WireCodec(small_instance.n_items).encode_task_batch([(0, task)])[0],
            tag=TASK_TAG,
        )
        master.send(b"", tag=STOP_TAG)
        try:
            with pytest.raises(ValueError, match="corrupt x_init"):
                _worker_main(worker_end, small_instance, config, (0,), NEVER_FIRING)
        finally:
            master.close()
        # End to end, the corrupt slave's worker dies and its peer serves on.
        tasks = make_tasks(small_instance, 2, evals=100)
        with MultiprocessingBackend(
            2, mp_context=mp_context, fault_plan=NEVER_FIRING, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, config)
            reports = backend.run_round([tasks[0], _corrupt(tasks[1])])
            assert [r.slave_id for r in reports] == [0]
            assert backend.drain_dead_slaves() == [1]


def _helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-serial-")]


@pytest.fixture
def every_serve_threaded(monkeypatch):
    """Hand every serve with work to the helpers; returns the names of the
    threads that ran ``SlaveRuntime.execute``."""
    monkeypatch.setattr(backends, "_HANDOFF_S", 0.0)
    names: list[str] = []
    execute = SlaveRuntime.execute

    def traced(self, task, slave_id=None):
        names.append(threading.current_thread().name)
        return execute(self, task, slave_id)

    monkeypatch.setattr(SlaveRuntime, "execute", traced)
    return names


#: Helper threads serve only searches that run in C, which releases the GIL.
needs_native = pytest.mark.skipif(not native.available, reason="native kernel unavailable")


def _chaos_plan(n_slaves: int, n_rounds: int) -> FaultPlan:
    """A seeded plan with crash, drop, duplicate, delay and straggle events."""
    plan = FaultPlan.from_seed(
        5,
        n_slaves,
        n_rounds,
        crash_rate=0.1,
        task_drop_rate=0.05,
        report_drop_rate=0.1,
        duplicate_rate=0.1,
        delay_rate=0.15,
        straggle_rate=0.1,
    )
    kinds = {event.kind for event in plan.events}
    assert kinds == set(FaultKind), f"plan lacks {set(FaultKind) - kinds}"
    return plan


def _report_key(report):
    return (
        report.slave_id,
        report.seq_id,
        report.round_index,
        report.best.value,
        report.best.packed_bytes(),
        report.evaluations,
        report.moves,
    )


def _round_tasks(instance, n_slaves, r, evals=1500):
    """Round ``r``'s tasks; slave ``r mod n_slaves`` sits the round out."""
    return [
        None
        if k == r % n_slaves
        else SlaveTask(
            x_init=random_solution(instance, rng=100 * r + k),
            strategy=Strategy(4 + k % 5, 1 + k % 3, 10),
            budget=Budget(max_evaluations=evals),
            seed=1000 * r + k,
            round_index=r,
            seq_id=r * n_slaves + k,
        )
        for k in range(n_slaves)
    ]


class TestSerialHelperThreads:
    """``SerialBackend(8, threads=4)`` is ``threads=1`` with the C searches
    of different slaves overlapped: every report, tally and byte is equal."""

    N_SLAVES, N_ROUNDS = 8, 6

    def _one_and_four_threads(self, plan=None):
        """Backend factories: ``threads=1`` (the reference), then ``threads=4``."""
        return {
            f"threads={w}": lambda w=w: SerialBackend(self.N_SLAVES, threads=w, fault_plan=plan)
            for w in (1, 4)
        }

    def _sync_trace(self, instance, threads, plan):
        backend = SerialBackend(self.N_SLAVES, threads=threads, fault_plan=plan)
        backend.start(instance, TabuSearchConfig(nb_div=3))
        trace = []
        try:
            for r in range(self.N_ROUNDS):
                reports = backend.run_round(_round_tasks(instance, self.N_SLAVES, r))
                told = backend.last_telemetry
                trace.append(
                    (
                        [_report_key(rep) for rep in reports],
                        dict(backend.fault_counters),
                        dict(backend.last_slowdowns),
                        told.task_nbytes,
                        told.report_nbytes,
                    )
                )
            used_helpers = backend._helpers is not None
        finally:
            backend.shutdown()
        return trace, used_helpers

    def _async_trace(self, instance, threads, plan):
        """Dispatch one slave at a time, three slaves per serve, the first of
        them twice (its second task after the others'), and record the
        arrival order."""
        backend = SerialBackend(self.N_SLAVES, threads=threads, fault_plan=plan)
        backend.start(instance, TabuSearchConfig(nb_div=3))
        arrivals = []

        def collect() -> None:
            while (item := backend.next_report()) is not None:
                arrivals.append((_report_key(item[0]), item[1]))

        try:
            for r in range(self.N_ROUNDS):
                tasks = _round_tasks(instance, self.N_SLAVES, r)
                batch = []
                for k, task in enumerate(tasks):
                    if task is None:
                        continue
                    backend.dispatch(k, task)
                    batch.append(k)
                    if len(batch) == 3:
                        again = dataclasses.replace(tasks[batch[0]], seq_id=-1 - batch[0])
                        backend.dispatch(batch[0], again)
                        collect()
                        batch = []
                collect()
            used_helpers = backend._helpers is not None
            books = (dict(backend.fault_counters), dict(backend.last_slowdowns))
        finally:
            backend.shutdown()
        return arrivals, books, used_helpers

    @needs_native
    @pytest.mark.parametrize("armed", [False, True], ids=["fault-free", "faults"])
    def test_sync_rounds_match_one_thread(self, medium_instance, every_serve_threaded, armed):
        plan = _chaos_plan(self.N_SLAVES, self.N_ROUNDS) if armed else None
        one, one_used = self._sync_trace(medium_instance, 1, plan)
        assert not one_used and not any(
            name.startswith("repro-serial-") for name in every_serve_threaded
        )
        many, many_used = self._sync_trace(medium_instance, 4, plan)
        assert many_used
        assert any(name.startswith("repro-serial-") for name in every_serve_threaded)
        assert many == one

    @needs_native
    def test_stress_many_rounds_short_switch_interval(self, small_instance, every_serve_threaded):
        # 8 slaves on 4 threads (more than this host's cores) for many
        # rounds, with the interpreter switching threads every 10 us: a
        # lost update to a held list or a result slot changes the trace.
        plan = _chaos_plan(self.N_SLAVES, 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            traces = {}
            for threads in (1, 4):
                with SerialBackend(self.N_SLAVES, threads=threads, fault_plan=plan) as backend:
                    backend.start(small_instance, TabuSearchConfig(nb_div=3))
                    traces[threads] = [
                        [_report_key(rep) for rep in backend.run_round(
                            _round_tasks(small_instance, self.N_SLAVES, r, evals=400))]
                        for r in range(40)
                    ] + [dict(backend.fault_counters)]
        finally:
            sys.setswitchinterval(interval)
        assert traces[4] == traces[1]
        assert sum(name.startswith("repro-serial-") for name in every_serve_threaded) > 40

    @needs_native
    @pytest.mark.parametrize("armed", [False, True], ids=["fault-free", "faults"])
    def test_async_arrivals_match_one_thread(self, medium_instance, every_serve_threaded, armed):
        plan = _chaos_plan(self.N_SLAVES, self.N_ROUNDS) if armed else None
        one = self._async_trace(medium_instance, 1, plan)
        many = self._async_trace(medium_instance, 4, plan)
        assert not one[2] and many[2]
        assert many[:2] == one[:2]

    @needs_native
    @pytest.mark.parametrize("pipeline", ["sync", "async"])
    @pytest.mark.parametrize("armed", [False, True], ids=["fault-free", "faults"])
    def test_master_runs_match_one_thread(self, medium_instance, every_serve_threaded,
                                          pipeline, armed):
        n_rounds = 5
        plan = _chaos_plan(self.N_SLAVES, n_rounds) if armed else None
        runs = {}
        for threads in (1, 4):
            with SerialBackend(self.N_SLAVES, threads=threads, fault_plan=plan) as backend:
                runs[threads] = solve_cts2(
                    medium_instance,
                    n_slaves=self.N_SLAVES,
                    n_rounds=n_rounds,
                    rng_seed=11,
                    max_evaluations=2_000,
                    pipeline=pipeline,
                    backend=backend,
                )
        one, many = runs[1], runs[4]
        assert many.best.value == one.best.value
        for name in ("value_history", "total_evaluations", "fault_summary", "bytes_sent"):
            assert getattr(many, name) == getattr(one, name), name
        assert canonical_bytes(many) == canonical_bytes(one)
        assert any(name.startswith("repro-serial-") for name in every_serve_threaded)

    @needs_native
    def test_core_reduced_runs_match_one_thread(self, medium_instance, every_serve_threaded):
        # LP-core tasks build and reuse reduced arenas per runtime, on
        # whichever thread serves that slave.
        assert_differential(
            medium_instance,
            self._one_and_four_threads(),
            n_slaves=self.N_SLAVES,
            n_rounds=5,
            rng_seed=5,
            max_evaluations=2_000,
            core_ratio=0.5,
        )
        assert any(name.startswith("repro-serial-") for name in every_serve_threaded)

    @needs_native
    @pytest.mark.parametrize("corrupt_at", [0, 2])
    def test_corrupt_x_init_stops_the_serve_as_inline(
        self, small_instance, every_serve_threaded, corrupt_at
    ):
        # Round 1 holds back slave 3's report, so round 2's serve opens with
        # its release; the corrupt task then stops the serve mid-queue,
        # ahead of slave 3's round-2 task, which is delayed too.
        plan = FaultPlan(
            events=tuple(FaultEvent(r, 3, FaultKind.DELAY_REPORT) for r in (1, 2))
        )
        config = TabuSearchConfig(nb_div=100)

        def books(backend):
            return (
                [(_report_key(r), n) for r, n in backend._arrived],
                [(k, None if t is None else t.seq_id) for k, t in backend._queued],
                [[_report_key(r) for r in held] for held in backend._held],
            )

        states = {}
        for threads in (1, 4):
            with SerialBackend(4, threads=threads, fault_plan=plan) as backend:
                backend.start(small_instance, config)
                for r in (0, 1):
                    backend.run_round(_round_tasks(small_instance, 4, r)[:4])
                tasks = make_tasks(small_instance, 4, evals=500)
                tasks = [dataclasses.replace(t, round_index=2, seq_id=8 + k)
                         for k, t in enumerate(tasks)]
                tasks[corrupt_at] = _corrupt(tasks[corrupt_at])
                backend._open_round(None)
                backend.dispatch(list(enumerate(tasks)))
                message = f"corrupt x_init frame for slave {corrupt_at}"
                with pytest.raises(ValueError, match=message):
                    backend.next_report()
                after_error = books(backend)
                rest = []
                while (item := backend.next_report()) is not None:
                    rest.append(_report_key(item[0]))
                states[threads] = (after_error, rest, backend._helpers is not None)
        assert states[4][2], "the failing serve ran inline"
        assert states[4][:2] == states[1][:2]

    @pytest.mark.parametrize(
        "path", ["wall-seconds", "numpy-reference", "on-move", "add-breadth", "float-data"]
    )
    def test_a_search_in_python_keeps_the_serve_inline(
        self, small_instance, every_serve_threaded, path
    ):
        # Only the C search releases the GIL.  Each case sends one or all
        # tasks down the Python loop (TabuSearch.runs_native), and a serve
        # with any such task starts no thread.
        instance, config = small_instance, TabuSearchConfig(nb_div=100)
        if path == "float-data":
            rng = np.random.default_rng(3)
            weights = rng.uniform(1.0, 9.0, size=(3, 40))
            instance = MKPInstance(weights, weights.sum(axis=1) / 2, rng.uniform(1.0, 9.0, 40))
        elif path == "add-breadth":
            config = TabuSearchConfig(nb_div=100, add_candidates=3)
        tasks = make_tasks(instance, 4, evals=300)
        if path == "wall-seconds":
            tasks[3] = dataclasses.replace(
                tasks[3], budget=Budget(max_evaluations=300, wall_seconds=5.0)
            )
        reference = {"numpy-reference": numpy_reference, "on-move": per_move_reference}
        with reference.get(path, contextlib.nullcontext)():
            with SerialBackend(4, threads=4) as backend:
                backend.start(instance, config)
                assert not all(backend._runtimes[k].runs_native(t) for k, t in enumerate(tasks))
                for _ in range(3):
                    backend.run_round(tasks)
                assert backend._helpers is None
        assert set(every_serve_threaded) == {"MainThread"}

    def test_fresh_runtimes_serve_inline(self, small_instance, every_serve_threaded):
        # A fresh runtime reads last_execute_s = 0, so a 1-round solve on a
        # new backend (a benchmark's warm-up) starts no thread.
        backend = SerialBackend(4, threads=4)
        solve_cts2(small_instance, n_slaves=4, n_rounds=1, rng_seed=1,
                   max_evaluations=1_000, backend=backend)
        assert backend._helpers is None
        backend.shutdown()

    @needs_native
    def test_pool_lives_across_start_and_is_joined_by_shutdown(
        self, small_instance, medium_instance, every_serve_threaded
    ):
        config = TabuSearchConfig(nb_div=100)
        backend = SerialBackend(4, threads=3)
        backend.start(small_instance, config)
        for _ in range(2):
            backend.run_round(make_tasks(small_instance, 4))
        pool = backend._helpers
        assert pool is not None and len(_helper_threads()) >= 2
        backend.start(small_instance, config)  # warm reuse
        backend.start(medium_instance, config)  # rebind
        backend.run_round(make_tasks(medium_instance, 4))
        assert backend._helpers is pool
        threads = list(pool._threads)
        backend.shutdown()
        assert backend._helpers is None
        assert not any(t.is_alive() for t in threads)

    @needs_native
    def test_dropped_backend_stops_its_helpers(self, small_instance, every_serve_threaded):
        backend = SerialBackend(4, threads=2)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        for _ in range(2):
            backend.run_round(make_tasks(small_instance, 4))
        threads = list(backend._helpers._threads)
        del backend
        gc.collect()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_width(self, small_instance):
        with pytest.raises(ValueError, match="threads"):
            SerialBackend(4, threads=0)
        assert SerialBackend(4, threads=16).threads == 4
        assert SerialBackend(4, threads=1).threads == 1
        assert 1 <= SerialBackend(4).threads <= 4

    def test_bind_builds_instance_caches_on_the_master(self, small_instance):
        instance = dataclasses.replace(small_instance)
        assert instance._hot is None and instance._tightness is None
        with SerialBackend(2) as backend:
            backend.start(instance, TabuSearchConfig(nb_div=100))
            for field in ("_hot", "_density", "_density_order", "_tightness"):
                assert getattr(instance, field) is not None, field


BACKEND_KINDS = ("serial", "multiprocessing", "socket")


def make_backend(kind, n_slaves, mp_context):
    """A fresh, unstarted backend; the socket one has one local worker."""
    if kind == "serial":
        return SerialBackend(n_slaves)
    if kind == "multiprocessing":
        return MultiprocessingBackend(
            n_slaves, mp_context=mp_context, round_timeout_s=30.0
        )
    backend = SocketBackend(n_slaves, round_timeout_s=30.0)
    backend.attach_local_workers(1, mp_context=mp_context)
    return backend


class TestBackendBase:
    """What every backend inherits from ``Backend``: the round, the lease."""

    @pytest.mark.parametrize(
        "cls", [SerialBackend, MultiprocessingBackend, SocketBackend]
    )
    def test_traced_methods_live_in_each_class(self, cls):
        # layerbench's tracer wraps these by ``cls.__dict__[name]``.
        for name in ("run_round", "dispatch", "next_report"):
            assert name in cls.__dict__

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_run_round_before_start_raises(self, kind, small_instance, mp_context):
        with make_backend(kind, 2, mp_context) as backend:
            with pytest.raises(RuntimeError, match="not started"):
                backend.run_round(make_tasks(small_instance, 2))

    def test_socket_start_timeout_leaves_backend_unbound(
        self, small_instance, mp_context
    ):
        config = TabuSearchConfig(nb_div=100)
        with SocketBackend(2, start_timeout_s=0.2, round_timeout_s=30.0) as backend:
            with pytest.raises(RuntimeError, match="workers connected"):
                backend.start(small_instance, config)
            assert (backend.rebinds, backend.warm_reuses) == (0, 0)
            backend.start_timeout_s = 30.0  # long enough for a spawned worker
            backend.attach_local_workers(1, mp_context=mp_context)
            backend.start(small_instance, config)
            assert (backend.rebinds, backend.warm_reuses) == (0, 0)
            assert len(backend.run_round(make_tasks(small_instance, 2))) == 2
