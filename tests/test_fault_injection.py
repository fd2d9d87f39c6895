"""Chaos tests for the fault-injection layer itself.

Covers the :class:`~repro.parallel.faults.FaultPlan` schedule (determinism,
rate handling, crash caps), fault injection through
:class:`~repro.parallel.SerialBackend`, the hardened multiprocessing
backend (timeout + respawn), serial/multiprocessing fault parity (both
decide slave-side faults in the one ``serve_batch``), and the asynchronous
variant's degraded mode.

Everything here is seed-deterministic: the same fault seed must reproduce
the same fault schedule, so these are ordinary tests, never flaky.  The CI
chaos job re-runs them over a fixed seed matrix (see ``REPRO_CHAOS_SEED``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

from repro.core import Budget, Strategy, TabuSearchConfig, random_solution
from repro.parallel import (
    RESULT_TAG,
    CommClosedError,
    CommTimeout,
    FaultEvent,
    FaultKind,
    FaultPlan,
    MultiprocessingBackend,
    PipeComm,
    SerialBackend,
    SlaveTask,
)
from repro.variants import solve_cts_async

#: The CI chaos job exports REPRO_CHAOS_SEED to sweep a fixed seed matrix;
#: locally the default keeps a single representative seed in play.
ENV_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "101"))
SEEDS = sorted({ENV_SEED, 101})

pytestmark = pytest.mark.chaos


def make_tasks(instance, n, evals=1500, round_index=0):
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=evals),
            seed=1000 + k,
            round_index=round_index,
            seq_id=round_index * n + k,
        )
        for k in range(n)
    ]


def make_core_tasks(instance, pattern, n, evals=1500, round_index=0):
    """Tasks carrying an ISSUE-8 fixation pattern (core_ratio < 1)."""
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10, core_ratio=0.5),
            budget=Budget(max_evaluations=evals),
            seed=1000 + k,
            round_index=round_index,
            seq_id=round_index * n + k,
            pattern=pattern,
        )
        for k in range(n)
    ]


class TestFaultPlan:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_schedule(self, seed):
        kwargs = dict(
            crash_rate=0.2,
            report_drop_rate=0.2,
            duplicate_rate=0.1,
            delay_rate=0.1,
            straggle_rate=0.1,
        )
        a = FaultPlan.from_seed(seed, n_slaves=8, n_rounds=20, **kwargs)
        b = FaultPlan.from_seed(seed, n_slaves=8, n_rounds=20, **kwargs)
        assert a.events == b.events
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self):
        a = FaultPlan.from_seed(1, 8, 20, crash_rate=0.3)
        b = FaultPlan.from_seed(2, 8, 20, crash_rate=0.3)
        assert a.fingerprint() != b.fingerprint()

    def test_zero_rates_empty(self):
        plan = FaultPlan.from_seed(0, 16, 50)
        assert plan.is_empty
        assert plan.n_events == 0
        assert FaultPlan.none().is_empty

    def test_crash_cap_leaves_a_survivor_every_round(self):
        plan = FaultPlan.from_seed(3, n_slaves=4, n_rounds=40, crash_rate=1.0)
        for r in range(40):
            crashed = sum(plan.crashes(r, k) for k in range(4))
            assert crashed <= 3

    def test_queries_match_events(self):
        plan = FaultPlan(
            events=(
                FaultEvent(0, 1, FaultKind.CRASH),
                FaultEvent(1, 0, FaultKind.DROP_REPORT),
                FaultEvent(1, 2, FaultKind.DUPLICATE_REPORT),
                FaultEvent(2, 0, FaultKind.DELAY_REPORT),
                FaultEvent(2, 1, FaultKind.STRAGGLE, factor=3.0),
                FaultEvent(3, 2, FaultKind.DROP_TASK),
            )
        )
        assert plan.crashes(0, 1) and not plan.crashes(0, 0)
        assert plan.drops_report(1, 0)
        assert plan.duplicates_report(1, 2)
        assert plan.delays_report(2, 0)
        assert plan.straggle_factor(2, 1) == 3.0
        assert plan.straggle_factor(0, 0) == 1.0
        assert plan.drops_task(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan.from_seed(0, 4, 4, crash_rate=1.5)
        with pytest.raises(ValueError, match="n_slaves"):
            FaultPlan.from_seed(0, 0, 4)
        with pytest.raises(ValueError, match="straggle factor"):
            FaultEvent(0, 0, FaultKind.STRAGGLE, factor=1.0)


class TestSerialBackendChaos:
    def _run(self, instance, plan, n=3, round_index=0):
        backend = SerialBackend(n, fault_plan=plan)
        backend.start(instance, TabuSearchConfig(nb_div=100))
        reports = backend.run_round(make_tasks(instance, n, round_index=round_index))
        return backend, reports

    def test_crash_removes_report(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.CRASH),))
        backend, reports = self._run(small_instance, plan)
        assert [r.slave_id for r in reports] == [0, 2]
        assert backend.fault_counters["crash"] == 1

    def test_task_drop_removes_report(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.DROP_TASK),))
        backend, reports = self._run(small_instance, plan)
        assert [r.slave_id for r in reports] == [1, 2]
        assert 0 not in backend.last_task_nbytes

    def test_duplicate_report_delivered_twice(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 2, FaultKind.DUPLICATE_REPORT),))
        _, reports = self._run(small_instance, plan)
        assert [r.slave_id for r in reports] == [0, 1, 2, 2]
        a, b = reports[2], reports[3]
        assert a.seq_id == b.seq_id and a.best == b.best

    def test_delayed_report_arrives_next_round_stale(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DELAY_REPORT),))
        backend = SerialBackend(3, fault_plan=plan)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        first = backend.run_round(make_tasks(small_instance, 3, round_index=0))
        assert [r.slave_id for r in first] == [0, 2]
        second = backend.run_round(make_tasks(small_instance, 3, round_index=1))
        by_slave = [(r.slave_id, r.round_index) for r in second]
        # Slave 1 delivers twice in round 1: the stale round-0 report plus
        # the fresh round-1 one.
        assert by_slave.count((1, 0)) == 1
        assert by_slave.count((1, 1)) == 1

    def test_rebind_discards_held_reports(self, small_instance, medium_instance):
        """A report held for the old problem never surfaces after a rebind,
        as a multiprocessing worker drops its held list on REBIND."""
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DELAY_REPORT),))
        backend = SerialBackend(3, fault_plan=plan)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        backend.run_round(make_tasks(small_instance, 3, round_index=0))
        backend.start(medium_instance, TabuSearchConfig(nb_div=100))
        second = backend.run_round(make_tasks(medium_instance, 3, round_index=1))
        assert [(r.slave_id, r.round_index) for r in second] == [(0, 1), (1, 1), (2, 1)]

    def test_straggle_recorded_for_clock(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.STRAGGLE, factor=5.0),))
        backend, reports = self._run(small_instance, plan)
        assert len(reports) == 3  # straggler still reports
        assert backend.last_slowdowns == {0: 5.0}

    def test_none_task_sits_out(self, small_instance):
        backend = SerialBackend(3)
        backend.start(small_instance, TabuSearchConfig(nb_div=100))
        tasks = make_tasks(small_instance, 3)
        tasks[1] = None
        reports = backend.run_round(tasks)
        assert [r.slave_id for r in reports] == [0, 2]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_chaos_round_is_reproducible(self, small_instance, seed):
        plan = FaultPlan.from_seed(
            seed, 4, 1, crash_rate=0.4, report_drop_rate=0.3, duplicate_rate=0.3
        )
        runs = []
        for _ in range(2):
            backend = SerialBackend(4, fault_plan=plan)
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            reports = backend.run_round(make_tasks(small_instance, 4))
            runs.append([(r.slave_id, r.seq_id, r.best.value) for r in reports])
        assert runs[0] == runs[1]


class TestPipeCommHardening:
    def test_recv_timeout_raises(self):
        here, there = mp.Pipe(duplex=True)
        comm = PipeComm(here)
        with pytest.raises(CommTimeout, match="no message within"):
            comm.recv(timeout=0.05)
        comm.close()
        PipeComm(there).close()

    def test_close_is_idempotent(self):
        here, there = mp.Pipe(duplex=True)
        comm = PipeComm(here)
        comm.close()
        comm.close()  # second close is a no-op
        assert comm.closed
        with pytest.raises(CommClosedError):
            comm.send("x")
        with pytest.raises(CommClosedError):
            comm.recv()
        assert comm.poll(0) is False
        PipeComm(there).close()


@pytest.mark.slow
class TestMultiprocessingChaos:
    def test_worker_crash_is_survived_and_respawned(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=30.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            first = backend.run_round(make_tasks(small_instance, 2, evals=500))
            assert [r.slave_id for r in first] == [1]
            # Round 1: the dead worker is respawned and serves again.
            second = backend.run_round(
                make_tasks(small_instance, 2, evals=500, round_index=1)
            )
            assert [r.slave_id for r in second] == [0, 1]
            assert backend.respawns[0] == 1

    def test_crashed_worker_recores_from_the_task_alone(self, small_instance):
        """ISSUE-8: a respawned worker rebuilds its reduced instance from
        the :class:`FixationPattern` on the wire — no master-side replay.

        Worker 0 dies mid-round while serving reduced tasks; the fresh
        process it is replaced by has never seen the pattern, so round 1
        only succeeds if the re-core happens from the task alone.  Reports
        must still lift to feasible full-space solutions with the
        out-of-core coordinates pinned to the pattern's values.
        """
        import numpy as np

        from repro.core.reduction import CoreSelector

        pattern = CoreSelector(small_instance).pattern(0.5, variant=0)
        out = ~pattern.core_mask
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=30.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            first = backend.run_round(
                make_core_tasks(small_instance, pattern, 2, evals=500)
            )
            assert [r.slave_id for r in first] == [1]
            second = backend.run_round(
                make_core_tasks(small_instance, pattern, 2, evals=500, round_index=1)
            )
            assert [r.slave_id for r in second] == [0, 1]
            assert backend.respawns[0] == 1
            for report in first + second:
                x = report.best.x
                assert x.shape == (small_instance.n_items,)
                assert small_instance.is_feasible(x)
                assert report.best.value == float(small_instance.objective(x))
                assert np.array_equal(x[out], pattern.fixed_values[out])

    def test_dropped_report_times_out_not_deadlocks(self, small_instance):
        # Every task frame is answered: the dropped report comes back as an
        # empty batch, so the round ends at once with no loss and no respawn.
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DROP_REPORT),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=2.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            t0 = time.perf_counter()
            reports = backend.run_round(make_tasks(small_instance, 2, evals=500))
            wall = time.perf_counter() - t0
            assert [r.slave_id for r in reports] == [0]
            assert backend.fault_counters["gather_lost"] == 0
            assert not backend.respawns
            assert wall < 1.0, f"dropped report waited out the deadline ({wall:.2f}s)"

    def test_duplicate_report_drained_same_round(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.DUPLICATE_REPORT),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=30.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            reports = backend.run_round(make_tasks(small_instance, 2, evals=500))
            ids = [r.slave_id for r in reports]
            assert ids.count(0) == 2 and ids.count(1) == 1

    def test_dropped_task_is_never_sent(self, small_instance):
        """Regression: a ``DROP_TASK`` event used to be ignored here, so
        slave 0 still ran and reported while serial lost its task."""
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.DROP_TASK),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=30.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            reports = backend.run_round(make_tasks(small_instance, 2, evals=500))
            assert [r.slave_id for r in reports] == [1]
            assert 0 not in backend.last_task_nbytes
            assert backend.fault_counters["drop_task"] == 1
            # The dropped task's worker got no frame, so nothing was lost.
            assert backend.fault_counters["gather_lost"] == 0
            assert not backend.respawns

    def test_duplicate_report_adds_no_grace_sleep(self, small_instance):
        """Regression: the old gather granted a duplicated report a fixed
        1.0 s poll window; the multiplexed gather folds the drain into the
        same select, so the round ends as soon as all copies are in."""
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.DUPLICATE_REPORT),))
        with MultiprocessingBackend(2, fault_plan=plan, round_timeout_s=30.0) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            backend.run_round(make_tasks(small_instance, 2, evals=300))  # warm-up
            t0 = time.perf_counter()
            reports = backend.run_round(
                make_tasks(small_instance, 2, evals=300, round_index=0)
            )
            wall = time.perf_counter() - t0
            assert len(reports) == 3  # both slaves + the duplicate copy
            assert wall < 1.0, f"duplicate drain still costs a grace sleep ({wall:.2f}s)"

    def test_straggler_does_not_delay_peers(self, small_instance, mp_context):
        """A straggling slave inflates only its own collection latency.

        Factor 15 makes worker 0 sleep 0.7 s before reporting; with the
        multiplexed gather slaves 1..P-1 are collected the moment they
        report, so their gather-idle stays far below the straggler's —
        gather cost is bounded by the single slowest slave, not the
        rank-order sum of timeouts.
        """
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.STRAGGLE, factor=15.0),))
        with MultiprocessingBackend(
            3, mp_context=mp_context, fault_plan=plan, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            # Warm-up on a fault-free round: under the spawn context the
            # first task also pays interpreter startup, which would drown
            # the latencies this test measures.
            backend.run_round(make_tasks(small_instance, 3, evals=300, round_index=1))
            reports = backend.run_round(make_tasks(small_instance, 3, evals=500))
            assert [r.slave_id for r in reports] == [0, 1, 2]
            idle = backend.last_gather_idle_s
            assert sorted(idle) == [0, 1, 2]
            # The injected sleep is min(0.05 * (15 - 1), 1.0) = 0.7 s.
            assert idle[0] >= 0.6
            assert idle[1] < 0.5 and idle[2] < 0.5
            # The whole gather is bounded by the slowest slave, not by a
            # sum over ranks.
            assert backend.last_telemetry.phase_seconds["gather"] < 0.7 + 2.0


def _two_rounds(backend, instance):
    """Two rounds' ``(slave_id, seq_id, best.value)`` lists and byte ledgers."""
    backend.start(instance, TabuSearchConfig(nb_div=100))
    out = []
    for round_index in range(2):
        reports = backend.run_round(
            make_tasks(instance, 3, evals=400, round_index=round_index)
        )
        out.append(
            (
                [(r.slave_id, r.seq_id, r.best.value) for r in reports],
                dict(backend.last_task_nbytes),
                dict(backend.last_report_nbytes),
            )
        )
    return out


@pytest.mark.slow
class TestFaultParity:
    """Serial and multiprocessing backends inject the same faults.

    Both decide slave-side faults in the one ``serve_batch`` and drop tasks
    in the one ``dispatch`` helper, so a plan gives the same reports and the
    same per-slave byte ledgers on either.  ``batch_k`` is the
    multiprocessing backend's; the serial backend keeps one runtime per
    slave.  A crash is checked at ``batch_k`` 1 only: a worker's death
    legitimately takes its whole slave group, while an inline serial crash
    loses one task.
    """

    CASES = [
        (kind, batch_k)
        for kind in (
            FaultKind.DROP_TASK,
            FaultKind.DROP_REPORT,
            FaultKind.DUPLICATE_REPORT,
            FaultKind.DELAY_REPORT,
        )
        for batch_k in (1, 2)
    ] + [(FaultKind.CRASH, 1)]

    @staticmethod
    def _assert_parity(instance, plan, batch_k, mp_context):
        serial = _two_rounds(SerialBackend(3, fault_plan=plan), instance)
        with MultiprocessingBackend(
            3,
            mp_context=mp_context,
            fault_plan=plan,
            batch_k=batch_k,
            round_timeout_s=30.0,
        ) as backend:
            process = _two_rounds(backend, instance)
        assert process == serial

    @pytest.mark.parametrize("kind,batch_k", CASES)
    def test_one_event_plan(self, small_instance, mp_context, kind, batch_k):
        plan = FaultPlan(events=(FaultEvent(0, 1, kind),))
        self._assert_parity(small_instance, plan, batch_k, mp_context)

    def test_seeded_crash_free_plan(self, small_instance, mp_context):
        plan = FaultPlan.from_seed(
            ENV_SEED,
            n_slaves=3,
            n_rounds=2,
            task_drop_rate=0.2,
            report_drop_rate=0.2,
            duplicate_rate=0.2,
            delay_rate=0.2,
        )
        self._assert_parity(small_instance, plan, 2, mp_context)


class TestAsyncDegraded:
    def test_no_plan_matches_empty_plan(self, small_instance):
        base = solve_cts_async(
            small_instance, n_threads=3, rng_seed=5, max_evaluations=3000
        )
        empty = solve_cts_async(
            small_instance,
            n_threads=3,
            rng_seed=5,
            max_evaluations=3000,
            fault_plan=FaultPlan.none(),
        )
        assert base.best.value == empty.best.value
        assert base.value_history == empty.value_history
        assert base.total_evaluations == empty.total_evaluations

    def test_peer_crash_survived(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        result = solve_cts_async(
            small_instance,
            n_threads=3,
            rng_seed=5,
            max_evaluations=3000,
            fault_plan=plan,
            config=None,
        )
        assert result.fault_summary.get("crashed_peers") == 1
        assert result.best.value > 0
        assert result.best.is_feasible(small_instance)
        # Monotone incumbent despite the dead peer.
        hist = result.value_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_dropped_publication_counted(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DROP_REPORT),))
        result = solve_cts_async(
            small_instance,
            n_threads=3,
            rng_seed=5,
            max_evaluations=3000,
            fault_plan=plan,
        )
        assert result.fault_summary.get("dropped_publications", 0) >= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_seed_reproducible(self, small_instance, seed):
        plan = FaultPlan.from_seed(seed, 3, 10, crash_rate=0.1, report_drop_rate=0.2)
        a = solve_cts_async(
            small_instance, n_threads=3, rng_seed=5, max_evaluations=3000, fault_plan=plan
        )
        b = solve_cts_async(
            small_instance, n_threads=3, rng_seed=5, max_evaluations=3000, fault_plan=plan
        )
        assert a.best.value == b.best.value
        assert a.value_history == b.value_history


class TestBackendRESULTTagUnchanged:
    def test_result_tag_constant(self):
        # The wire protocol stays frozen: fault injection never rewrites it.
        assert RESULT_TAG == 2


@pytest.mark.slow
class TestShmTransportChaos:
    """ISSUE-7 satellite: the chaos matrix replayed over the shm transport.

    The shm rings are per-worker resources, so every fault the pipe path
    survives must be survived here too — plus two shm-only hazards: a
    crashed worker must come back with *fresh* rings (the old segment died
    with its seqlock possibly mid-write), and a host that cannot allocate
    segments must degrade to pipe doorbell semantics without changing a
    single report.
    """

    def test_worker_crash_respawns_with_fresh_rings(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        with MultiprocessingBackend(
            2, transport="shm", fault_plan=plan, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            if backend.transport != "shm":
                pytest.skip("POSIX shared memory unavailable")
            old_ring_names = {r.name for r in backend._rings[0]}
            first = backend.run_round(make_tasks(small_instance, 2, evals=500))
            assert [r.slave_id for r in first] == [1]
            second = backend.run_round(
                make_tasks(small_instance, 2, evals=500, round_index=1)
            )
            assert [r.slave_id for r in second] == [0, 1]
            assert backend.respawns[0] == 1
            # The respawned worker speaks shm again, over *new* segments.
            assert backend.worker_transports[0] == "shm"
            assert {r.name for r in backend._rings[0]}.isdisjoint(old_ring_names)

    def test_crashed_worker_recores_over_fresh_rings(self, small_instance):
        """ISSUE-8 x ISSUE-7: the re-core-from-task guarantee holds when the
        respawned worker also has to renegotiate shm rings — the pattern
        travels through the binary codec, not the pickle fallback."""
        import numpy as np

        from repro.core.reduction import CoreSelector

        pattern = CoreSelector(small_instance).pattern(0.5, variant=1)
        out = ~pattern.core_mask
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.CRASH),))
        with MultiprocessingBackend(
            2, transport="shm", fault_plan=plan, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            if backend.transport != "shm":
                pytest.skip("POSIX shared memory unavailable")
            first = backend.run_round(
                make_core_tasks(small_instance, pattern, 2, evals=500)
            )
            assert [r.slave_id for r in first] == [1]
            second = backend.run_round(
                make_core_tasks(small_instance, pattern, 2, evals=500, round_index=1)
            )
            assert [r.slave_id for r in second] == [0, 1]
            assert backend.respawns[0] == 1
            assert backend.worker_transports[0] == "shm"
            for report in first + second:
                x = report.best.x
                assert small_instance.is_feasible(x)
                assert np.array_equal(x[out], pattern.fixed_values[out])

    def test_ring_allocation_failure_degrades_to_pipe(self, small_instance):
        from repro.parallel import backends as backends_mod

        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.STRAGGLE, factor=4.0),))
        original_create = backends_mod.ShmRing.create

        def failing_create(*args, **kwargs):
            raise OSError("no space on /dev/shm")

        backends_mod.ShmRing.create = failing_create
        try:
            with MultiprocessingBackend(
                2, transport="shm", fault_plan=plan, round_timeout_s=30.0
            ) as backend:
                backend.start(small_instance, TabuSearchConfig(nb_div=100))
                # Degraded: doorbell-only pipes, but the same chaos replay.
                assert backend.worker_transports == ["pipe", "pipe"]
                assert backend.fault_counters["shm_fallback"] == 2
                reports = backend.run_round(make_tasks(small_instance, 2, evals=500))
                assert [r.slave_id for r in reports] == [0, 1]
        finally:
            backends_mod.ShmRing.create = original_create

    def test_straggler_idle_attribution_over_shm(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.STRAGGLE, factor=15.0),))
        with MultiprocessingBackend(
            3, transport="shm", fault_plan=plan, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            if backend.transport != "shm":
                pytest.skip("POSIX shared memory unavailable")
            backend.run_round(make_tasks(small_instance, 3, evals=300, round_index=1))
            reports = backend.run_round(make_tasks(small_instance, 3, evals=500))
            assert [r.slave_id for r in reports] == [0, 1, 2]
            idle = backend.last_gather_idle_s
            assert idle[0] >= 0.6
            assert idle[1] < 0.5 and idle[2] < 0.5

    @pytest.mark.parametrize("batch_k", [1, 2])
    def test_seeded_chaos_solve_keeps_incumbent_monotone(
        self, small_instance, batch_k
    ):
        from repro.variants import solve_cts2

        plan = FaultPlan.from_seed(
            int(os.environ.get("REPRO_CHAOS_SEED", "404")),
            n_slaves=3,
            n_rounds=4,
            crash_rate=0.1,
            report_drop_rate=0.1,
            duplicate_rate=0.15,
            delay_rate=0.15,
            straggle_rate=0.2,
        )
        backend = MultiprocessingBackend(
            3,
            transport="shm",
            batch_k=batch_k,
            fault_plan=plan,
            round_timeout_s=2.0,
        )
        try:
            result = solve_cts2(
                small_instance,
                n_slaves=3,
                n_rounds=4,
                rng_seed=11,
                max_evaluations=600,
                backend=backend,
            )
        finally:
            backend.shutdown()
        history = [float(v) for v in result.value_history]
        assert history, "chaos run produced no incumbent history"
        assert history == sorted(history), "incumbent regressed under chaos"
        assert result.best.value == history[-1]


class TestSocketBackendChaos:
    """Elastic socket backend under worker death (DESIGN.md §5.10).

    A scheduled :class:`FaultKind.CRASH` in a ``repro worker`` agent is a
    hard ``os._exit`` mid-batch — from the master's side indistinguishable
    from a SIGKILLed worker: the TCP stream dies mid-round, the member is
    buried, its shard re-dealt to the survivor.  Both pipelines must absorb
    that with a monotone incumbent and no hang.
    """

    @staticmethod
    def _elastic_backend(mp_context):
        """3-slave farm on 2 workers; the first worker dies in round 1.

        The crash plan covers every slave id, so whichever shard the doomed
        worker holds when round 1 arrives triggers it; the second worker is
        fault-free and absorbs the re-dealt shard.  Both workers must hold
        a shard before the run so the death actually buries slave ids.
        """
        from repro.parallel import SocketBackend

        doomed = FaultPlan(
            events=tuple(
                FaultEvent(round_index=1, slave_id=k, kind=FaultKind.CRASH)
                for k in range(3)
            )
        )
        backend = SocketBackend(3, round_timeout_s=2.0, heartbeat_timeout_s=5.0)
        backend.attach_local_workers(
            2, mp_context=mp_context, fault_plans=[doomed, None]
        )
        deadline = time.perf_counter() + 10.0
        while backend.joins < 2 and time.perf_counter() < deadline:
            backend._pump(0.05)
        assert backend.joins == 2, "workers never connected"
        return backend

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pipeline", ["sync", "async"])
    def test_worker_killed_mid_round_keeps_incumbent_monotone(
        self, small_instance, mp_context, seed, pipeline
    ):
        from repro.variants import solve_cts2

        backend = self._elastic_backend(mp_context)
        try:
            result = solve_cts2(
                small_instance,
                n_slaves=3,
                n_rounds=4,
                rng_seed=seed,
                max_evaluations=600,
                backend=backend,
                pipeline=pipeline,
            )
        finally:
            counters = dict(backend.fault_counters)
            swept = backend.drain_dead_slaves()
            backend.shutdown()
        history = [float(v) for v in result.value_history]
        assert history, "chaos run produced no incumbent history"
        assert history == sorted(history), "incumbent regressed under chaos"
        assert result.best.value == history[-1]
        # The dead member is buried in the fault telemetry...
        assert counters.get("worker_lost", 0) >= 1
        if pipeline == "sync":
            # ...and its shard surfaces through the dead-slave sweep (the
            # async master consumes the sweep itself during the run).
            assert swept != []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_worker_chaos_matrix(self, small_instance, mp_context, seed):
        """Randomized worker-side schedule: crashes + stragglers, no hang."""
        from repro.parallel import SocketBackend
        from repro.variants import solve_cts2

        plan = FaultPlan.from_seed(
            seed,
            n_slaves=3,
            n_rounds=4,
            crash_rate=0.1,
            straggle_rate=0.3,
        )
        backend = SocketBackend(3, round_timeout_s=2.0, heartbeat_timeout_s=5.0)
        backend.attach_local_workers(
            2, mp_context=mp_context, fault_plans=[plan, None]
        )
        try:
            result = solve_cts2(
                small_instance,
                n_slaves=3,
                n_rounds=4,
                rng_seed=seed,
                max_evaluations=600,
                backend=backend,
            )
        finally:
            backend.shutdown()
        history = [float(v) for v in result.value_history]
        assert history == sorted(history), "incumbent regressed under chaos"
        assert result.best.value == history[-1]
