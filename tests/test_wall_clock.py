"""Tests for wall-clock budgets in the variant drivers."""

from __future__ import annotations

import time

import pytest

from repro.variants import solve_cts2, solve_seq


class TestWallClockBudgets:
    def test_seq_respects_wall_budget(self, small_instance):
        t0 = time.perf_counter()
        result = solve_seq(small_instance, rng_seed=0, wall_seconds=0.15)
        elapsed = time.perf_counter() - t0
        assert result.best.is_feasible(small_instance)
        # generous upper bound: budget + per-move overhead
        assert elapsed < 2.0

    def test_cts2_respects_wall_budget(self, small_instance):
        t0 = time.perf_counter()
        result = solve_cts2(
            small_instance, n_slaves=2, n_rounds=2, rng_seed=0, wall_seconds=0.1
        )
        elapsed = time.perf_counter() - t0
        assert result.best.is_feasible(small_instance)
        assert elapsed < 3.0

    def test_exactly_one_budget_kind(self, small_instance):
        with pytest.raises(ValueError, match="exactly one"):
            solve_seq(
                small_instance, rng_seed=0, max_evaluations=100, wall_seconds=0.1
            )
        with pytest.raises(ValueError, match="exactly one"):
            solve_cts2(
                small_instance,
                rng_seed=0,
                virtual_seconds=0.1,
                wall_seconds=0.1,
            )

    def test_nonpositive_wall_rejected(self, small_instance):
        with pytest.raises(ValueError, match="positive"):
            solve_seq(small_instance, rng_seed=0, wall_seconds=0.0)

    def test_wall_budget_does_real_work(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, wall_seconds=0.1)
        assert result.total_evaluations > 1_000


def _tasks(instance, n, *, round_index, evals=400):
    from repro.core import Budget, Strategy, random_solution
    from repro.parallel import SlaveTask

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


@pytest.mark.slow
class TestDelayChargesFarmClockNotWall:
    """Regression (ISSUE-7 satellite 4): a DELAY_REPORT fault must cost
    *virtual* time only.  The worker holds the delayed report and flushes
    it with its next round's traffic; the master learns at scatter time
    that the report is deferred, so the gather neither sleeps on it nor
    waits for the round deadline.  Before the fix, the delay burned real
    wall seconds inside the gather loop."""

    def test_mp_delay_does_not_stall_the_gather(self, small_instance):
        import time as _time

        from repro.core import TabuSearchConfig
        from repro.parallel import (
            FaultEvent,
            FaultKind,
            FaultPlan,
            MultiprocessingBackend,
        )

        plan = FaultPlan(events=(FaultEvent(0, 0, FaultKind.DELAY_REPORT),))
        with MultiprocessingBackend(
            2, fault_plan=plan, round_timeout_s=30.0
        ) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            # Fault-free warm-up so spawn cost stays out of the measurement.
            backend.run_round(_tasks(small_instance, 2, round_index=1))

            t0 = _time.perf_counter()
            reports = backend.run_round(_tasks(small_instance, 2, round_index=0))
            wall = _time.perf_counter() - t0
            # Only the undelayed slave reports this round — and the gather
            # returns immediately instead of draining the 30 s deadline.
            assert [r.slave_id for r in reports] == [1]
            assert wall < 1.0, f"delayed report still stalls the gather ({wall:.2f}s)"

            # Next round the held report rides along: the stale copy is
            # delivered and its bytes are charged on the *arrival* round.
            reports = backend.run_round(_tasks(small_instance, 2, round_index=2))
            by_slave = sorted(r.slave_id for r in reports)
            assert by_slave == [0, 0, 1]
            rounds_seen = sorted(r.round_index for r in reports if r.slave_id == 0)
            assert rounds_seen == [0, 2]  # stale + fresh
            report_nbytes = backend.last_telemetry.report_nbytes
            assert (
                report_nbytes[0] > report_nbytes[1]
            ), "stale report bytes were not charged on the arrival round"
