"""Tests for the SEQ/ITS/CTS1/CTS2 drivers and the result records."""

from __future__ import annotations

import pytest

from repro.analysis import anytime_curve, value_at
from repro.master import MasterConfig
from repro.variants import (
    budget_for_virtual_seconds,
    solve_cts1,
    solve_cts2,
    solve_cts_async,
    solve_decomposition,
    solve_its,
    solve_seq,
)

EVALS = 25_000


class TestSeq:
    def test_runs_and_labels(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, max_evaluations=EVALS)
        assert result.variant == "SEQ"
        assert result.n_slaves == 1
        assert result.best.is_feasible(small_instance)
        assert result.total_evaluations >= EVALS * 0.5

    def test_virtual_time_accounted(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, max_evaluations=EVALS)
        assert result.virtual_seconds > 0
        assert result.trace is not None and len(result.trace) == 1

    def test_deterministic(self, small_instance):
        a = solve_seq(small_instance, rng_seed=3, max_evaluations=EVALS)
        b = solve_seq(small_instance, rng_seed=3, max_evaluations=EVALS)
        assert a.best == b.best
        assert a.virtual_seconds == b.virtual_seconds

    def test_budget_argument_validation(self, small_instance):
        with pytest.raises(ValueError, match="exactly one"):
            solve_seq(small_instance, rng_seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            solve_seq(
                small_instance, rng_seed=0, max_evaluations=10, virtual_seconds=1.0
            )


class TestParallelVariants:
    @pytest.mark.parametrize(
        "solver,variant",
        [(solve_its, "ITS"), (solve_cts1, "CTS1"), (solve_cts2, "CTS2")],
    )
    def test_runs_and_labels(self, small_instance, solver, variant):
        result = solver(
            small_instance,
            n_slaves=4,
            n_rounds=3,
            rng_seed=0,
            max_evaluations=EVALS,
        )
        assert result.variant == variant
        assert result.n_slaves == 4
        assert result.n_rounds == 3
        assert result.best.is_feasible(small_instance)

    def test_deterministic(self, small_instance):
        a = solve_cts2(
            small_instance, n_slaves=3, n_rounds=2, rng_seed=9, max_evaluations=EVALS
        )
        b = solve_cts2(
            small_instance, n_slaves=3, n_rounds=2, rng_seed=9, max_evaluations=EVALS
        )
        assert a.best == b.best
        assert a.virtual_seconds == b.virtual_seconds
        assert a.bytes_sent == b.bytes_sent

    def test_parallel_time_tracks_slowest_not_sum(self, small_instance):
        """Virtual makespan must be ~per-slave work, not P× it."""
        seq = solve_seq(small_instance, rng_seed=0, max_evaluations=EVALS)
        par = solve_cts2(
            small_instance, n_slaves=4, n_rounds=2, rng_seed=0, max_evaluations=EVALS
        )
        assert par.total_evaluations > 2.5 * seq.total_evaluations
        assert par.virtual_seconds < 2.0 * seq.virtual_seconds

    def test_communication_traffic_recorded(self, small_instance):
        result = solve_cts1(
            small_instance, n_slaves=3, n_rounds=2, rng_seed=0, max_evaluations=EVALS
        )
        assert result.bytes_sent > 0
        assert all(r.communication_seconds > 0 for r in result.rounds)

    def test_master_config_consistency_enforced(self, small_instance):
        bad = MasterConfig(n_slaves=2, n_rounds=2, variant="ITS")
        with pytest.raises(ValueError):
            solve_cts2(small_instance, max_evaluations=EVALS, master_config=bad)
        with pytest.raises(ValueError):
            solve_cts1(small_instance, max_evaluations=EVALS, master_config=bad)
        good_its = MasterConfig(n_slaves=2, n_rounds=2, variant="CTS2")
        with pytest.raises(ValueError):
            solve_its(small_instance, max_evaluations=EVALS, master_config=good_its)


class TestBudgetHelpers:
    def test_budget_for_virtual_seconds(self, small_instance):
        budget = budget_for_virtual_seconds(small_instance, 1.0)
        assert budget.max_evaluations > 0

    def test_virtual_seconds_entrypoint(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, virtual_seconds=0.05)
        # the run must stop within ~1 move of the requested virtual time
        assert result.virtual_seconds == pytest.approx(0.05, rel=0.2)


    @pytest.mark.parametrize(
        "solver",
        [solve_seq, solve_its, solve_cts1, solve_cts2, solve_cts_async, solve_decomposition],
    )
    @pytest.mark.parametrize(
        "budget",
        [{"virtual_seconds": 1e-12}, {"max_evaluations": 0}],
        ids=["sub-evaluation-seconds", "zero-evaluations"],
    )
    def test_every_variant_rejects_a_budget_below_one_evaluation(
        self, small_instance, solver, budget
    ):
        with pytest.raises(ValueError, match="evaluation"):
            solver(small_instance, rng_seed=0, **budget)


class TestResultMethods:
    def test_best_value_at(self, small_instance):
        result = solve_cts2(
            small_instance, n_slaves=3, n_rounds=3, rng_seed=0, max_evaluations=EVALS
        )
        curve = anytime_curve(result)
        early = value_at(curve, result.virtual_seconds / 3)
        late = value_at(curve, result.virtual_seconds * 2)
        assert early <= late
        assert late == max(r.best_value for r in result.rounds)

    def test_summary_contains_variant(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, max_evaluations=EVALS)
        assert "SEQ" in result.summary()
