"""Cross-cutting accounting invariants of the simulated farm runs.

These tie the variants, master, farm and trace layers together: whatever
the configuration, the books must balance — trace events fit inside the
makespan, compute time matches the evaluation counters, and the per-round
statistics (evaluations and fault tallies) sum to the totals, under the
sync barrier and the pipelined async master alike.
"""

from __future__ import annotations

import pytest

from repro.farm import ALPHA_FARM, EventKind
from repro.parallel import FaultPlan, SerialBackend
from repro.variants import (
    solve_cts1,
    solve_cts2,
    solve_cts_async,
    solve_its,
    solve_seq,
)

EVALS = 15_000


def all_variant_results(instance, seed=0):
    yield solve_seq(instance, rng_seed=seed, max_evaluations=EVALS)
    for solver in (solve_its, solve_cts1, solve_cts2):
        yield solver(
            instance, n_slaves=3, n_rounds=3, rng_seed=seed, max_evaluations=EVALS
        )
    yield solve_cts_async(
        instance, n_threads=3, rng_seed=seed, max_evaluations=EVALS
    )


def farm_free_results(instance, seed=0):
    """Every variant above plus the pipelined async master (no farm model)."""
    yield from all_variant_results(instance, seed)
    for solver in (solve_its, solve_cts1, solve_cts2):
        yield solver(
            instance,
            n_slaves=3,
            n_rounds=3,
            rng_seed=seed,
            max_evaluations=EVALS,
            farm=None,
            backend=SerialBackend(3),
            pipeline="async",
        )


class TestBooksBalance:
    def test_trace_events_fit_inside_makespan(self, small_instance):
        for result in all_variant_results(small_instance):
            for event in result.trace.events:
                assert event.t_start >= -1e-12, result.variant
                assert event.t_end <= result.virtual_seconds + 1e-9, result.variant

    def test_compute_time_matches_evaluations(self, small_instance):
        m = small_instance.n_constraints
        for result in all_variant_results(small_instance):
            compute = result.trace.total_by_kind(EventKind.COMPUTE)
            expected = ALPHA_FARM.compute_seconds(result.total_evaluations, m)
            assert compute == pytest.approx(expected, rel=1e-9), result.variant

    def test_round_evaluations_sum_to_total(self, small_instance):
        for result in farm_free_results(small_instance):
            assert sum(r.evaluations for r in result.rounds) == result.total_evaluations, (
                result.variant
            )

    def test_round_best_values_monotone(self, small_instance):
        for result in farm_free_results(small_instance):
            values = [r.best_value for r in result.rounds]
            assert values == sorted(values), result.variant

    def test_final_best_matches_last_round(self, small_instance):
        for result in farm_free_results(small_instance):
            assert result.best.value == pytest.approx(
                max(r.best_value for r in result.rounds)
            ), result.variant

    def test_value_history_ends_at_best(self, small_instance):
        for result in farm_free_results(small_instance):
            assert result.value_history[-1] == pytest.approx(result.best.value), (
                result.variant
            )

    @pytest.mark.parametrize("pipeline", ["sync", "async"])
    def test_round_fault_fields_sum_to_fault_summary(self, small_instance, pipeline):
        plan = FaultPlan.from_seed(
            5,
            n_slaves=3,
            n_rounds=4,
            crash_rate=0.15,
            report_drop_rate=0.15,
            duplicate_rate=0.25,
            delay_rate=0.25,
        )
        result = solve_cts2(
            small_instance,
            n_slaves=3,
            n_rounds=4,
            rng_seed=0,
            max_evaluations=EVALS,
            farm=None,
            backend=SerialBackend(3, fault_plan=plan),
            pipeline=pipeline,
        )
        assert result.fault_summary, "chaos plan injected no fault"
        for key, field in (
            ("failed", "failed_slaves"),
            ("duplicates", "duplicate_reports"),
            ("stale", "stale_reports"),
        ):
            assert sum(getattr(r, field) for r in result.rounds) == (
                result.fault_summary.get(key, 0)
            ), (pipeline, key)


class TestVariantSpecificBooks:
    def test_seq_has_no_communication(self, small_instance):
        result = solve_seq(small_instance, rng_seed=0, max_evaluations=EVALS)
        assert result.bytes_sent == 0
        assert result.trace.communication_seconds() == 0.0

    def test_its_never_pools_or_restarts_via_isp(self, small_instance):
        result = solve_its(
            small_instance, n_slaves=3, n_rounds=4, rng_seed=0, max_evaluations=EVALS
        )
        for stats in result.rounds:
            assert stats.isp_rules.get("pool", 0) == 0
            assert stats.isp_rules.get("restart", 0) == 0
            assert stats.sgp_actions == {}

    def test_cts1_never_adapts_strategies(self, small_instance):
        result = solve_cts1(
            small_instance, n_slaves=3, n_rounds=4, rng_seed=0, max_evaluations=EVALS
        )
        for stats in result.rounds:
            assert stats.sgp_actions == {}

    def test_parallel_variants_communicate(self, small_instance):
        for solver in (solve_its, solve_cts1, solve_cts2):
            result = solver(
                small_instance, n_slaves=3, n_rounds=2, rng_seed=0,
                max_evaluations=EVALS,
            )
            # even ITS ships tasks/reports over the fabric
            assert result.bytes_sent > 0, result.variant

    def test_equal_budgets_give_comparable_total_work(self, small_instance):
        """All three synchronous parallel variants burn the same per-slave
        budget, so total evaluations agree within one round's slack."""
        totals = []
        for solver in (solve_its, solve_cts1, solve_cts2):
            result = solver(
                small_instance, n_slaves=3, n_rounds=3, rng_seed=0,
                max_evaluations=EVALS,
            )
            totals.append(result.total_evaluations)
        assert max(totals) <= 1.25 * min(totals)
