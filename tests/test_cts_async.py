"""Tests for the decentralized asynchronous variant (future-work §6)."""

from __future__ import annotations

import pytest

from repro.analysis import load_balance
from repro.farm import EventKind
from repro.master import SGPConfig
from repro.variants import AsyncConfig, solve_cts_async

EVALS = 20_000


class TestRun:
    def test_basic_run(self, small_instance):
        result = solve_cts_async(
            small_instance, n_threads=4, rng_seed=0, max_evaluations=EVALS
        )
        assert result.variant == "CTS-async"
        assert result.n_slaves == 4
        assert result.best.is_feasible(small_instance)
        assert result.total_evaluations >= 4 * EVALS * 0.5

    def test_deterministic(self, small_instance):
        a = solve_cts_async(
            small_instance, n_threads=3, rng_seed=5, max_evaluations=EVALS
        )
        b = solve_cts_async(
            small_instance, n_threads=3, rng_seed=5, max_evaluations=EVALS
        )
        assert a.best == b.best
        assert a.virtual_seconds == b.virtual_seconds

    def test_no_barrier_idle_time(self, small_instance):
        """Asynchrony's selling point: zero barrier-wait events."""
        result = solve_cts_async(
            small_instance, n_threads=4, rng_seed=0, max_evaluations=EVALS
        )
        assert result.trace is not None
        assert result.trace.total_by_kind(EventKind.BARRIER_WAIT) == 0.0
        assert load_balance(result.trace).idle_ratio == 0.0

    def test_publishes_to_blackboard(self, small_instance):
        result = solve_cts_async(
            small_instance, n_threads=3, rng_seed=0, max_evaluations=EVALS
        )
        assert result.bytes_sent > 0
        sends = result.trace.total_by_kind(EventKind.SEND)
        assert sends > 0

    def test_segments_recorded_as_rounds(self, small_instance):
        config = AsyncConfig(n_threads=2, segment_evaluations=5_000)
        result = solve_cts_async(
            small_instance,
            n_threads=2,
            rng_seed=0,
            max_evaluations=EVALS,
            config=config,
        )
        # ~ EVALS/segment per thread segments in total
        assert result.n_rounds >= 2 * (EVALS // 5_000) - 2

    def test_monotone_value_history(self, small_instance):
        result = solve_cts_async(
            small_instance, n_threads=3, rng_seed=0, max_evaluations=EVALS
        )
        hist = result.value_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_budget_validation(self, small_instance):
        with pytest.raises(ValueError, match="exactly one"):
            solve_cts_async(small_instance, rng_seed=0)

    def test_config_thread_mismatch(self, small_instance):
        with pytest.raises(ValueError, match="conflicts"):
            solve_cts_async(
                small_instance,
                n_threads=4,
                rng_seed=0,
                max_evaluations=100,
                config=AsyncConfig(n_threads=2),
            )

    def test_virtual_seconds_entrypoint(self, small_instance):
        result = solve_cts_async(
            small_instance, n_threads=2, rng_seed=0, virtual_seconds=0.02
        )
        assert result.virtual_seconds == pytest.approx(0.02, rel=0.5)

    def test_sgp_mutation_intensity_is_used(self, small_instance):
        """A peer's intensify/diversify step scales with ``sgp.mutation_intensity``."""

        def run(intensity):
            config = AsyncConfig(
                n_threads=3,
                segment_evaluations=2_000,
                initial_score=1,
                sgp=SGPConfig(mutation_intensity=intensity),
            )
            return solve_cts_async(
                small_instance, n_threads=3, rng_seed=0, max_evaluations=EVALS, config=config
            )

        gentle, strong = run(0.05), run(1.0)
        steps = sum(
            r.sgp_actions.get("intensify", 0) + r.sgp_actions.get("diversify", 0)
            for r in gentle.rounds
        )
        assert steps > 0
        assert [r.evaluations for r in gentle.rounds] != [r.evaluations for r in strong.rounds]


class TestAsyncConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncConfig(n_threads=0)
        with pytest.raises(ValueError):
            AsyncConfig(segment_evaluations=0)
        with pytest.raises(ValueError):
            AsyncConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AsyncConfig(stagnation_segments=0)
        with pytest.raises(ValueError):
            AsyncConfig(initial_score=0)
