"""White-box tests for the asynchronous variant's internal semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Solution
from repro.farm import EventKind
from repro.variants import AsyncConfig, solve_cts_async
from repro.variants.cts_async import _Peer, _Posting


class TestEventOrdering:
    def test_compute_events_per_peer_are_contiguous(self, small_instance):
        """Each peer's compute events must be non-overlapping and ordered —
        the discrete-event loop's core invariant."""
        result = solve_cts_async(
            small_instance, n_threads=3, rng_seed=0, max_evaluations=15_000
        )
        by_peer: dict[int, list] = {}
        for e in result.trace.events:
            if e.kind is EventKind.COMPUTE:
                by_peer.setdefault(e.proc, []).append(e)
        assert set(by_peer) == {0, 1, 2}
        for events in by_peer.values():
            for a, b in zip(events, events[1:]):
                assert b.t_start >= a.t_end - 1e-12

    def test_every_peer_consumes_its_budget(self, small_instance):
        budget = 12_000
        result = solve_cts_async(
            small_instance, n_threads=3, rng_seed=0, max_evaluations=budget
        )
        compute = result.trace.per_proc_by_kind(EventKind.COMPUTE)
        # Each peer computed a roughly equal share (equal budgets, same
        # speed): within 2x of one another.
        values = list(compute.values())
        assert max(values) <= 2.0 * min(values)

    def test_total_evaluations_close_to_p_times_budget(self, small_instance):
        budget = 12_000
        result = solve_cts_async(
            small_instance, n_threads=4, rng_seed=0, max_evaluations=budget
        )
        assert result.total_evaluations >= 4 * budget * 0.8
        # overshoot bounded by one segment per peer
        assert result.total_evaluations <= 4 * (budget + 25_000)


class TestBlackboardSemantics:
    def test_posting_is_frozen_record(self):
        sol = Solution(np.array([1, 0], dtype=np.int8), 5.0)
        posting = _Posting(1.5, 0, sol)
        with pytest.raises(AttributeError):
            posting.t = 2.0  # type: ignore[misc]

    def test_peer_dataclass_defaults(self):
        sol = Solution(np.array([1, 0], dtype=np.int8), 5.0)
        peer = _Peer(slave_id=0, strategy=None, init_solution=sol)
        assert peer.clock == 0.0
        assert peer.best is None
        assert peer.best_solutions == []


class TestCooperationEffects:
    def test_blackboard_adoption_controlled_by_alpha(self):
        """alpha gates blackboard adoption: at 1.0 laggards pool onto the
        visible best; at 0.5 (bests never 2x apart here) they never do.
        The per-segment ISP records make this observable."""
        from repro.instances import mk_suite

        inst = mk_suite()[0]
        def pool_count(alpha):
            config = AsyncConfig(n_threads=3, alpha=alpha, segment_evaluations=4_000)
            result = solve_cts_async(
                inst, n_threads=3, rng_seed=0, max_evaluations=20_000, config=config
            )
            return sum(s.isp_rules.get("pool", 0) for s in result.rounds)

        assert pool_count(1.0) > 0
        assert pool_count(0.5) == 0

    def test_segment_size_controls_communication_frequency(self, small_instance):
        fine = solve_cts_async(
            small_instance, n_threads=2, rng_seed=0, max_evaluations=16_000,
            config=AsyncConfig(n_threads=2, segment_evaluations=2_000),
        )
        coarse = solve_cts_async(
            small_instance, n_threads=2, rng_seed=0, max_evaluations=16_000,
            config=AsyncConfig(n_threads=2, segment_evaluations=16_000),
        )
        assert fine.n_rounds > coarse.n_rounds
        assert fine.bytes_sent > coarse.bytes_sent
