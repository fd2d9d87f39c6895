"""Tests for benchmark A10's low-level (source-2) neighborhood evaluators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SearchState, greedy_solution
from repro.instances import correlated_instance

from neighborhood_eval import (
    ProcessPoolNeighborhoodEvaluator,
    drop_candidates_of,
    score_candidates,
    score_candidates_chunked,
)


@pytest.fixture
def small_instance():
    return correlated_instance(5, 30, rng=42, name="small-5x30")


class TestKernels:
    def test_reference_scores(self, small_instance):
        state = SearchState.from_solution(small_instance, greedy_solution(small_instance))
        i_star, cands = drop_candidates_of(state)
        scores = score_candidates(small_instance, i_star, cands)
        expected = small_instance.weights[i_star, cands] / small_instance.profits[cands]
        np.testing.assert_allclose(scores, expected)

    def test_chunked_equals_reference(self, small_instance):
        state = SearchState.from_solution(small_instance, greedy_solution(small_instance))
        i_star, cands = drop_candidates_of(state)
        ref = score_candidates(small_instance, i_star, cands)
        for n_chunks in (1, 2, 3, 7, 100):
            np.testing.assert_allclose(
                score_candidates_chunked(small_instance, i_star, cands, n_chunks), ref
            )

    def test_chunked_empty(self, small_instance):
        out = score_candidates_chunked(small_instance, 0, np.empty(0, dtype=np.intp), 4)
        assert out.size == 0

    def test_chunked_validation(self, small_instance):
        with pytest.raises(ValueError):
            score_candidates_chunked(small_instance, 0, np.array([0]), 0)


class TestProcessPool:
    def test_pool_equals_reference(self, small_instance):
        state = SearchState.from_solution(small_instance, greedy_solution(small_instance))
        i_star, cands = drop_candidates_of(state)
        ref = score_candidates(small_instance, i_star, cands)
        with ProcessPoolNeighborhoodEvaluator(small_instance, n_workers=2) as pool:
            np.testing.assert_allclose(pool.evaluate(i_star, cands), ref)

    def test_pool_empty_candidates(self, small_instance):
        with ProcessPoolNeighborhoodEvaluator(small_instance, n_workers=2) as pool:
            assert pool.evaluate(0, np.empty(0, dtype=np.intp)).size == 0

    def test_pool_validation(self, small_instance):
        with pytest.raises(ValueError):
            ProcessPoolNeighborhoodEvaluator(small_instance, n_workers=0)
