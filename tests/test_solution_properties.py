"""Property-based tests (hypothesis) for core solution invariants."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MKPInstance,
    SearchState,
    Solution,
    fill_greedily,
    hamming_distance,
    mean_pairwise_distance,
    native,
    repair,
)
from repro.core.kernels import FIT_EPS
from tests.differential import numpy_reference


@st.composite
def instances(draw, max_m: int = 6, max_n: int = 15) -> MKPInstance:
    """Random small valid instances."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    weights = draw(
        st.lists(
            st.lists(st.integers(0, 50), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    profits = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    capacities = draw(st.lists(st.integers(0, 200), min_size=m, max_size=m))
    return MKPInstance.from_lists(weights, capacities, profits)


@st.composite
def instance_and_flips(draw):
    inst = draw(instances())
    n_flips = draw(st.integers(0, 30))
    flips = draw(
        st.lists(
            st.integers(0, inst.n_items - 1), min_size=n_flips, max_size=n_flips
        )
    )
    return inst, flips


@st.composite
def instance_and_ops(draw, integer: bool):
    """An instance and a random sequence of state operations.

    Float instances use quarter-unit weights and profits, and capacities an
    eighth off the quarter grid: the capacities keep them off the integer
    bitset path, and every load, slack and value stays a small dyadic
    rational, so incremental and from-scratch arithmetic agree exactly.
    """
    inst = draw(instances())
    if not integer:
        inst = MKPInstance(inst.weights / 4, inst.capacities / 4 + 0.125, inst.profits / 4)
    n = inst.n_items
    op = st.one_of(
        st.tuples(st.just("flip"), st.integers(0, n - 1)),
        st.tuples(st.just("restore"), st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("fill"), st.permutations(range(n))),
    )
    return inst, draw(st.lists(op, max_size=30))


def _mirrors(state: SearchState) -> tuple:
    """Every incrementally maintained buffer of ``state``, as bytes."""
    words = state.free_words
    q_base = state._q_base
    return (
        state.x.tobytes(),
        state.load.tobytes(),
        state.slack.tobytes(),
        np.float64(state.value).tobytes(),
        state.n_packed,
        state._free.tobytes(),
        None if words is None else words.tobytes(),
        None if q_base is None else q_base.tobytes(),
    )


class TestIncrementalEvaluation:
    """The central hot-path invariant: incremental ≡ from-scratch."""

    @given(instance_and_flips())
    @settings(max_examples=200, deadline=None)
    def test_load_and_value_match_recomputation(self, case):
        inst, flips = case
        state = SearchState.empty(inst)
        for j in flips:
            state.flip(j)
        np.testing.assert_allclose(
            state.load, inst.weights @ state.x.astype(float), atol=1e-9
        )
        assert state.value == float(inst.profits @ state.x.astype(float))

    @given(instance_and_flips())
    @settings(max_examples=100, deadline=None)
    def test_feasibility_agrees_with_instance(self, case):
        inst, flips = case
        state = SearchState.empty(inst)
        for j in flips:
            state.flip(j)
        assert state.is_feasible == inst.is_feasible(state.x)

    @given(instance_and_flips())
    @settings(max_examples=100, deadline=None)
    def test_fitting_items_really_fit(self, case):
        inst, flips = case
        state = SearchState.empty(inst)
        for j in flips:
            state.flip(j)
        if not state.is_feasible:
            return
        for j in state.fitting_items():
            clone = state.copy()
            clone.add(int(j))
            assert clone.is_feasible

    @pytest.mark.parametrize("reference", [False, True], ids=["native", "numpy"])
    @pytest.mark.parametrize("integer", [True, False], ids=["int", "float"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mirrors_match_a_fresh_state(self, integer, reference, data):
        """After any mix of flip, restore, reset and greedy fill, every
        mirror equals a freshly built state of the same ``x``, byte for
        byte, and the fitting scan equals the elementwise definition."""
        inst, ops = data.draw(instance_and_ops(integer))
        with numpy_reference() if reference else contextlib.nullcontext():
            state = SearchState.empty(inst)
        assert state.use_bitset == integer
        assert (state.native() is not None) == (
            integer and not reference and native.available
        )
        for name, arg in ops:
            if name == "flip":
                state.flip(arg)
            elif name == "restore":
                state.restore(Solution(np.array(arg), 0.0))
            elif name == "reset":
                state.reset()
            else:
                fill_greedily(state, np.array(arg))
            assert _mirrors(state) == _mirrors(SearchState(inst, state.x.copy()))
            fits = (state.x == 0) & np.all(
                inst.weights <= state.slack[:, None] + FIT_EPS, axis=0
            )
            np.testing.assert_array_equal(state.fitting_items(), np.flatnonzero(fits))


class TestRepair:
    @given(instance_and_flips())
    @settings(max_examples=100, deadline=None)
    def test_repair_always_feasible(self, case):
        inst, flips = case
        state = SearchState.empty(inst)
        for j in flips:
            state.flip(j)
        repair(state)
        assert state.is_feasible

    @given(instance_and_flips())
    @settings(max_examples=100, deadline=None)
    def test_repair_noop_on_feasible(self, case):
        inst, flips = case
        state = SearchState.empty(inst)
        for j in flips:
            state.flip(j)
        if not state.is_feasible:
            return
        before = state.x.copy()
        dropped = repair(state)
        assert dropped == 0
        np.testing.assert_array_equal(state.x, before)


class TestHammingMetric:
    @given(
        st.lists(st.lists(st.integers(0, 1), min_size=8, max_size=8), min_size=3, max_size=3)
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, vectors):
        a, b, c = (np.array(v) for v in vectors)
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=6, max_size=6),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_pairwise_bounds(self, vectors):
        sols = [Solution(np.array(v), float(i)) for i, v in enumerate(vectors)]
        mean = mean_pairwise_distance(sols)
        assert 0.0 <= mean <= 6.0
