"""The native local-search loop (``ts_local_search``, Figure 1 steps 4–10).

On bitset-mode kernels one C call runs a whole local-search loop: the
moves, the X*/X_local updates, the elite offers, ``History`` and the tabu
list.  ``TabuSearch._local_search_loop`` stays the reference; a no-op
``on_move`` pins a thread to it (the per-move path, whose compound move is
still native).  These cases check that the C elite insertion is
``EliteArray.offer``, that a whole ``run()`` leaves every memory in the same
state on both paths, and that every fallback rule keeps the reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Budget,
    EliteArray,
    MKPInstance,
    Solution,
    Strategy,
    TabuSearch,
    TabuSearchConfig,
    greedy_solution,
    native,
)
from repro.instances import cb_instance, gk_instance

from tests.differential import numpy_reference

pytestmark = pytest.mark.skipif(
    not native.available, reason="native kernel unavailable on this host"
)


# --------------------------------------------------------------------------- #
# Elite insertion: C == EliteArray.offer
# --------------------------------------------------------------------------- #
#: Few distinct vectors and values, so duplicates and ties are common.
OFFERS = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 8.0])),
    min_size=1,
    max_size=40,
)


@given(st.integers(1, 5), OFFERS)
@settings(max_examples=300, deadline=None)
def test_c_elite_offer_matches_elite_array(capacity, offers):
    n = 3
    elite = EliteArray(capacity, n)
    rows = np.zeros((capacity, n), np.int8)
    values = np.zeros(capacity, np.float64)
    count = native.ffi.new("int64_t *", 0)
    c_rows = native.ffi.from_buffer("int8_t[]", rows)
    c_values = native.ffi.from_buffer("double[]", values)
    for code, value in offers:
        x = np.array([(code >> b) & 1 for b in range(n)], np.int8)
        changed = native.lib.ts_elite_offer(
            c_rows, c_values, count, capacity, n, native.ffi.from_buffer("int8_t[]", x), value
        )
        assert bool(changed) == elite.offer(Solution(x, value))
        assert count[0] == len(elite)
        assert np.array_equal(rows[: count[0]], elite.rows[: len(elite)])
        assert np.array_equal(values[: count[0]], elite.values[: len(elite)])


# --------------------------------------------------------------------------- #
# Whole-run state equivalence: C loop == per-move path
# --------------------------------------------------------------------------- #
def _no_op(thread: TabuSearch) -> None:
    pass


def _run(instance, *, per_move: bool, budget=None, rng=3, **config):
    ts = TabuSearch(instance, Strategy(9, 2, 12), TabuSearchConfig(**config), rng=rng)
    if per_move:
        ts.on_move = _no_op
    result = ts.run(budget=budget)
    return ts, result


def _memories(ts: TabuSearch, result) -> dict:
    """Every memory the local-search loop writes, as comparable values."""
    return {
        "clock": ts.tabu.clock,
        "expiry": ts.tabu._expiry.tobytes(),
        "counts": ts.history.counts.tobytes(),
        "iterations": ts.history.iterations,
        "elite": [(s.value, s.x.tobytes()) for s in ts.elite],
        "counters": ts.counters,
        "trace": result.value_trace,
        "best": (result.best.value, result.best.x.tobytes()),
        "moves": result.moves,
        "kernel": (ts.state.x.tobytes(), ts.state.value, ts.state.load.tobytes()),
    }


class TestStateEquivalence:
    @pytest.mark.parametrize(
        "instance, budget",
        [
            pytest.param(lambda: gk_instance(24), None, id="gk24"),
            pytest.param(lambda: gk_instance(24), Budget(max_evaluations=150_000),
                         id="gk24-evals"),
            pytest.param(lambda: gk_instance(24), Budget(max_moves=333), id="gk24-moves"),
            pytest.param(lambda: cb_instance(30, 100, 0.25, 0), None, id="cb30"),
            pytest.param(lambda: cb_instance(30, 100, 0.25, 0),
                         Budget(target_value=21_700), id="cb30-target"),
        ],
    )
    def test_c_loop_matches_per_move_path(self, instance, budget):
        inst = instance()
        c_ts, c_result = _run(inst, per_move=False, budget=budget)
        assert c_ts._c_loop is not None
        ref_ts, ref_result = _run(inst, per_move=True, budget=budget)
        assert _memories(c_ts, c_result) == _memories(ref_ts, ref_result)

    def test_add_breadth_one(self):
        inst = cb_instance(5, 100, 0.5, 0)
        c_ts, c_result = _run(inst, per_move=False, add_candidates=1)
        ref_ts, ref_result = _run(inst, per_move=True, add_candidates=1)
        assert _memories(c_ts, c_result) == _memories(ref_ts, ref_result)

    def test_rebound_thread_matches_fresh_per_move_thread(self):
        # The warm-runtime path: a reused thread binds the same memories.
        inst = gk_instance(10)
        ts = TabuSearch(inst, Strategy(9, 2, 12), TabuSearchConfig(), rng=0)
        ts.run()
        ts.rebind(Strategy(5, 1, 9), 4)
        result = ts.run()
        ref = TabuSearch(inst, Strategy(5, 1, 9), TabuSearchConfig(), rng=4, on_move=_no_op)
        assert _memories(ts, result) == _memories(ref, ref.run())

    def test_tie_hand_back_resumes_inside_the_loop(self, monkeypatch):
        # Equal profits and weights in 1..3 make tied Add ratios common, so
        # the C loop exits mid-move, Python picks, and the loop resumes.
        rng = np.random.default_rng(14)
        weights = rng.integers(1, 4, size=(3, 60)).astype(float)
        inst = MKPInstance(weights, weights.sum(axis=1) // 2, np.full(60, 7.0))
        picks = []
        pick = native.NativeKernel.handback_pick
        monkeypatch.setattr(
            native.NativeKernel, "handback_pick",
            lambda self, r: picks.append(1) or pick(self, r),
        )
        x0 = greedy_solution(inst)
        c_ts = TabuSearch(inst, Strategy(5, 2, 8), TabuSearchConfig(nb_div=1), rng=2)
        c_result = c_ts.run(x_init=x0)
        c_picks = len(picks)
        assert c_picks > 0
        ref_ts = TabuSearch(
            inst, Strategy(5, 2, 8), TabuSearchConfig(nb_div=1), rng=2, on_move=_no_op
        )
        ref_result = ref_ts.run(x_init=x0)
        assert len(picks) == 2 * c_picks
        assert _memories(c_ts, c_result) == _memories(ref_ts, ref_result)

    def test_long_loop_spills_the_trace_chunk(self):
        # More moves in one loop than the trace chunk holds.
        inst = gk_instance(10)
        c_ts = TabuSearch(inst, Strategy(9, 2, 3000), TabuSearchConfig(nb_div=1), rng=1)
        c_result = c_ts.run(budget=Budget(max_moves=2500))
        assert c_result.moves == 2500 > 2 * native._TRACE_CHUNK
        ref_ts = TabuSearch(
            inst, Strategy(9, 2, 3000), TabuSearchConfig(nb_div=1), rng=1, on_move=_no_op
        )
        assert _memories(c_ts, c_result) == _memories(
            ref_ts, ref_ts.run(budget=Budget(max_moves=2500))
        )


# --------------------------------------------------------------------------- #
# Fallback rules: each keeps the reference loop
# --------------------------------------------------------------------------- #
@pytest.fixture
def c_loops(monkeypatch) -> list:
    """Counts the local-search loops that ran in C."""
    calls: list = []
    run = TabuSearch._c_local_search_loop
    monkeypatch.setattr(
        TabuSearch, "_c_local_search_loop",
        lambda self, *a: calls.append(1) or run(self, *a),
    )
    return calls


def _thread(instance=None, **config) -> TabuSearch:
    return TabuSearch(
        gk_instance(5) if instance is None else instance, Strategy(8, 2, 10),
        TabuSearchConfig(nb_div=1, **config),
        rng=0,
    )


class TestFallbackRules:
    def test_default_thread_runs_the_c_loop(self, c_loops):
        _thread().run()
        assert c_loops

    def test_on_move_keeps_the_reference_loop(self, c_loops):
        seen = []
        ts = _thread()
        ts.on_move = seen.append
        result = ts.run()
        assert not c_loops and len(seen) == result.moves

    def test_wall_clock_budget_keeps_the_reference_loop(self, c_loops):
        _thread().run(budget=Budget(wall_seconds=30.0))
        assert not c_loops

    def test_float_instance_keeps_the_reference_loop(self, c_loops):
        rng = np.random.default_rng(3)
        weights = rng.uniform(1.0, 9.0, size=(3, 40))
        inst = MKPInstance(weights, weights.sum(axis=1) / 2, rng.uniform(1.0, 9.0, 40))
        assert inst.hot.integer is None
        _thread(inst).run()
        assert not c_loops

    def test_generic_scan_keeps_the_reference_loop(self, c_loops):
        ts = _thread()
        ts.state.use_bitset = False
        ts.run()
        assert not c_loops

    def test_add_breadth_above_two_keeps_the_reference_loop(self, c_loops):
        _thread(add_candidates=3).run()
        assert not c_loops

    def test_numpy_reference_keeps_the_reference_loop(self, c_loops):
        with numpy_reference():
            ts = _thread()
        ts.run()
        assert not c_loops
