"""The native thread (``ts_thread``, Figure 1 steps 3–11 of one
diversification round).

On integer-instance states one C call runs a whole diversification round:
``Nb_int`` local-search loops (the moves, the X*/X_local updates, the elite
offers, ``History`` and the tabu list), each followed by step 11's swap
scan and oscillation; step 12 stays in Python between calls.
``TabuSearch._intensification_rounds`` stays the reference; a no-op
``on_move`` pins a thread to it (the per-move path, whose compound move,
swap scan and oscillation are still native).  These cases check that the C
elite insertion is ``EliteArray.offer``, that a whole ``run()`` leaves every
memory in the same state on both paths, budgets and hand-backs included,
and that every fallback rule keeps the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Budget,
    EliteArray,
    IntensificationKind,
    MKPInstance,
    Solution,
    Strategy,
    TabuSearch,
    TabuSearchConfig,
    greedy_solution,
    native,
    tabu_search,
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
# Whole-run state equivalence: C thread == per-move path
# --------------------------------------------------------------------------- #
def _no_op(thread: TabuSearch) -> None:
    pass


def _thread_pair(instance, strategy=Strategy(9, 2, 12), rng=3, **config):
    """A default thread and a per-move reference thread, equally seeded."""
    return [
        TabuSearch(instance, strategy, TabuSearchConfig(**config), rng=rng, on_move=hook)
        for hook in (None, _no_op)
    ]


def _memories(ts: TabuSearch, result) -> dict:
    """Every memory the thread writes, as comparable values."""
    return {
        "clock": ts.tabu.clock,
        "expiry": ts.tabu._expiry.tobytes(),
        "counts": ts.history.counts.tobytes(),
        "iterations": ts.history.iterations,
        "elite": [(s.value, s.x.tobytes()) for s in ts.elite],
        "counters": ts.counters,
        "trace": result.value_trace,
        "best": (result.best.value, result.best.x.tobytes()),
        "thread_best": (ts.best.value, ts.best.x.tobytes()),
        "tally": (
            result.moves, result.local_search_loops, result.intensifications,
            result.diversifications, result.evaluations, result.initial_value,
        ),
        "kernel": (
            ts.state.x.tobytes(), ts.state.value, ts.state.n_packed,
            ts.state.load.tobytes(), ts.state.free_words.tobytes(),
            ts.state._q_base.tobytes(),
        ),
    }


def _assert_paths_agree(instance, budget=None, x_init=None, **kw):
    """Run both paths; return the C run's result after comparing memories."""
    out = []
    for ts in _thread_pair(instance, **kw):
        result = ts.run(x_init=x_init, budget=budget)
        out.append((ts, result))
    (c_ts, c_result), (ref_ts, ref_result) = out
    assert c_ts._c_thread is not None and ref_ts._c_thread is None
    assert _memories(c_ts, c_result) == _memories(ref_ts, ref_result)
    return c_result


def _step11_events(instance, **kw) -> list[tuple[int, int, float, float]]:
    """Per intensification of a per-move run: the evaluations before and
    after its swap scan, and F(X*) before the scan and once its result is
    registered."""
    ts = _thread_pair(instance, **kw)[1]
    events: list[list] = []
    apply_swaps, register = tabu_search.apply_swaps, TabuSearch._register_candidate

    def swaps(state):
        before, best = ts.counters.total, ts.best.value
        applied = apply_swaps(state)
        events.append([before, ts.counters.total, best])
        return applied

    def register_and_note(self, candidate):
        register(self, candidate)
        if events and len(events[-1]) == 3:
            events[-1].append(self.best.value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabu_search, "apply_swaps", swaps)
        patch.setattr(TabuSearch, "_register_candidate", register_and_note)
        ts.run()
    return [tuple(e) for e in events]


CB30 = lambda: cb_instance(30, 100, 0.25, 0)  # noqa: E731


class TestStateEquivalence:
    @pytest.mark.parametrize(
        "instance, budget",
        [
            pytest.param(lambda: gk_instance(24), None, id="gk24"),
            pytest.param(lambda: gk_instance(24), Budget(max_evaluations=150_000),
                         id="gk24-evals"),
            pytest.param(lambda: gk_instance(24), Budget(max_moves=333), id="gk24-moves"),
            pytest.param(CB30, None, id="cb30"),
            pytest.param(CB30, Budget(target_value=21_700), id="cb30-target"),
            pytest.param(CB30, Budget(max_moves=2_000), id="cb30-moves"),
        ],
    )
    def test_c_loop_matches_per_move_path(self, instance, budget):
        # Intensification BOTH and Nb_div = 3: every unspent run returns to
        # Python for step 12 twice and resumes the thread after it.
        result = _assert_paths_agree(instance(), budget)
        if budget is None:
            assert result.diversifications == 3
            assert result.intensifications == result.local_search_loops > 3

    @pytest.mark.parametrize("instance", [lambda: gk_instance(24), CB30], ids=["gk24", "cb30"])
    @pytest.mark.parametrize("stop", ["evaluations", "target"])
    def test_budget_spent_between_swap_and_oscillation(self, instance, stop):
        # A swap spends the budget (the third intensification's evaluations,
        # or the first swap that lifts F(X*) to the target): the oscillation
        # still runs, and the next round's check stops the run.
        inst = instance()
        events = _step11_events(inst)
        if stop == "evaluations":
            k = 2
            before, after, _, _ = events[k]
            assert before < after
            budget = Budget(max_evaluations=after)
        else:  # the first swap that raises F(X*)
            k = next(k for k, (_, _, old, new) in enumerate(events) if new > old)
            budget = Budget(target_value=events[k][3])
        result = _assert_paths_agree(inst, budget)
        assert result.intensifications == k + 1
        assert result.local_search_loops == k + 1

    def test_add_breadth_one(self):
        _assert_paths_agree(cb_instance(5, 100, 0.5, 0), add_candidates=1)

    def test_non_integral_profits(self):
        # Integral weights keep the native kernel; X_local's restore keeps
        # the value recorded for it on both paths.
        base = gk_instance(10)
        rng = np.random.default_rng(5)
        inst = MKPInstance(
            base.weights, base.capacities, base.profits + rng.uniform(0.0, 1.0, base.n_items)
        )
        assert not np.all(inst.profits == np.round(inst.profits))
        result = _assert_paths_agree(inst)
        assert result.diversifications == 3

    @pytest.mark.parametrize("kind", list(IntensificationKind))
    def test_each_intensification_kind(self, kind):
        _assert_paths_agree(gk_instance(10), intensification=kind)

    def test_rebound_thread_matches_fresh_per_move_thread(self):
        # The warm-runtime path: a reused thread keeps its bound memories.
        inst = gk_instance(10)
        ts = TabuSearch(inst, Strategy(9, 2, 12), TabuSearchConfig(), rng=0)
        ts.run()
        ts.rebind(Strategy(5, 1, 9), 4)
        result = ts.run()
        ref = TabuSearch(inst, Strategy(5, 1, 9), TabuSearchConfig(), rng=4, on_move=_no_op)
        assert _memories(ts, result) == _memories(ref, ref.run())

    def test_tie_hand_back_resumes_inside_the_loop(self, monkeypatch):
        # Profits in {1, 2} and weights in 30 000 x {1, 2, 3} make tied Add
        # ratios common, and densities above 2**16 make the oscillation's
        # keys tie: the C thread hands both choices back mid-round, Python
        # picks or sorts, and the thread resumes.
        rng = np.random.default_rng(14)
        weights = 30_000.0 * rng.integers(1, 4, size=(3, 60))
        inst = MKPInstance(weights, weights.sum(axis=1) // 2, rng.integers(1, 3, 60) * 1.0)
        calls = {"handback_pick": 0, "handback_order": 0}
        for name in calls:
            method = getattr(native.NativeKernel, name)

            def counted(self, arg, name=name, method=method):
                calls[name] += 1
                return method(self, arg)

            monkeypatch.setattr(native.NativeKernel, name, counted)
        x0 = greedy_solution(inst)
        c_ts, ref_ts = _thread_pair(inst, Strategy(5, 2, 8), rng=2, nb_div=2)
        c_result = c_ts.run(x_init=x0)
        c_calls = dict(calls)
        assert c_calls["handback_pick"] > 0 and c_calls["handback_order"] > 0
        ref_result = ref_ts.run(x_init=x0)
        assert calls == {name: 2 * count for name, count in c_calls.items()}
        assert c_result.diversifications == 2
        assert _memories(c_ts, c_result) == _memories(ref_ts, ref_result)

    def test_long_loop_spills_the_trace_chunk(self):
        # More moves in one round than the trace chunk holds.
        inst = gk_instance(10)
        result = _assert_paths_agree(
            inst, Budget(max_moves=2500), strategy=Strategy(9, 2, 3000), rng=1, nb_div=1
        )
        assert result.moves == 2500 > 2 * native._TRACE_CHUNK


# --------------------------------------------------------------------------- #
# Fallback rules: each keeps the reference
# --------------------------------------------------------------------------- #
@pytest.fixture
def c_loops(monkeypatch) -> list:
    """Counts the diversification rounds that ran in C (``ts_thread``)."""
    calls: list = []
    run = native.NativeThread.round
    monkeypatch.setattr(
        native.NativeThread, "round",
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

    def test_control_flow_trace_keeps_the_reference_loop(self, c_loops):
        ts = _thread()
        phases = ts.enable_control_flow_trace()
        ts.run()
        assert not c_loops and "local_search" in phases

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

    def test_add_breadth_above_two_keeps_the_reference_loop(self, c_loops):
        _thread(add_candidates=3).run()
        assert not c_loops

    def test_numpy_reference_keeps_the_reference_loop(self, c_loops):
        with numpy_reference():
            ts = _thread()
        ts.run()
        assert not c_loops
