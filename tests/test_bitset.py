"""Tests for the packed-bitset codec layer (``repro.core.bitset``) and the
exactness contract of everything built on it: codec round-trips (Hypothesis),
the fitting scan vs. its elementwise definition, the native C kernel's
prefix-bitset moves, greedy fill, swap intensification, repair, strategic
oscillation and state reload vs. the generic Python reference path
(Hypothesis on tie-heavy instances), the packed Hamming/dispersion
statistics, the :class:`Solution` wire frames, and the ``set_exclusions``
no-op short-circuit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MKPInstance,
    MoveEngine,
    SearchState,
    Solution,
    TabuList,
    fill_greedily,
    greedy_solution,
    mean_pairwise_distance,
    native,
)
from repro.core.bitset import (
    bytes_to_words,
    hamming_words,
    mean_pairwise_hamming,
    n_words,
    pack_bits,
    pairwise_hamming,
    popcount,
    unpack_bits,
    words_to_bytes,
)
from repro.core.construction import random_solution, repair
from repro.core.intensification import apply_swaps, strategic_oscillation
from repro.core.kernels import FIT_EPS
from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearchConfig
from repro.core.termination import Budget
from repro.instances import gk_suite
from repro.master import MasterConfig, MasterProcess
from repro.parallel import SerialBackend
from repro.parallel.message import SlaveReport, SlaveTask
from repro.parallel.wire import WireCodec

from tests.differential import numpy_reference

#: Word-boundary sizes the ISSUE pins: single word, 63/64/65 edges, GK-scale.
BOUNDARY_SIZES = (1, 63, 64, 65, 500)


def bit_vectors(n: int):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda bits: np.asarray(bits, dtype=np.int8)
    )


def random_integer_instance(rng: np.random.Generator) -> MKPInstance:
    m = int(rng.integers(2, 8))
    n = int(rng.integers(5, 90))
    weights = rng.integers(1, 50, size=(m, n)).astype(float)
    capacities = (
        weights.sum(axis=1) * rng.uniform(0.3, 0.7, m)
    ).astype(int).astype(float) + 1
    profits = rng.integers(1, 100, size=n).astype(float)
    return MKPInstance(weights, capacities, profits)


#: native C kernel, generic elementwise Python reference
PATHS = ("native", "generic")


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """``(p, n)`` 0/1 rows as ``(p, W)`` packed words."""
    return np.stack([pack_bits(row) for row in rows])


class _CountingRng:
    """A Generator stand-in that counts the Python-side ``integers`` draws."""

    def __init__(self, seed: int) -> None:
        self._gen = np.random.default_rng(seed)
        self.bit_generator = self._gen.bit_generator
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._gen.integers(*args, **kwargs)


def _state_on_path(inst: MKPInstance, x: np.ndarray, path: str) -> SearchState:
    if path == "native":
        state = SearchState(inst, x.copy())
    else:
        with numpy_reference():
            state = SearchState(inst, x.copy())
    assert (state.native() is not None) == (path == "native" and native.available)
    return state


def _kernel_fingerprint(state) -> tuple:
    """Every buffer the native kernel writes, as comparable bytes."""
    return (
        state.x.tobytes(), state.load.tobytes(), state.slack.tobytes(),
        state.value, state.n_packed, state._free.tobytes(),
        state.free_words.tobytes(), state._q_base.tobytes(),
    )


def _move_trajectory(inst, x0, path, add_candidates, rng, n_moves=40):
    state = _state_on_path(inst, x0, path)
    tabu = TabuList(inst.n_items, 5)
    engine = MoveEngine(state, tabu, rng, add_candidates=add_candidates)
    best = state.value
    trace = []
    for _move in range(n_moves):
        record = engine.apply(2, best)
        best = max(best, state.value)
        tabu.tick()
        if record.touched:
            tabu.make_tabu(np.asarray(record.touched))
        trace.append((tuple(record.dropped), tuple(record.added)))
    counters = engine.counters
    return trace, counters.move_evaluations, counters.moves, _kernel_fingerprint(state)


# --------------------------------------------------------------------------- #
# Codec round-trips (Hypothesis, satellite task)
# --------------------------------------------------------------------------- #
class TestCodecRoundTrip:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_pack_unpack_roundtrip(self, n):
        @given(bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(x):
            words = pack_bits(x)
            assert words.shape == (n_words(n),)
            assert np.array_equal(unpack_bits(words, n), x)

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_popcount_matches_sum(self, n):
        @given(bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(x):
            assert popcount(pack_bits(x)) == int(np.sum(x))

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_hamming_matches_elementwise(self, n):
        @given(bit_vectors(n), bit_vectors(n))
        @settings(max_examples=25, deadline=None)
        def check(a, b):
            expected = int(np.count_nonzero(a != b))
            assert hamming_words(pack_bits(a), pack_bits(b)) == expected

        check()

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_bytes_frame_roundtrip(self, n):
        rng = np.random.default_rng(n)
        x = (rng.random(n) < 0.5).astype(np.int8)
        words = pack_bits(x)
        frame = words_to_bytes(words, n)
        assert len(frame) == (n + 7) // 8
        assert np.array_equal(bytes_to_words(frame, n), words)

    def test_bytes_frame_length_checked(self):
        with pytest.raises(ValueError, match="payload bytes"):
            bytes_to_words(b"\x00" * 3, 500)

    def test_tail_bits_are_zero(self):
        # Codec contract: bits beyond n stay zero, so popcounts need no mask.
        x = np.ones(65, dtype=np.int8)
        words = pack_bits(x)
        assert words[1] == np.uint64(1)
        assert popcount(words) == 65


class TestPairwiseHamming:
    def test_matrix_matches_reference(self):
        rng = np.random.default_rng(3)
        rows = (rng.random((7, 130)) < 0.4).astype(np.int8)
        packed = pack_rows(rows)
        got = pairwise_hamming(packed)
        for i in range(7):
            for j in range(7):
                assert got[i, j] == int(np.count_nonzero(rows[i] != rows[j]))

    def test_mean_matches_gram_formula(self):
        rng = np.random.default_rng(4)
        rows = (rng.random((6, 500)) < 0.3).astype(np.int8)
        xs = rows.astype(np.int64)
        gram = xs @ xs.T
        ones = xs.sum(axis=1)
        expected = int((ones[:, None] + ones[None, :] - 2 * gram).sum()) / (6 * 5)
        assert mean_pairwise_hamming(pack_rows(rows)) == expected

    def test_solution_layer_uses_identical_statistic(self):
        rng = np.random.default_rng(5)
        sols = [
            Solution((rng.random(500) < 0.3).astype(np.int8), float(k))
            for k in range(5)
        ]
        xs = np.stack([s.x for s in sols]).astype(np.int64)
        gram = xs @ xs.T
        ones = xs.sum(axis=1)
        expected = int((ones[:, None] + ones[None, :] - 2 * gram).sum()) / (5 * 4)
        assert mean_pairwise_distance(sols) == expected
        assert mean_pairwise_distance(sols[:1]) == 0.0


# --------------------------------------------------------------------------- #
# Kernel: the native C kernel vs. the generic Python reference path
# --------------------------------------------------------------------------- #
def _fitting_definition(state: SearchState, excluded=()) -> np.ndarray:
    inst = state.instance
    fits = (state.x == 0) & np.all(inst.weights <= state.slack[:, None] + FIT_EPS, axis=0)
    fits[list(excluded)] = False
    return np.flatnonzero(fits)


class TestFittingEquivalence:
    def test_fitting_items_identical_across_paths(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_integer_instance(rng)
            x = greedy_solution(inst).x
            excl = set(map(int, rng.integers(0, inst.n_items, size=3)))
            for path in PATHS:
                state = _state_on_path(inst, x, path)
                assert np.array_equal(state.fitting_items(), _fitting_definition(state))
                # ... and with exclusions layered on top.
                state.set_exclusions(excl)
                assert np.array_equal(
                    state.fitting_items(), _fitting_definition(state, excl)
                )

    def test_float_instance_falls_back_to_generic(self):
        inst = MKPInstance(
            weights=np.array([[0.5, 1.25, 2.0]]),
            capacities=np.array([2.5]),
            profits=np.array([1.0, 2.0, 3.0]),
        )
        state = SearchState.empty(inst)
        assert inst.hot.integer is None and state.free_words is None
        assert state.native() is None
        assert np.array_equal(state.fitting_items(), [0, 1, 2])

    def test_trajectory_identical_across_paths(self):
        # The strongest equivalence statement: same seeds, same instance,
        # whole compound-move trajectories coincide move for move on the
        # native and generic paths — including the shared evaluation ledger
        # the farm model charges and every kernel buffer.  Add breadths 1
        # and 2 run in C; 3 keeps the Python path on both.
        rng = np.random.default_rng(12)
        for _ in range(5):
            inst = random_integer_instance(rng)
            x0 = greedy_solution(inst).x
            for add_candidates in (1, 2, 3):
                runs = [
                    _move_trajectory(
                        inst, x0, path, add_candidates, np.random.default_rng(99)
                    )
                    for path in PATHS
                ]
                assert runs[0] == runs[1], add_candidates

    @pytest.mark.parametrize("order_kind", ["density", "random"])
    def test_greedy_fill_identical_across_paths(self, order_kind):
        rng = np.random.default_rng(13)
        for _ in range(15):
            inst = random_integer_instance(rng)
            # a feasible partial start: the greedy solution with half its
            # items dropped
            x0 = greedy_solution(inst).x.copy()
            packed = x0.nonzero()[0]
            x0[packed[rng.random(packed.size) < 0.5]] = 0
            order = None if order_kind == "density" else rng.permutation(inst.n_items)
            out = []
            for path in PATHS:
                state = _state_on_path(inst, x0, path)
                fill_greedily(state, order)
                out.append(_kernel_fingerprint(state))
            assert out[0] == out[1]

    @pytest.mark.skipif(not native.available, reason="native kernel unavailable")
    def test_tied_add_selections_are_handed_back(self):
        # Equal profits and a 1..3 weight range make ratio ties the rule, so
        # add_candidates == 2 meets argpartition's unspecified tie order and
        # the C kernel must hand those picks back to Python.
        rng = np.random.default_rng(14)
        weights = rng.integers(1, 4, size=(3, 60)).astype(float)
        inst = MKPInstance(weights, weights.sum(axis=1) // 2, np.full(60, 7.0))
        x0 = greedy_solution(inst).x
        native_rng = _CountingRng(5)
        native_run = _move_trajectory(inst, x0, "native", 2, native_rng)
        assert native_rng.calls > 0  # every native-side draw happens in C
        assert native_run == _move_trajectory(inst, x0, "generic", 2, _CountingRng(5))


@st.composite
def tie_heavy_instances(draw) -> MKPInstance:
    """Integer instances with profits and weights from tiny ranges, so that
    profit ties (the swap order) and density ties (repair, the fill) are
    the rule.  ``heavy`` weights put every density above 2**16, where the
    oscillation's ``u * 1e-12`` jitter rounds away and its keys tie too."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(1, draw(st.integers(1, 3)) + 1, size=(m, n)).astype(float)
    if draw(st.booleans()):
        weights += 70_000.0
    profits = rng.integers(1, draw(st.integers(1, 5)) + 1, size=n).astype(float)
    capacities = np.floor(weights.sum(axis=1) * draw(st.floats(0.2, 0.8))) + weights.max()
    return MKPInstance(weights, capacities, profits)


def _bits(inst: MKPInstance, seed: int, p: float) -> np.ndarray:
    return (np.random.default_rng(seed).random(inst.n_items) < p).astype(np.int8)


class TestIntensificationParity:
    """The native swap scan, repair, oscillation and state reload against
    the generic Python path on tie-heavy integer instances (Hypothesis)."""

    @given(tie_heavy_instances(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_swap(self, inst, seed):
        x0 = random_solution(inst, seed).x
        out = []
        for path in PATHS:
            state = _state_on_path(inst, x0, path)
            apply_swaps(state)
            result = state.snapshot()
            out.append(
                (result.x.tobytes(), result.value,
                 state.counters.intensify_evaluations, _kernel_fingerprint(state))
            )
        assert out[0] == out[1]

    @given(tie_heavy_instances(), st.integers(0, 2**32 - 1), st.floats(0.3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_repair(self, inst, seed, p):
        x0 = _bits(inst, seed, p)
        out = []
        for path in PATHS:
            state = _state_on_path(inst, x0, path)
            out.append((repair(state), state.is_feasible, _kernel_fingerprint(state)))
        assert out[0] == out[1]
        assert out[0][1]

    @given(tie_heavy_instances(), st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_oscillation(self, inst, seed, depth):
        x0 = random_solution(inst, seed).x.copy()
        x0[np.random.default_rng(seed).random(inst.n_items) < 0.3] = 0
        out = []
        for path in PATHS:
            state = _state_on_path(inst, x0, path)
            rng = np.random.default_rng(seed)
            result = strategic_oscillation(state, depth, rng)
            out.append(
                (result.x.tobytes(), result.value,
                 state.counters.intensify_evaluations, _kernel_fingerprint(state),
                 rng.bit_generator.state)
            )
        assert out[0] == out[1]

    @given(tie_heavy_instances(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_reload(self, inst, seed, p):
        # an arbitrary (often infeasible) vector, loaded over a state that
        # holds another one
        x = _bits(inst, seed, p)
        out = []
        for path in PATHS:
            state = _state_on_path(inst, _bits(inst, seed + 1, 0.5), path)
            state.reset(x)
            out.append(_kernel_fingerprint(state))
        assert out[0] == out[1]

    @pytest.mark.skipif(not native.available, reason="native kernel unavailable")
    def test_tied_forced_adds_are_handed_back(self):
        # Equal heavy densities: every key is its density, so the forced
        # adds meet np.argsort's unspecified tie order and C hands them back.
        weights = np.full((3, 40), 70_000.0)
        inst = MKPInstance(weights, weights.sum(axis=1) // 2, np.full(40, 5.0))
        state = _state_on_path(inst, np.zeros(40, np.int8), "native")
        kernel = state.native()
        rng = np.random.default_rng(3)
        status = native.lib.ts_oscillate(
            kernel.ptr, native._bitgen(rng), 4, native.ffi.NULL, 0
        )
        assert status == native._TS_HANDBACK
        assert kernel.ptr.n_allowed == 40
        assert state.n_packed == 0 and kernel.ptr.n_packed == 0


# --------------------------------------------------------------------------- #
# set_exclusions no-op short-circuit (satellite regression)
# --------------------------------------------------------------------------- #
class TestExclusionShortCircuit:
    def test_unchanged_mask_keeps_generic_pool_warm(self):
        rng = np.random.default_rng(21)
        inst = random_integer_instance(rng)
        state = SearchState.empty(inst)
        state.set_exclusions({1, 3})
        state.fitting_items()
        assert state._pool is not None
        # Re-installing the identical mask must not invalidate the pool.
        state.set_exclusions({3, 1})
        assert state._pool is not None
        # Clearing when nothing is excluded is likewise free.
        state.clear_exclusions()
        state.fitting_items()
        pool = state._pool
        state.set_exclusions(None)
        state.clear_exclusions()
        assert state._pool is pool
        # A genuinely different mask still invalidates.
        state.set_exclusions({2})
        assert state._pool is None

    def test_unchanged_mask_keeps_the_same_fitting_set(self):
        rng = np.random.default_rng(22)
        inst = random_integer_instance(rng)
        state = SearchState.empty(inst)
        state.set_exclusions({0, 2})
        first = state.fitting_items().copy()
        state.set_exclusions({2, 0})
        assert np.array_equal(state.fitting_items(), first)
        assert 0 not in first and 2 not in first


# --------------------------------------------------------------------------- #
# Wire codec
# --------------------------------------------------------------------------- #
class TestWireCodec:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_solution_pickle_roundtrip(self, n):
        # Solutions are plain dataclasses: ordinary pickling still works,
        # it is just not a wire format any more.
        rng = np.random.default_rng(n)
        x = (rng.random(n) < 0.4).astype(np.int8)
        sol = Solution(x, float(x.sum()))
        clone = pickle.loads(pickle.dumps(sol))
        assert clone == sol
        assert clone.x.dtype == np.int8

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_solution_codec_roundtrip(self, n):
        rng = np.random.default_rng(n)
        x = (rng.random(n) < 0.4).astype(np.int8)
        sol = Solution(x, float(x.sum()))
        codec = WireCodec(n)
        clone = codec.decode_report(codec.encode_report(SlaveReport(0, sol))).best
        # The decoded copy holds the packed frame that arrived; ``x`` is
        # unpacked on its first read and kept.
        assert clone.packed_bytes() == sol.packed_bytes()
        assert clone == sol
        assert clone.x.dtype == np.int8
        assert clone.x is clone.x
        # One packed bit per item plus the value: 71 bytes for 500 items.
        assert codec.solution_nbytes == 8 + (n + 7) // 8

    def test_message_roundtrip(self):
        rng = np.random.default_rng(9)
        x = (rng.random(120) < 0.4).astype(np.int8)
        sol = Solution(x, 5.0)
        task = SlaveTask(
            x_init=sol,
            strategy=Strategy(lt_length=9, nb_drop=2, nb_local=40),
            budget=Budget(max_evaluations=1000, target_value=99.0),
            seed=7,
            round_index=3,
            seq_id=12,
        )
        codec = WireCodec(120)
        got = codec.decode_task(codec.encode_task(task))
        assert got == task
        report = SlaveReport(
            slave_id=2,
            best=sol,
            elite=[sol, Solution(np.zeros(120, dtype=np.int8), 0.0)],
            initial_value=1.0,
            evaluations=123,
            moves=4,
            round_index=3,
            seq_id=12,
        )
        got = codec.decode_report(codec.encode_report(report))
        assert got == report

    def test_budget_wire_form_drops_clock_state(self):
        # Clock origins are process-local: a receiver re-arms its own.
        budget = Budget(max_evaluations=10, wall_seconds=30.0).start()
        task = SlaveTask(
            x_init=Solution(np.zeros(4, dtype=np.int8), 0.0),
            strategy=Strategy(lt_length=9, nb_drop=2, nb_local=40),
            budget=budget,
            seed=1,
        )
        codec = WireCodec(4)
        clone = codec.decode_task(codec.encode_task(task)).budget
        assert clone.max_evaluations == 10
        assert clone.wall_seconds == 30.0
        assert not clone._started

    def test_master_run_incumbent_and_round_bytes(self):
        """GK24 over 4 serial slaves: the final incumbent survives the codec,
        and no round charges more than one full task and report frame per
        slave (solutions are packed, so the bound grows with ``n/8``)."""
        instance = gk_suite()[23]
        n_slaves, n_rounds = 4, 2
        backend = SerialBackend(n_slaves)
        master = MasterProcess(
            instance, MasterConfig(n_slaves=n_slaves, n_rounds=n_rounds), backend,
            rng_seed=42,
        )
        result = master.run(budget_per_slave=Budget(max_evaluations=50_000))
        codec = WireCodec(instance.n_items)
        echoed = codec.decode_report(codec.encode_report(SlaveReport(0, result.best))).best
        assert echoed == result.best and echoed.value == result.best.value

        empty = Solution(np.zeros(instance.n_items, dtype=np.int8), 0.0)
        task = SlaveTask(
            x_init=empty,
            strategy=Strategy(1, 1, 1, core_ratio=0.5),
            budget=Budget(1, 1, 1.0, 1.0),
            seed=0,
        )
        report = SlaveReport(0, empty, elite=[empty] * TabuSearchConfig().elite_size)
        bound = n_slaves * (
            len(codec.encode_task(task)) + len(codec.encode_report(report))
        )
        assert 0 < result.bytes_sent / n_rounds <= bound

    def test_solution_memoized_packing_is_shared(self):
        x = np.ones(100, dtype=np.int8)
        sol = Solution(x, 100.0)
        assert sol.packed_words() is sol.packed_words()
        assert sol.packed_bytes() == words_to_bytes(pack_bits(x), 100)
        assert sol.distance(Solution(np.zeros(100, dtype=np.int8), 0.0)) == 100
