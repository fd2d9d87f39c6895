"""ISSUE-8 LP-core reduction substrate: patterns, lifts, re-core, identity.

Four layers under test:

* :class:`~repro.core.reduction.FixationPattern` — wire forms (packed
  blocks, :class:`~repro.parallel.wire.WireCodec` frames) round-trip at
  word-boundary sizes, and a task frame carries no pattern bytes when no
  pattern rides along.
* :func:`~repro.exact.preprocess.reduce_to_core` /
  :class:`~repro.exact.preprocess.Reduction` — Hypothesis round-trips for
  ``lift``/``lift_value`` plus the none-fixed / all-fixed-but-one /
  degenerate-LP edge cases and the feasibility invariant.
* :class:`~repro.core.reduction.CoreSelector` — ranking determinism,
  variant diversification, ``core_ratio=1.0`` fixing safety (nothing is
  ever fixed out), and the shared per-process / service-layer caches.
* :class:`~repro.parallel.runtime.SlaveRuntime` re-core — trivial patterns
  are bit-identical to the unpatterned path, reduced reports lift to
  feasible full-space solutions, and serial/mp x pipe/shm backends agree
  at ``core_ratio=0.5``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Budget, MKPInstance, Strategy, TabuSearchConfig, random_solution
from repro.core.reduction import (
    CoreSelector,
    FixationPattern,
    clear_selector_cache,
    selector_cache_stats,
    shared_selector,
)
from repro.core.strategy import StrategyBounds
from repro.exact.bounds import solve_lp_relaxation
from repro.exact.preprocess import reduce_to_core
from repro.instances import gk_suite
from repro.parallel import SlaveTask
from repro.parallel.runtime import SlaveRuntime
from repro.parallel.wire import WireCodec
from repro.rng import make_rng

#: Word-boundary item counts for the packed two-block wire form.
BOUNDARY_NS = [1, 63, 64, 65, 500]


def _instance():
    return gk_suite()[9]  # GK10, 10*100


@st.composite
def patterned_instances(draw, ns=BOUNDARY_NS):
    """A generous-capacity instance plus a random consistent pattern.

    Capacities exceed the total weight per row, so *any* set of pinned-to-1
    items satisfies the reduce_to_core feasibility invariant — the
    Hypothesis layer probes the lift algebra, not the LP selection.
    """
    n = draw(st.sampled_from(ns))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(1, 6, size=(m, n)).astype(float)
    profits = rng.integers(1, 50, size=n).astype(float)
    capacities = weights.sum(axis=1) + 1.0
    inst = MKPInstance(weights=weights, capacities=capacities, profits=profits)
    core_mask = np.zeros(n, dtype=bool)
    core_mask[draw(st.integers(0, n - 1))] = True  # at least one free
    core_mask |= rng.random(n) < draw(st.floats(0.0, 1.0))
    fixed_values = (rng.random(n) < 0.5).astype(np.int8)
    return inst, FixationPattern(core_mask=core_mask, fixed_values=fixed_values)


class TestFixationPattern:
    @given(patterned_instances())
    @settings(max_examples=60, deadline=None)
    def test_wire_and_pickle_round_trip(self, case):
        inst, pattern = case
        codec = WireCodec(inst.n_items)

        def wire(p):
            task = _task(inst, p, core_ratio=0.5)
            return codec.decode_task(codec.encode_task(task)).pattern

        rebuilt = wire(pattern)
        assert rebuilt == pattern
        assert np.array_equal(rebuilt.core_mask, pattern.core_mask)
        # Re-encoding a decoded pattern is stable.
        assert rebuilt.signature() == wire(rebuilt).signature()
        # Still a plain picklable value, though pickle is no wire format.
        assert pickle.loads(pickle.dumps(pattern)) == pattern
        nb = (pattern.n_items + 7) // 8
        assert len(pattern.packed_mask_bytes()) == nb
        assert len(pattern.packed_values_bytes()) == nb

    def test_trivial_pattern(self):
        pattern = FixationPattern.trivial(64)
        assert pattern.is_trivial
        assert pattern.n_core == 64
        assert FixationPattern.trivial(64) == pattern

    def test_validation(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            FixationPattern(
                core_mask=np.ones((2, 2), dtype=bool),
                fixed_values=np.zeros(4, dtype=np.int8),
            )
        with pytest.raises(ValueError, match="0/1"):
            FixationPattern(
                core_mask=np.ones(4, dtype=bool),
                fixed_values=np.full(4, 2, dtype=np.int8),
            )


class TestReduceToCore:
    @given(patterned_instances())
    @settings(max_examples=60, deadline=None)
    def test_lift_round_trip(self, case):
        inst, pattern = case
        red = reduce_to_core(inst, pattern)
        assert red.kept_items.size == pattern.n_core
        rng = np.random.default_rng(0)
        x_red = (rng.random(red.kept_items.size) < 0.5).astype(np.int8)
        x = red.lift(x_red)
        assert np.array_equal(x[red.kept_items], x_red)
        assert np.all(x[red.fixed_one] == 1)
        assert np.all(x[red.fixed_zero] == 0)
        # Integer data: the lifted objective is exactly the reduced
        # objective plus the pinned profit.
        assert float(inst.objective(x)) == red.lift_value(
            float(red.reduced.objective(x_red))
        )
        assert red.lift_value(0.0) == red.fixed_profit

    def test_none_fixed_keeps_everything(self):
        inst = _instance()
        red = reduce_to_core(inst, FixationPattern.trivial(inst.n_items))
        assert np.array_equal(red.kept_items, np.arange(inst.n_items))
        assert red.fixed_one.size == 0 and red.fixed_zero.size == 0
        assert np.array_equal(red.reduced.capacities, inst.capacities)
        assert red.lift_value(123.0) == 123.0

    def test_all_fixed_but_one(self):
        inst = _instance()
        n = inst.n_items
        core_mask = np.zeros(n, dtype=bool)
        core_mask[3] = True
        red = reduce_to_core(
            inst,
            FixationPattern(core_mask=core_mask, fixed_values=np.zeros(n, np.int8)),
        )
        assert red.reduced.n_items == 1
        assert np.array_equal(red.lift(np.array([1])), np.eye(n, dtype=np.int8)[3])

    def test_rejects_all_fixed(self):
        with pytest.raises(ValueError, match="at least one"):
            reduce_to_core(
                _instance(),
                FixationPattern(
                    core_mask=np.zeros(100, dtype=bool),
                    fixed_values=np.zeros(100, np.int8),
                ),
            )

    def test_rejects_infeasible_fixation(self):
        inst = _instance()
        n = inst.n_items
        core_mask = np.zeros(n, dtype=bool)
        core_mask[0] = True
        with pytest.raises(RuntimeError, match="invariant"):
            reduce_to_core(
                inst,
                FixationPattern(
                    core_mask=core_mask, fixed_values=np.ones(n, np.int8)
                ),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            reduce_to_core(_instance(), FixationPattern.trivial(7))


class TestCoreSelector:
    def test_rank_is_deterministic_permutation(self):
        inst = _instance()
        s1, s2 = CoreSelector(inst), CoreSelector(inst)
        assert np.array_equal(np.sort(s1.rank), np.arange(inst.n_items))
        assert np.array_equal(s1.rank, s2.rank)
        assert np.array_equal(s1.lp_values, s2.lp_values)

    def test_core_ratio_one_fixes_nothing(self):
        """Reduced-cost fixing safety: a full core never loses any optimum."""
        selector = CoreSelector(_instance())
        for variant in range(4):
            pattern = selector.pattern(1.0, variant=variant)
            assert pattern.is_trivial
        assert selector.pattern(1.0, variant=0) is selector.pattern(1.0, variant=3)

    def test_core_size_and_validation(self):
        selector = CoreSelector(_instance())
        assert selector.core_size(1.0) == 100
        assert selector.core_size(0.5) == 50
        assert selector.core_size(0.001) == 1  # floor at one free variable
        with pytest.raises(ValueError, match="core_ratio"):
            selector.core_size(0.0)
        with pytest.raises(ValueError, match="core_ratio"):
            selector.core_size(1.5)

    def test_variants_diversify_but_share_size(self):
        selector = CoreSelector(_instance())
        patterns = [selector.pattern(0.5, variant=v) for v in range(4)]
        assert len({p.signature() for p in patterns}) > 1
        assert {p.n_core for p in patterns} == {50}

    def test_fixation_is_feasible_for_every_variant(self):
        """Pinned-to-1 sets always fit: the LP-upper-bound invariant."""
        inst = _instance()
        selector = CoreSelector(inst)
        at_one = np.flatnonzero(selector.lp_values == 1)
        for variant in range(6):
            pattern = selector.pattern(0.3, variant=variant)
            pinned_one = np.flatnonzero(~pattern.core_mask & (pattern.fixed_values == 1))
            assert np.isin(pinned_one, at_one).all()
            red = reduce_to_core(inst, pattern)  # raises if infeasible
            assert np.all(red.reduced.capacities >= 0)

    def test_degenerate_lp_all_at_upper_bound(self):
        """Capacities so loose the LP packs everything: all pinned to 1."""
        rng = np.random.default_rng(3)
        weights = rng.integers(1, 5, size=(2, 40)).astype(float)
        inst = MKPInstance(
            weights=weights,
            capacities=weights.sum(axis=1) + 10.0,
            profits=rng.integers(1, 9, size=40).astype(float),
        )
        lp = solve_lp_relaxation(inst)
        assert np.all(lp.x >= 1 - 1e-9)
        selector = CoreSelector(inst)
        pattern = selector.pattern(0.25)
        assert np.all(pattern.fixed_values[~pattern.core_mask] == 1)
        red = reduce_to_core(inst, pattern)
        assert np.all(red.reduced.capacities >= 0)


class TestSelectorCaches:
    def test_shared_selector_is_content_addressed(self):
        clear_selector_cache()
        inst = _instance()
        base = selector_cache_stats()
        s1 = shared_selector(inst)
        s2 = shared_selector(_instance())  # equal content, fresh object
        assert s1 is s2
        stats = selector_cache_stats()
        assert stats["lp_misses"] == base["lp_misses"] + 1
        assert stats["lp_hits"] == base["lp_hits"] + 1


class TestStrategyCoreKnob:
    def test_default_bounds_draw_no_core_variate(self):
        """Degenerate (1.0, 1.0) bounds must not touch the RNG stream."""
        a = StrategyBounds().random(make_rng(11))
        b = StrategyBounds(core_ratio=(1.0, 1.0)).random(make_rng(11))
        assert (a.lt_length, a.nb_drop, a.nb_local) == (
            b.lt_length, b.nb_drop, b.nb_local,
        )
        assert a.core_ratio == b.core_ratio == 1.0

    def test_adaptive_steps_stay_in_bounds(self):
        bounds = StrategyBounds(core_ratio=(0.4, 1.0))
        s = bounds.random(make_rng(5))
        assert 0.4 <= s.core_ratio <= 1.0
        wide = s.diversified(bounds, intensity=1.0)
        narrow = s.intensified(bounds, intensity=1.0)
        assert wide.core_ratio >= s.core_ratio
        assert narrow.core_ratio <= s.core_ratio
        assert 0.4 <= narrow.core_ratio <= wide.core_ratio <= 1.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            StrategyBounds(core_ratio=(0.0, 1.0))
        with pytest.raises(ValueError):
            StrategyBounds(core_ratio=(0.8, 0.5))
        with pytest.raises(ValueError):
            Strategy(8, 2, 10, core_ratio=1.5)


def _task(instance, pattern=None, *, seed=42, evals=1_500, core_ratio=1.0):
    return SlaveTask(
        x_init=random_solution(instance, rng=3),
        strategy=Strategy(8, 2, 10, core_ratio=core_ratio),
        budget=Budget(max_evaluations=evals),
        seed=seed,
        round_index=0,
        seq_id=0,
        pattern=pattern,
    )


class TestTaskWireForms:
    def test_pickle_round_trips_pattern(self):
        inst = _instance()
        pattern = CoreSelector(inst).pattern(0.5, variant=2)
        task = _task(inst, pattern, core_ratio=0.5)
        rebuilt = pickle.loads(pickle.dumps(task))
        assert rebuilt.pattern == pattern
        assert rebuilt.strategy.core_ratio == 0.5

    def test_codec_frame_without_pattern_is_byte_identical(self):
        inst = _instance()
        codec = WireCodec(inst.n_items)
        task = _task(inst)
        frame = codec.encode_task(task)
        patterned = codec.encode_task(
            _task(inst, CoreSelector(inst).pattern(0.5), core_ratio=0.5)
        )
        assert len(patterned) > len(frame)  # flags engage only when present
        decoded = codec.decode_task(frame)
        assert decoded.pattern is None
        assert decoded.strategy.core_ratio == 1.0

    def test_codec_round_trips_pattern_and_ratio(self):
        inst = _instance()
        codec = WireCodec(inst.n_items)
        pattern = CoreSelector(inst).pattern(0.5, variant=1)
        task = _task(inst, pattern, core_ratio=0.625)
        decoded = codec.decode_task(codec.encode_task(task))
        assert decoded.pattern == pattern
        assert decoded.strategy.core_ratio == 0.625
        assert decoded.strategy == task.strategy
        assert np.array_equal(decoded.x_init.x, task.x_init.x)


class TestRuntimeRecore:
    def test_trivial_pattern_is_bit_identical_to_plain(self):
        inst = _instance()
        runtime = SlaveRuntime(inst, TabuSearchConfig(nb_div=10_000), slave_id=0)
        plain = runtime.execute(_task(inst))
        trivial = runtime.execute(_task(inst, FixationPattern.trivial(inst.n_items)))
        assert trivial.best == plain.best
        assert trivial.elite == plain.elite
        assert trivial.evaluations == plain.evaluations
        assert trivial.moves == plain.moves
        assert runtime.recores == 0 and runtime.core_tasks == 0

    def test_reduced_report_lifts_to_feasible_full_space(self):
        inst = _instance()
        pattern = CoreSelector(inst).pattern(0.5, variant=1)
        runtime = SlaveRuntime(inst, TabuSearchConfig(nb_div=10_000), slave_id=0)
        report = runtime.execute(_task(inst, pattern, core_ratio=0.5))
        assert report.best.x.shape == (inst.n_items,)
        assert inst.is_feasible(report.best.x)
        assert report.best.value == float(inst.objective(report.best.x))
        # Out-of-core coordinates are pinned to the pattern's values.
        out = ~pattern.core_mask
        assert np.array_equal(report.best.x[out], pattern.fixed_values[out])
        for sol in report.elite:
            assert inst.is_feasible(sol.x)
            assert sol.value == float(inst.objective(sol.x))
        assert runtime.recores == 1 and runtime.core_tasks == 1

    def test_recore_cache_is_reused_per_signature(self):
        inst = _instance()
        selector = CoreSelector(inst)
        runtime = SlaveRuntime(inst, TabuSearchConfig(nb_div=10_000), slave_id=0)
        p1, p2 = selector.pattern(0.5, variant=0), selector.pattern(0.5, variant=1)
        runtime.execute(_task(inst, p1, core_ratio=0.5))
        runtime.execute(_task(inst, p1, core_ratio=0.5, seed=43))
        assert runtime.recores == 1  # same signature: arena reused
        runtime.execute(_task(inst, p2, core_ratio=0.5))
        assert runtime.recores == 2
        assert runtime.core_tasks == 3

    def test_reduced_run_is_deterministic(self):
        inst = _instance()
        pattern = CoreSelector(inst).pattern(0.5)
        r1 = SlaveRuntime(inst, TabuSearchConfig(nb_div=10_000), slave_id=0)
        r2 = SlaveRuntime(inst, TabuSearchConfig(nb_div=10_000), slave_id=0)
        a = r1.execute(_task(inst, pattern, core_ratio=0.5))
        b = r2.execute(_task(inst, pattern, core_ratio=0.5))
        assert a.best == b.best
        assert a.evaluations == b.evaluations


class TestCrossBackendIdentity:
    """core_ratio=0.5 trajectories agree across serial / mp x pipe / shm."""

    _histories: dict = {}

    @classmethod
    def _history(cls, backend_spec):
        from repro.parallel.backends import MultiprocessingBackend, SerialBackend
        from repro.variants import solve_cts2

        if backend_spec not in cls._histories:
            if backend_spec == "serial":
                backend = SerialBackend(3)
            else:
                transport, batch_k = backend_spec
                backend = MultiprocessingBackend(
                    3, transport=transport, batch_k=batch_k
                )
            try:
                result = solve_cts2(
                    _instance(),
                    n_slaves=3,
                    rng_seed=7,
                    max_evaluations=3_000,
                    backend=backend,
                    core_ratio=(0.5, 0.5),
                )
            finally:
                backend.shutdown()
            cls._histories[backend_spec] = (
                [float(v) for v in result.value_history],
                result.best.value,
                result.total_evaluations,
            )
        return cls._histories[backend_spec]

    @pytest.mark.parametrize("spec", [("pipe", 1), ("shm", 3)])
    def test_mp_matches_serial_reference(self, spec):
        assert self._history(spec) == self._history("serial")

    def test_reduced_run_beats_nothing_silently(self):
        """The reduced incumbent is a valid full-space solution."""
        history, best, _ = self._history("serial")
        inst = _instance()
        assert best == history[-1]
        assert best > 0
        assert len(history) == 11
