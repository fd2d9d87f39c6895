"""Tests for gantt rendering, result serialization, and convergence tools."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import (
    anytime_curve,
    load_result,
    normalized_auc,
    render_gantt,
    result_from_dict,
    result_to_dict,
    save_result,
    time_to_value,
    value_at,
)
from repro.farm import EventKind, FarmTrace
from repro.variants import solve_cts2, solve_seq


@pytest.fixture(scope="module")
def run_result():
    from repro.instances import correlated_instance

    inst = correlated_instance(5, 30, rng=42)
    return solve_cts2(
        inst, n_slaves=3, n_rounds=3, rng_seed=0, max_evaluations=10_000
    )


class TestGantt:
    def test_renders_all_processors(self, run_result):
        art = render_gantt(run_result.trace, width=40)
        # 3 slaves + master rank
        assert art.count("proc") == 4
        assert "compute" in art

    def test_compute_glyph_present(self, run_result):
        art = render_gantt(run_result.trace, width=40)
        assert "█" in art

    def test_empty_trace(self):
        assert "empty" in render_gantt(FarmTrace())

    def test_width_validation(self, run_result):
        with pytest.raises(ValueError):
            render_gantt(run_result.trace, width=0)

    def test_manual_trace_majority_rule(self):
        trace = FarmTrace()
        trace.record(0, EventKind.COMPUTE, 0.0, 0.9)
        trace.record(0, EventKind.BARRIER_WAIT, 0.9, 1.0)
        art = render_gantt(trace, width=10)
        line = [ln for ln in art.splitlines() if ln.startswith("proc")][0]
        # nine compute bins, one idle bin
        assert line.count("█") == 9
        assert line.count("░") == 1


class TestSerialization:
    def test_roundtrip_preserves_everything(self, run_result, tmp_path):
        path = tmp_path / "run.json"
        save_result(run_result, path)
        loaded = load_result(path)
        assert loaded.best == run_result.best
        assert loaded.variant == run_result.variant
        assert loaded.total_evaluations == run_result.total_evaluations
        assert loaded.virtual_seconds == run_result.virtual_seconds
        assert loaded.value_history == run_result.value_history
        assert len(loaded.rounds) == len(run_result.rounds)
        assert loaded.rounds[0].isp_rules == run_result.rounds[0].isp_rules
        assert len(loaded.trace.events) == len(run_result.trace.events)

    def test_dict_roundtrip_without_trace(self, run_result):
        data = result_to_dict(run_result)
        data["trace"] = None
        loaded = result_from_dict(data)
        assert loaded.trace is None

    def test_version_guard(self, run_result):
        data = result_to_dict(run_result)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            result_from_dict(data)


class TestSerializationV2:
    """The v2 format is lossless and a fixed point (ISSUE satellites 1–2)."""

    def test_dict_fixed_point(self, run_result):
        data = result_to_dict(run_result)
        assert result_to_dict(result_from_dict(data)) == data
        # Byte-identical through an actual JSON round-trip too.
        rehydrated = result_from_dict(json.loads(json.dumps(data)))
        assert json.dumps(result_to_dict(rehydrated)) == json.dumps(data)

    def test_phase_wall_and_gather_idle_survive(self, run_result, tmp_path):
        assert any(s.phase_wall_seconds for s in run_result.rounds)
        path = tmp_path / "run.json"
        save_result(run_result, path)
        loaded = load_result(path)
        for orig, back in zip(run_result.rounds, loaded.rounds):
            assert back.phase_wall_seconds == orig.phase_wall_seconds
            assert back.gather_idle_s == orig.gather_idle_s
            assert all(isinstance(k, int) for k in back.gather_idle_s)

    def test_slave_virtual_seconds_keyed_by_id(self, run_result, tmp_path):
        path = tmp_path / "run.json"
        save_result(run_result, path)
        loaded = load_result(path)
        for orig, back in zip(run_result.rounds, loaded.rounds):
            assert back.slave_virtual_seconds == orig.slave_virtual_seconds
            assert all(isinstance(k, int) for k in back.slave_virtual_seconds)

    def test_trace_wall_phases_survive(self, run_result, tmp_path):
        totals = run_result.trace.wall_phase_totals()
        assert totals.get("compute", 0.0) > 0.0
        path = tmp_path / "run.json"
        save_result(run_result, path)
        loaded = load_result(path)
        assert loaded.trace.wall_phase_totals() == totals
        assert loaded.trace.wall_phases == run_result.trace.wall_phases

    def test_v1_record_still_loads(self, run_result):
        # Downgrade a v2 dict to the v1 shape by hand: bare-list trace,
        # arrival-ordered slave seconds, no measured wall fields.
        data = result_to_dict(run_result)
        data["format_version"] = 1
        data["trace"] = data["trace"]["events"]
        for rnd in data["rounds"]:
            rnd["slave_virtual_seconds"] = list(
                rnd["slave_virtual_seconds"].values()
            )
            del rnd["phase_wall_seconds"]
            del rnd["gather_idle_s"]
        loaded = result_from_dict(data)
        assert loaded.best == run_result.best
        assert len(loaded.trace.events) == len(run_result.trace.events)
        assert loaded.trace.wall_phases == []
        first = loaded.rounds[0]
        # v1 lists become index-keyed dicts; measured fields default empty.
        assert set(first.slave_virtual_seconds) == set(
            range(len(first.slave_virtual_seconds))
        )
        assert first.phase_wall_seconds == {}
        assert first.gather_idle_s == {}


class TestBestValueAt:
    """``value_at`` over ``anytime_curve``: the best value known at a
    virtual time."""

    @staticmethod
    def _result(value_history):
        x = np.zeros(4, dtype=np.int8)
        x[0] = 1
        from repro.core.solution import Solution
        from repro.master.result import ParallelRunResult, RoundStats

        rounds = [
            RoundStats(
                round_index=i,
                best_value=10.0 + i,
                round_virtual_seconds=1.0,
                slave_virtual_seconds={0: 1.0},
                communication_seconds=0.0,
                evaluations=100,
                improved_slaves=1,
            )
            for i in range(3)
        ]
        return ParallelRunResult(
            variant="CTS2",
            best=Solution(x, 12.0),
            rounds=rounds,
            total_evaluations=300,
            virtual_seconds=3.0,
            wall_seconds=0.1,
            n_slaves=1,
            value_history=value_history,
        )

    def test_before_first_round_returns_initial_incumbent(self):
        # The pre-first-round value is the initial incumbent, not -inf and
        # not round 0's (future) best.
        curve = anytime_curve(self._result([7.0, 10.0, 11.0, 12.0]))
        assert value_at(curve, 0.0) == 7.0
        assert value_at(curve, 0.5) == 7.0
        assert value_at(curve, -1.0) == 7.0

    def test_after_rounds_accumulate(self):
        curve = anytime_curve(self._result([7.0, 10.0, 11.0, 12.0]))
        assert value_at(curve, 1.0) == 10.0
        assert value_at(curve, 2.5) == 11.0
        assert value_at(curve, 99.0) == 12.0

    def test_fallback_without_value_history(self):
        assert value_at(anytime_curve(self._result([])), 0.0) == 10.0


class TestConvergence:
    def test_curve_monotone(self, run_result):
        curve = anytime_curve(run_result)
        values = [v for _, v in curve]
        assert values == sorted(values)
        times = [t for t, _ in curve]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_value_at(self):
        curve = [(0.0, 1.0), (1.0, 5.0), (2.0, 7.0)]
        assert value_at(curve, -0.5) == 1.0
        assert value_at(curve, 0.5) == 1.0
        assert value_at(curve, 1.0) == 5.0
        assert value_at(curve, 99.0) == 7.0

    def test_value_at_empty(self):
        with pytest.raises(ValueError):
            value_at([], 1.0)

    def test_normalized_auc_bounds(self, run_result):
        curve = anytime_curve(run_result)
        auc = normalized_auc(curve, reference=run_result.best.value)
        assert 0.0 <= auc <= 1.0

    def test_normalized_auc_perfect(self):
        curve = [(0.0, 10.0), (1.0, 10.0)]
        assert normalized_auc(curve, reference=10.0) == pytest.approx(1.0)

    def test_normalized_auc_half(self):
        # value 0 for first half, 10 for second half => AUC = 0.5
        curve = [(0.0, 0.0), (1.0, 10.0), (2.0, 10.0)]
        assert normalized_auc(curve, reference=10.0) == pytest.approx(0.5)

    def test_auc_horizon_beyond_curve(self):
        curve = [(0.0, 10.0), (1.0, 10.0)]
        assert normalized_auc(curve, reference=10.0, horizon=4.0) == pytest.approx(1.0)

    def test_time_to_value(self):
        curve = [(0.0, 1.0), (1.0, 5.0), (2.0, 7.0)]
        assert time_to_value(curve, 5.0) == 1.0
        assert time_to_value(curve, 0.5) == 0.0
        assert time_to_value(curve, 100.0) is None

    def test_faster_variant_higher_auc(self):
        """A sanity check tying the tool to the experiment design: CTS2's
        AUC is computed per-run, so comparing two runs is meaningful."""
        from repro.instances import correlated_instance

        inst = correlated_instance(5, 40, rng=9)
        fast = solve_seq(inst, rng_seed=0, max_evaluations=30_000)
        curve = anytime_curve(fast)
        auc = normalized_auc(curve, reference=fast.best.value)
        assert 0.0 < auc <= 1.0
