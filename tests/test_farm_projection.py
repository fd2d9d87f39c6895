"""The farm model as a projection of a sync run's round ledger.

A sync master keeps no clock: its rounds hold the charge facts and
:func:`repro.farm.project` derives every virtual time the first time one is
read.  These tests pin that the projection is lazy and computed once, that
pickling an unread result loses nothing, and — over seeded fault plans —
that the projected schedule is a consistent one.
"""

from __future__ import annotations

import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import summarize_result
from repro.analysis.serialize import result_from_dict, result_to_dict
from repro.core import Budget
from repro.farm import ALPHA_FARM, EventKind, projection
from repro.instances import correlated_instance
from repro.master import MasterConfig, MasterProcess
from repro.master.result import RoundStats
from repro.obs.recorder import RunRecorder
from repro.parallel import FaultKind, FaultPlan, MultiprocessingBackend, SerialBackend
from repro.variants import solve_cts2


def _solve(instance, *, n_rounds=20, plan=None, recorder=None, n_slaves=4, evals=20_000):
    backend = SerialBackend(n_slaves, fault_plan=plan)
    try:
        master = MasterProcess(
            instance,
            MasterConfig(n_slaves=n_slaves, n_rounds=n_rounds, variant="CTS2"),
            backend,
            rng_seed=3,
            farm=ALPHA_FARM,
            recorder=recorder,
        )
        return master.run(budget_per_slave=Budget(max_evaluations=evals))
    finally:
        backend.shutdown()


def _trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for e in trace.events:
        digest.update(
            f"{e.proc}|{e.kind.name}|{e.t_start.hex()}|{e.t_end.hex()}|{e.label}\n".encode()
        )
    return digest.hexdigest()


def _virtual_times(result) -> tuple:
    """Every virtual time of a run, floats as exact bits."""
    return (
        result.virtual_seconds.hex(),
        _trace_digest(result.trace),
        [
            (
                s.round_virtual_seconds.hex(),
                s.communication_seconds.hex(),
                {k: v.hex() for k, v in s.slave_virtual_seconds.items()},
            )
            for s in result.rounds
        ],
    )


@pytest.fixture
def counted(monkeypatch):
    """The number of :func:`repro.farm.project` calls so far (a list of 1s)."""
    calls: list[int] = []
    real = projection.project

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(projection, "project", counting)
    return calls


class TestLazyProjection:
    def test_run_projects_nothing_until_a_virtual_time_is_read(
        self, small_instance, counted
    ):
        result = _solve(small_instance)
        assert result.n_rounds == 20
        assert counted == []
        assert result.virtual_seconds > 0.0
        assert len(counted) == 1
        assert len(result.trace.events) > 0
        assert result.rounds[3].round_virtual_seconds > 0.0
        assert len(counted) == 1

    def test_any_first_read_projects_the_same_values(self, small_instance, counted):
        by_run = _solve(small_instance)
        by_round = _solve(small_instance)
        assert by_round.rounds[3].slave_virtual_seconds
        assert len(counted) == 1
        assert _virtual_times(by_round) == _virtual_times(by_run)
        assert len(counted) == 2

    def test_an_enabled_recorder_projects_once_for_run_end(
        self, small_instance, counted
    ):
        events: list[dict] = []
        recorder = RunRecorder()
        recorder.subscribe(events.append)
        result = _solve(small_instance, n_rounds=5, recorder=recorder)
        assert len(counted) == 1
        (end,) = [e for e in events if e["event"] == "run_end"]
        assert end["virtual_seconds"] == result.virtual_seconds > 0.0
        assert len(counted) == 1

    def test_an_unread_pickled_result_reads_the_same_values(self, small_instance):
        result = _solve(small_instance)
        clone = pickle.loads(pickle.dumps(result))
        read = _virtual_times(result)
        assert pickle.loads(pickle.dumps(result)).virtual_seconds == result.virtual_seconds
        assert _virtual_times(clone) == read
        assert clone.trace.wall_phases == result.trace.wall_phases

    def test_the_async_pipeline_keeps_explicit_zero_times(self, small_instance, counted):
        backend = SerialBackend(4)
        try:
            result = MasterProcess(
                small_instance,
                MasterConfig(n_slaves=4, n_rounds=4, pipeline="async"),
                backend,
                rng_seed=3,
            ).run(budget_per_slave=Budget(max_evaluations=4_000))
        finally:
            backend.shutdown()
        assert all(s.round_virtual_seconds == 0.0 for s in result.rounds)
        assert counted == []
        assert result.virtual_seconds == 0.0
        assert result.trace is None

    def test_a_round_outside_a_run_cannot_project(self):
        orphan = RoundStats(round_index=0, best_value=1.0, evaluations=0, improved_slaves=0)
        with pytest.raises(LookupError):
            orphan.round_virtual_seconds


def test_the_master_wait_is_kept_once(small_instance):
    """A round's master wait lives in its RoundStats; the trace's wall phases,
    the run summary and a saved record all read it from there."""
    with MultiprocessingBackend(2, transport="pipe") as backend:
        result = solve_cts2(
            small_instance, n_slaves=2, n_rounds=3, rng_seed=3,
            max_evaluations=3_000, backend=backend,
        )
    waits = [s.master_wait_s for s in result.rounds]
    assert sum(waits) > 0.0
    assert [rec["master_wait_s"] for rec in result.trace.wall_phases] == waits
    summary = summarize_result(result)
    assert summary["phase_totals"]["master_wait"] == sum(waits)
    loaded = result_from_dict(result_to_dict(result))
    assert [s.master_wait_s for s in loaded.rounds] == waits
    assert summarize_result(loaded) == summary


# ---------------------------------------------------------------------- #
# The projected schedule under faults
# ---------------------------------------------------------------------- #
N_SLAVES, N_ROUNDS = 4, 5
rates = st.sampled_from([0.0, 0.1, 0.25])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    crash=rates,
    drop=rates,
    duplicate=rates,
    stale=rates,
    straggle=rates,
)
def test_projection_is_a_consistent_schedule_under_faults(
    seed, crash, drop, duplicate, stale, straggle
):
    instance = correlated_instance(5, 30, rng=42, name="small-5x30")
    plan = FaultPlan.from_seed(
        seed,
        n_slaves=N_SLAVES,
        n_rounds=N_ROUNDS,
        crash_rate=crash,
        task_drop_rate=drop,
        report_drop_rate=drop,
        duplicate_rate=duplicate,
        delay_rate=stale,
        straggle_rate=straggle,
    )
    result = _solve(instance, n_rounds=N_ROUNDS, plan=plan, evals=6_000)
    m = instance.n_constraints
    events = result.trace.events

    # Per rank clock, events never overlap and never run backwards.  Every
    # SEND occupies the master's link (a report is filed under its sender
    # but charged to the master's clock).  A barrier wait starts at
    # ``barrier - idle``, which may round an ulp below the slave's clock.
    ends: dict[int, float] = {}
    for e in events:
        rank = N_SLAVES if e.kind is EventKind.SEND else e.proc
        assert e.t_end >= e.t_start
        prev = ends.get(rank, 0.0)
        assert e.t_start >= prev - 4 * math.ulp(prev), (rank, e, prev)
        ends[rank] = e.t_end
    assert result.virtual_seconds == max([0.0, *ends.values()])

    # Each COMPUTE event lasts its report's evaluations on its processor,
    # times the straggle factor the plan put on it.
    computes = [e for e in events if e.kind is EventKind.COMPUTE]
    expected = [
        (k, s.round_index, s.report_evaluations[k])
        for s in result.rounds
        for k in sorted(s.report_evaluations)
    ]
    assert len(computes) == len(expected)
    for e, (k, b, evals) in zip(computes, expected):
        dt = ALPHA_FARM.compute_seconds_on(k, evals, m) * plan.straggle_factor(b, k)
        assert e.proc == k
        assert e.t_end == e.t_start + dt
        assert result.rounds[b].slave_virtual_seconds[k] == dt
    for s in result.rounds:
        assert sum(s.report_evaluations.values()) == s.evaluations

    # A crashed slave is charged only the bytes that crossed the links:
    # its task, but no compute, and no report bytes unless a report it
    # delayed in an earlier round arrived.  A dropped task is charged
    # nothing at all.
    for fault in plan.events:
        if fault.round_index >= result.n_rounds:
            continue
        s = result.rounds[fault.round_index]
        k = fault.slave_id
        if fault.kind is FaultKind.CRASH:
            assert k not in s.slave_virtual_seconds
            assert k not in s.report_nbytes or any(
                f.kind is FaultKind.DELAY_REPORT
                and f.slave_id == k
                and f.round_index < fault.round_index
                for f in plan.events
            )
        elif fault.kind is FaultKind.DROP_TASK:
            assert k not in s.task_nbytes
            assert k not in s.slave_virtual_seconds
    for s in result.rounds:
        comm = sum(ALPHA_FARM.transfer_seconds(b) for b in s.task_nbytes.values())
        comm += sum(ALPHA_FARM.transfer_seconds(b) for b in s.report_nbytes.values())
        assert s.communication_seconds == pytest.approx(comm, rel=1e-12)

    # The record format carries the projected times bit for bit.
    loaded = result_from_dict(result_to_dict(result))
    assert loaded.virtual_seconds.hex() == result.virtual_seconds.hex()
    assert _trace_digest(loaded.trace) == _trace_digest(result.trace)
    assert _virtual_times(loaded) == _virtual_times(result)
    assert loaded.trace.wall_phases == result.trace.wall_phases
