"""Degraded-mode master chaos suite (ISSUE: fault-tolerance tentpole).

End-to-end scenarios driving :class:`MasterProcess` over a
:class:`SerialBackend` with a seeded :class:`FaultPlan`: slave crashes,
lost and duplicated reports, delayed (stale) deliveries and stragglers.
Every scenario asserts the hardened loop's contract:

* the run terminates (no deadlock) even when all but one slave dies,
* the incumbent is feasible, monotone, and at least the best surviving
  slave report,
* duplicated and stale reports are never double-counted,
* the exponential backoff schedule follows ``min(2**(f-1), cap)``,
* the virtual clock stays consistent (round times sum to the makespan),
* an empty fault plan is bit-identical to the plain, unhardened path,
* the same fault seed replays the same degraded trajectory.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.serialize import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.core import Budget
from repro.farm import ALPHA_FARM
from repro.master import MasterConfig, MasterProcess
from repro.parallel import FaultEvent, FaultKind, FaultPlan, SerialBackend

pytestmark = pytest.mark.chaos

#: CI sweeps REPRO_CHAOS_SEED over a fixed matrix; local runs use 101.
ENV_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "101"))
SEEDS = sorted({ENV_SEED, 101, 202})

N_SLAVES = 4
N_ROUNDS = 5


def run_master(
    instance,
    *,
    plan=None,
    n_slaves=N_SLAVES,
    n_rounds=N_ROUNDS,
    rng_seed=7,
    evals=6_000,
    farm=None,
    variant="CTS2",
    max_backoff=8,
    capture=None,
):
    """One hardened master run; ``capture`` collects each round's raw reports."""
    backend = SerialBackend(n_slaves, fault_plan=plan)
    config = MasterConfig(
        n_slaves=n_slaves,
        n_rounds=n_rounds,
        variant=variant,
        max_backoff_rounds=max_backoff,
    )
    if capture is not None:
        original = backend.run_round

        def spy(tasks):
            reports = original(tasks)
            capture.append(list(reports))
            return reports

        backend.run_round = spy  # type: ignore[method-assign]
    master = MasterProcess(instance, config, backend, rng_seed=rng_seed, farm=farm)
    return master.run(budget_per_slave=Budget(max_evaluations=evals))


def crash(round_index, slave_id):
    return FaultEvent(round_index, slave_id, FaultKind.CRASH)


def assert_monotone(history):
    assert all(b >= a for a, b in zip(history, history[1:]))


# --------------------------------------------------------------------------- #
class TestNoFaultBitIdentity:
    def test_empty_plan_matches_plain_run(self, small_instance):
        plain = run_master(small_instance, plan=None)
        hardened = run_master(small_instance, plan=FaultPlan.none())
        assert hardened.value_history == plain.value_history
        assert hardened.best.value == plain.best.value
        assert hardened.total_evaluations == plain.total_evaluations
        assert hardened.bytes_sent == plain.bytes_sent
        assert hardened.fault_summary == {} == plain.fault_summary

    def test_never_firing_plan_matches_plain_run(self, small_instance):
        # A non-empty plan whose events all address rounds that never happen
        # exercises serve_batch's per-entry faulted path — and must still
        # change nothing.
        plan = FaultPlan(events=(crash(999, 0), FaultEvent(998, 1, FaultKind.DROP_REPORT)))
        plain = run_master(small_instance, plan=None)
        hardened = run_master(small_instance, plan=plan)
        assert hardened.value_history == plain.value_history
        assert hardened.total_evaluations == plain.total_evaluations
        assert hardened.fault_summary == {}

    def test_no_fault_stats_are_clean(self, small_instance):
        result = run_master(small_instance, plan=FaultPlan.none())
        for stats in result.rounds:
            assert stats.failed_slaves == 0
            assert stats.backoff_slaves == 0
            assert stats.duplicate_reports == 0
            assert stats.stale_reports == 0
        assert result.degraded_rounds == 0


class TestCrashScenarios:
    def test_single_crash_terminates_and_is_recorded(self, small_instance):
        result = run_master(small_instance, plan=FaultPlan(events=(crash(0, 1),)))
        assert len(result.rounds) == N_ROUNDS
        assert result.rounds[0].failed_slaves == 1
        assert result.fault_summary["failed"] == 1
        assert result.degraded_rounds >= 1
        assert_monotone(result.value_history)

    def test_all_but_one_slave_dies_no_deadlock(self, small_instance):
        # P - 1 crashes in round 0: the master must keep going with the one
        # survivor and still return a feasible incumbent.
        plan = FaultPlan(events=tuple(crash(0, k) for k in range(1, N_SLAVES)))
        capture = []
        result = run_master(small_instance, plan=plan, capture=capture)
        assert len(result.rounds) == N_ROUNDS
        assert result.rounds[0].failed_slaves == N_SLAVES - 1
        assert result.best.is_feasible(small_instance)
        # Round 0's gather saw only the survivor's report.
        assert [r.slave_id for r in capture[0]] == [0]
        assert_monotone(result.value_history)

    def test_incumbent_at_least_best_surviving_report(self, small_instance):
        plan = FaultPlan(events=(crash(0, 2), crash(1, 0), crash(3, 3)))
        capture = []
        result = run_master(small_instance, plan=plan, capture=capture)
        surviving_best = max(r.best.value for rnd in capture for r in rnd)
        assert result.best.value >= surviving_best
        assert result.best.is_feasible(small_instance)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heavy_chaos_monotone_and_terminates(self, small_instance, seed):
        plan = FaultPlan.from_seed(
            seed,
            n_slaves=N_SLAVES,
            n_rounds=N_ROUNDS,
            crash_rate=0.2,
            report_drop_rate=0.15,
            duplicate_rate=0.15,
            delay_rate=0.1,
            straggle_rate=0.1,
        )
        result = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        assert len(result.rounds) == N_ROUNDS
        assert result.best.is_feasible(small_instance)
        assert_monotone(result.value_history)


class TestBackoffSchedule:
    def test_exponential_backoff_after_repeated_crashes(self, small_instance):
        # Slave 0 crashes the first two times it is tasked (rounds 0 and 1):
        # fail@0 -> sit out nothing (backoff 1 lands on round 1's retask),
        # fail@1 -> backoff 2 -> idle round 2, retasked (and healthy) round 3.
        plan = FaultPlan(events=(crash(0, 0), crash(1, 0)))
        result = run_master(small_instance, plan=plan)
        failed = [s.failed_slaves for s in result.rounds]
        backoff = [s.backoff_slaves for s in result.rounds]
        assert failed == [1, 1, 0, 0, 0]
        assert backoff == [0, 0, 1, 0, 0]

    def test_backoff_is_capped(self, small_instance):
        # Crash slave 0 at every tasked round with cap 2: tasked rounds are
        # 0, 1, 3, 5, 7 (backoff 1, 2, then capped at 2 forever).
        plan = FaultPlan(events=tuple(crash(r, 0) for r in range(8)))
        result = run_master(
            small_instance, plan=plan, n_rounds=8, max_backoff=2, evals=8_000
        )
        failed_rounds = [s.round_index for s in result.rounds if s.failed_slaves]
        backoff_rounds = [s.round_index for s in result.rounds if s.backoff_slaves]
        assert failed_rounds == [0, 1, 3, 5, 7]
        assert backoff_rounds == [2, 4, 6]


class TestBackoffOrigin:
    """Each pipeline counts the backoff from its own round (DESIGN.md §5.9).

    Slave 0's report is lost in rounds 1 and 4, two separate first
    failures, so each backoff is ``2**0 = 1``.
    """

    PLAN = FaultPlan(
        events=(
            FaultEvent(1, 0, FaultKind.DROP_REPORT),
            FaultEvent(4, 0, FaultKind.DROP_REPORT),
        )
    )

    def run(self, instance, pipeline):
        config = MasterConfig(n_slaves=3, n_rounds=8, pipeline=pipeline)
        backend = SerialBackend(3, fault_plan=self.PLAN)
        master = MasterProcess(instance, config, backend, rng_seed=7)
        return master.run(budget_per_slave=Budget(max_evaluations=8_000))

    def test_sync_counts_from_the_failed_round(self, small_instance):
        # Retasked in round b + 1: a first failure costs no round.
        result = self.run(small_instance, "sync")
        assert [s.failed_slaves for s in result.rounds] == [0, 1, 0, 0, 1, 0, 0, 0]
        assert [s.backoff_slaves for s in result.rounds] == [0] * 8

    def test_async_counts_from_the_dispatch_frontier(self, small_instance):
        # The loss of burst b shows when burst b + 1 reports.  Burst b + 2
        # is then the next undispatched one, and the one-burst backoff
        # skips it.
        result = self.run(small_instance, "async")
        assert [s.failed_slaves for s in result.rounds] == [0, 1, 0, 0, 1, 0, 0, 0]
        assert [s.backoff_slaves for s in result.rounds] == [0, 0, 0, 1, 0, 0, 1, 0]


class TestDuplicateAndStaleReports:
    def test_duplicate_report_not_double_counted(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DUPLICATE_REPORT),))
        capture = []
        result = run_master(small_instance, plan=plan, capture=capture)
        clean = run_master(small_instance, plan=None)
        # Round 0's raw gather carried the extra copy...
        assert len(capture[0]) == N_SLAVES + 1
        assert result.rounds[0].duplicate_reports == 1
        # ...but the deduped trajectory is identical to the clean run.
        assert result.value_history == clean.value_history
        assert result.total_evaluations == clean.total_evaluations
        assert result.fault_summary["duplicates"] == 1

    def test_delayed_report_is_stale_next_round(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.DELAY_REPORT),))
        result = run_master(small_instance, plan=plan)
        # Round 0: slave 1's report never arrives -> failure + backoff.
        assert result.rounds[0].failed_slaves == 1
        # Round 1: the flushed old report surfaces, carries round 0 ids, and
        # is discarded as stale; the first failure's backoff of one round
        # means slave 1 is already retasked (and healthy) this round.
        assert result.rounds[1].stale_reports == 1
        assert result.rounds[1].backoff_slaves == 0
        assert result.rounds[1].failed_slaves == 0
        assert result.fault_summary["stale"] == 1
        assert_monotone(result.value_history)


class TestVirtualClockConsistency:
    def test_straggler_slows_virtual_time_only(self, small_instance):
        plan = FaultPlan(events=(FaultEvent(0, 1, FaultKind.STRAGGLE, factor=4.0),))
        clean = run_master(small_instance, plan=None, farm=ALPHA_FARM)
        slow = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        # The straggler changes the clock, never the search trajectory.
        assert slow.value_history == clean.value_history
        assert slow.virtual_seconds > clean.virtual_seconds

    @pytest.mark.parametrize(
        "events",
        [
            (),
            (crash(0, 1), crash(2, 3)),
            (FaultEvent(1, 0, FaultKind.STRAGGLE, factor=8.0),),
            (FaultEvent(0, 2, FaultKind.DELAY_REPORT),),
        ],
        ids=["clean", "crashes", "straggler", "delay"],
    )
    def test_round_times_sum_to_makespan(self, small_instance, events):
        plan = FaultPlan(events=events)
        result = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        total = sum(s.round_virtual_seconds for s in result.rounds)
        assert total == pytest.approx(result.virtual_seconds, rel=1e-9)

    def test_crashed_slave_charged_no_compute(self, small_instance):
        plan = FaultPlan(events=tuple(crash(0, k) for k in range(1, N_SLAVES)))
        result = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        # Round 0 only charged compute for the single survivor — and the
        # id-keyed ledger says *which* slave that was, not just how many.
        assert set(result.rounds[0].slave_virtual_seconds) == {0}


class TestDeterministicReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_fault_seed_same_trajectory(self, small_instance, seed):
        def plan():
            return FaultPlan.from_seed(
                seed,
                n_slaves=N_SLAVES,
                n_rounds=N_ROUNDS,
                crash_rate=0.2,
                task_drop_rate=0.1,
                report_drop_rate=0.1,
                duplicate_rate=0.1,
                delay_rate=0.1,
                straggle_rate=0.1,
            )

        a = run_master(small_instance, plan=plan(), farm=ALPHA_FARM)
        b = run_master(small_instance, plan=plan(), farm=ALPHA_FARM)
        assert a.value_history == b.value_history
        assert a.best.value == b.best.value
        assert a.virtual_seconds == b.virtual_seconds
        assert a.fault_summary == b.fault_summary
        assert [
            (s.failed_slaves, s.backoff_slaves, s.duplicate_reports, s.stale_reports)
            for s in a.rounds
        ] == [
            (s.failed_slaves, s.backoff_slaves, s.duplicate_reports, s.stale_reports)
            for s in b.rounds
        ]

    def test_plan_fingerprint_is_stable(self):
        kwargs = dict(n_slaves=4, n_rounds=6, crash_rate=0.3, delay_rate=0.2)
        a = FaultPlan.from_seed(ENV_SEED, **kwargs)
        b = FaultPlan.from_seed(ENV_SEED, **kwargs)
        assert a.fingerprint() == b.fingerprint()


class TestDegradedVariants:
    def test_its_mode_survives_crashes(self, small_instance):
        # Independent threads (no ISP/SGP) must also tolerate dead slaves.
        plan = FaultPlan(events=(crash(0, 0), crash(1, 2)))
        result = run_master(small_instance, plan=plan, variant="ITS")
        assert len(result.rounds) == N_ROUNDS
        assert result.best.is_feasible(small_instance)
        assert_monotone(result.value_history)

    def test_sgp_marks_missing_slaves_absent(self, small_instance):
        plan = FaultPlan(events=(crash(0, 1),))
        result = run_master(small_instance, plan=plan)
        assert result.rounds[0].sgp_actions.get("absent", 0) == 1


class TestDegradedResultSerialization:
    def test_fault_fields_round_trip(self, small_instance):
        plan = FaultPlan(
            events=(crash(0, 1), FaultEvent(1, 2, FaultKind.DUPLICATE_REPORT))
        )
        result = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        back = result_from_dict(result_to_dict(result))
        assert back.fault_summary == result.fault_summary
        assert [s.failed_slaves for s in back.rounds] == [
            s.failed_slaves for s in result.rounds
        ]
        assert [s.stale_reports for s in back.rounds] == [
            s.stale_reports for s in result.rounds
        ]
        assert back.degraded_rounds == result.degraded_rounds

    def test_chaos_run_save_load_is_fixed_point(self, small_instance, tmp_path):
        # Acceptance criterion: for a chaos-seeded CTS2 run with the farm
        # model attached, save → load → result_to_dict reproduces the saved
        # dict byte-identically — the serializer drops nothing it measured.
        plan = FaultPlan.from_seed(
            ENV_SEED,
            n_slaves=N_SLAVES,
            n_rounds=N_ROUNDS,
            crash_rate=0.2,
            report_drop_rate=0.15,
            duplicate_rate=0.15,
            delay_rate=0.1,
            straggle_rate=0.1,
        )
        result = run_master(small_instance, plan=plan, farm=ALPHA_FARM)
        # The fields v1 used to drop are actually populated in this run.
        assert any(s.phase_wall_seconds for s in result.rounds)
        assert any(s.slave_virtual_seconds for s in result.rounds)
        path = tmp_path / "chaos.json"
        save_result(result, path)
        loaded = load_result(path)
        saved_dict = json.loads(path.read_text(encoding="utf-8"))
        assert result_to_dict(loaded) == saved_dict
        assert json.dumps(result_to_dict(loaded), indent=2) == path.read_text(
            encoding="utf-8"
        )
        # Measured accounting survives with int slave-id keys.
        for orig, back in zip(result.rounds, loaded.rounds):
            assert back.slave_virtual_seconds == orig.slave_virtual_seconds
            assert back.phase_wall_seconds == orig.phase_wall_seconds
            assert back.gather_idle_s == orig.gather_idle_s
        assert loaded.trace.wall_phases == result.trace.wall_phases
