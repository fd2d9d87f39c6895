"""Conformance of :class:`MasterProcess` to the paper's Figure 2.

The master must: distribute the problem data once, then per search
iteration run SGP and ISP, send tasks, and receive reports — in that order.
"""

from __future__ import annotations

from repro.core import Budget
from repro.master import MasterConfig, MasterProcess
from repro.parallel import SerialBackend


def run_master(instance, *, variant="CTS2", rounds=3, slaves=3):
    config = MasterConfig(n_slaves=slaves, n_rounds=rounds, variant=variant)
    backend = SerialBackend(slaves)
    master = MasterProcess(instance, config, backend, rng_seed=0)
    trace = master.enable_phase_trace()
    result = master.run(budget_per_slave=Budget(max_evaluations=9_000))
    return trace, result


class TestPhaseOrder:
    def test_problem_distributed_first(self, small_instance):
        trace, _ = run_master(small_instance)
        assert trace[0] == "distribute_problem"
        assert trace.count("distribute_problem") == 1

    def test_rounds_follow_send_receive_sgp_isp_cycle(self, small_instance):
        trace, _ = run_master(small_instance, rounds=3)
        body = trace[1:]
        # Per round: send_tasks, receive_reports, sgp, isp
        expected_round = ["send_tasks", "receive_reports", "sgp", "isp"]
        assert body == expected_round * 3

    def test_its_skips_sgp_and_isp(self, small_instance):
        trace, _ = run_master(small_instance, variant="ITS")
        assert "sgp" not in trace
        assert "isp" not in trace
        assert trace[1:] == ["send_tasks", "receive_reports"] * 3

    def test_cts1_runs_isp_only(self, small_instance):
        trace, _ = run_master(small_instance, variant="CTS1")
        assert "sgp" not in trace
        assert trace.count("isp") == 3

    def test_receive_always_follows_send(self, small_instance):
        trace, _ = run_master(small_instance)
        sends = [i for i, t in enumerate(trace) if t == "send_tasks"]
        recvs = [i for i, t in enumerate(trace) if t == "receive_reports"]
        assert len(sends) == len(recvs)
        assert all(r == s + 1 for s, r in zip(sends, recvs))


class TestMasterResults:
    def test_rounds_recorded(self, small_instance):
        _, result = run_master(small_instance, rounds=4)
        assert result.n_rounds == 4
        assert [r.round_index for r in result.rounds] == [0, 1, 2, 3]

    def test_global_best_monotone_across_rounds(self, small_instance):
        _, result = run_master(small_instance, rounds=4)
        values = [r.best_value for r in result.rounds]
        assert values == sorted(values)

    def test_best_is_feasible(self, small_instance):
        _, result = run_master(small_instance)
        assert result.best.is_feasible(small_instance)

    def test_variant_name_derivation(self, small_instance):
        _, r_cts2 = run_master(small_instance, variant="CTS2")
        _, r_cts1 = run_master(small_instance, variant="CTS1")
        _, r_its = run_master(small_instance, variant="ITS")
        assert (r_cts2.variant, r_cts1.variant, r_its.variant) == (
            "CTS2",
            "CTS1",
            "ITS",
        )
