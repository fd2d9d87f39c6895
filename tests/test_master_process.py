"""Deeper behaviour tests for :class:`MasterProcess` and its config."""

from __future__ import annotations

import pytest

from repro.core import Budget, Strategy
from repro.farm import ALPHA_FARM
from repro.master import MasterConfig, MasterProcess
from repro.parallel import SerialBackend


def run(instance, config, budget=None, seed=0, farm=ALPHA_FARM):
    backend = SerialBackend(config.n_slaves)
    master = MasterProcess(instance, config, backend, rng_seed=seed, farm=farm)
    return master.run(budget_per_slave=budget)


class TestConfigValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            MasterConfig(n_slaves=0)
        with pytest.raises(ValueError):
            MasterConfig(n_rounds=0)
        with pytest.raises(ValueError):
            MasterConfig(elite_capacity=0)

    def test_initial_strategies_length_checked(self):
        with pytest.raises(ValueError, match="one entry per slave"):
            MasterConfig(n_slaves=3, initial_strategies=(Strategy(10, 2, 20),))

    def test_backend_slave_count_checked(self, small_instance):
        config = MasterConfig(n_slaves=3, n_rounds=1)
        backend = SerialBackend(2)
        with pytest.raises(ValueError, match="backend has 2 slaves"):
            MasterProcess(small_instance, config, backend)


class TestInitialStrategies:
    def test_explicit_strategies_used_in_round_zero(self, small_instance):
        marker = Strategy(lt_length=33, nb_drop=3, nb_local=44)
        config = MasterConfig(
            n_slaves=2,
            n_rounds=1,
            variant="CTS1",
            initial_strategies=(marker, marker),
        )
        backend = SerialBackend(2)
        seen: list[Strategy] = []
        original = backend.run_round

        def spy(tasks):
            seen.extend(t.strategy for t in tasks)
            return original(tasks)

        backend.run_round = spy  # type: ignore[method-assign]
        master = MasterProcess(small_instance, config, backend, rng_seed=0)
        master.run(budget_per_slave=Budget(max_evaluations=2_000))
        assert seen == [marker, marker]


class TestTargetEarlyExit:
    def test_stops_after_target_round(self, small_instance):
        from repro.exact import branch_and_bound

        opt = branch_and_bound(small_instance).value
        config = MasterConfig(n_slaves=4, n_rounds=20)
        result = run(
            small_instance,
            config,
            budget=Budget(max_evaluations=200_000, target_value=opt),
        )
        assert result.best.value >= opt
        assert result.n_rounds < 20


class TestDynamicAlpha:
    def test_static_alpha_keeps_config_value(self, small_instance):
        config = MasterConfig(n_slaves=3, n_rounds=4, dynamic_alpha=False)
        backend = SerialBackend(3)
        master = MasterProcess(small_instance, config, backend, rng_seed=0)
        master.run(budget_per_slave=Budget(max_evaluations=8_000))
        # Controller untouched when dynamic_alpha is off.
        assert master.alpha_controller.alpha == config.isp.alpha

    def test_dynamic_alpha_moves(self, small_instance):
        config = MasterConfig(n_slaves=3, n_rounds=6, dynamic_alpha=True)
        backend = SerialBackend(3)
        master = MasterProcess(small_instance, config, backend, rng_seed=0)
        master.run(budget_per_slave=Budget(max_evaluations=12_000))
        assert master.alpha_controller.alpha != config.isp.alpha


class TestFarmAccounting:
    def test_no_farm_means_zero_virtual_time(self, small_instance):
        config = MasterConfig(n_slaves=2, n_rounds=2)
        result = run(small_instance, config, budget=Budget(max_evaluations=4_000), farm=None)
        assert result.virtual_seconds == 0.0
        assert result.trace is None

    def test_round_times_sum_to_makespan(self, small_instance):
        config = MasterConfig(n_slaves=3, n_rounds=3)
        result = run(small_instance, config, budget=Budget(max_evaluations=9_000))
        total = sum(r.round_virtual_seconds for r in result.rounds)
        assert total == pytest.approx(result.virtual_seconds, rel=1e-9)

    def test_compute_time_matches_evaluations(self, small_instance):
        config = MasterConfig(n_slaves=2, n_rounds=2)
        result = run(small_instance, config, budget=Budget(max_evaluations=6_000))
        from repro.farm import EventKind

        compute = result.trace.total_by_kind(EventKind.COMPUTE)
        expected = ALPHA_FARM.compute_seconds(
            result.total_evaluations, small_instance.n_constraints
        )
        assert compute == pytest.approx(expected, rel=1e-9)

    def test_bytes_counted(self, small_instance):
        config = MasterConfig(n_slaves=2, n_rounds=2)
        result = run(small_instance, config, budget=Budget(max_evaluations=6_000))
        assert result.bytes_sent > 0


class TestEliteCapacity:
    def test_entries_respect_capacity(self, small_instance):
        config = MasterConfig(n_slaves=2, n_rounds=4, elite_capacity=3)
        backend = SerialBackend(2)
        master = MasterProcess(small_instance, config, backend, rng_seed=0)
        # Reach into the loop by running and re-deriving entries is awkward;
        # instead check via the datastruct contract directly.
        from repro.master import SlaveEntry
        from repro.core import Solution
        import numpy as np

        entry = SlaveEntry(
            slave_id=0,
            strategy=Strategy(10, 2, 20),
            init_solution=Solution(np.zeros(4, dtype=np.int8), 0.0),
        )
        sols = [
            Solution(np.eye(4, dtype=np.int8)[k % 4], float(k)) for k in range(4)
        ]
        entry.absorb_elite(sols, capacity=config.elite_capacity)
        assert len(entry.best_solutions) <= 3


class TestPackedMasterPath:
    def test_x_is_unpacked_only_for_what_isp_hands_out(self, monkeypatch):
        """A 10-round GK10 CTS2 run folds, scores and hands out solutions in
        their packed form: an ``x`` vector is unpacked only for a solution
        ISP handed out (the slave reads it to start its search)."""
        from repro.core.solution import Solution, SolutionBlock
        from repro.instances import gk_instance
        from repro.master import SlaveEntry
        from repro.master import master as master_module

        handed: set[bytes] = set()
        absorbed: set[bytes] = set()
        unpacked: list[bytes] = []

        isp = master_module.generate_initial_solutions

        def recording_isp(*args, **kwargs):
            decisions = isp(*args, **kwargs)
            handed.update(d.solution.packed_bytes() for d in decisions)
            return decisions

        absorb = SlaveEntry.absorb_elite

        def recording_absorb(self, elite, capacity):
            for part in elite:
                members = part if isinstance(part, SolutionBlock) else [part]
                absorbed.update(s.packed_bytes() for s in members)
            return absorb(self, elite, capacity)

        x = Solution.x

        def counting_x(self):
            if self._x is None:
                unpacked.append(self.packed_bytes())
            return x.fget(self)

        monkeypatch.setattr(master_module, "generate_initial_solutions", recording_isp)
        monkeypatch.setattr(SlaveEntry, "absorb_elite", recording_absorb)
        monkeypatch.setattr(Solution, "x", property(counting_x))
        result = run(
            gk_instance(10),
            MasterConfig(n_slaves=4, n_rounds=10, variant="CTS2"),
            budget=Budget(max_evaluations=40_000),
            seed=3,
            farm=None,
        )
        assert result.n_rounds == 10
        assert len(absorbed - handed) > 0  # members ISP never handed out exist
        assert set(unpacked) <= handed
