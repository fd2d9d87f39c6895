"""Unit tests for the farm machine model, virtual clock, and traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.farm import (
    ALPHA_FARM,
    CrossbarModel,
    EventKind,
    FarmEvent,
    FarmModel,
    FarmTrace,
    ProcessorModel,
    VirtualClock,
)
from repro.farm.machine import EVAL_BASE_OPS, EVAL_OPS_PER_CONSTRAINT


class TestProcessorModel:
    def test_compute_seconds_formula(self):
        proc = ProcessorModel(mips=500.0)
        secs = proc.compute_seconds(1000, n_constraints=10)
        expected = 1000 * (EVAL_BASE_OPS + 10 * EVAL_OPS_PER_CONSTRAINT) / 500e6
        assert secs == pytest.approx(expected)

    def test_inverse_roundtrip(self):
        proc = ProcessorModel()
        evals = proc.evaluations_for_seconds(2.0, n_constraints=5)
        assert proc.compute_seconds(evals, 5) <= 2.0
        assert proc.compute_seconds(evals + 1, 5) > 2.0

    def test_more_constraints_cost_more(self):
        proc = ProcessorModel()
        assert proc.compute_seconds(100, 25) > proc.compute_seconds(100, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorModel(mips=0)
        with pytest.raises(ValueError):
            ProcessorModel().compute_seconds(-1, 2)


class TestCrossbarModel:
    def test_transfer_time_grows_with_size(self):
        net = CrossbarModel()
        assert net.transfer_seconds(10_000) > net.transfer_seconds(100)

    def test_latency_floor(self):
        net = CrossbarModel(latency_seconds=1e-3)
        assert net.transfer_seconds(0) >= 1e-3

    def test_bandwidth_formula(self):
        net = CrossbarModel(
            link_bandwidth_mbps=200.0, latency_seconds=0.0, overhead_bytes=0
        )
        # 200 Mb/s = 25 MB/s: 25 MB takes 1 second
        assert net.transfer_seconds(25_000_000) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossbarModel(link_bandwidth_mbps=0)
        with pytest.raises(ValueError):
            CrossbarModel().transfer_seconds(-1)


class TestFarmModel:
    def test_alpha_farm_defaults(self):
        assert ALPHA_FARM.n_processors == 16
        assert ALPHA_FARM.processor.mips == 500.0
        assert ALPHA_FARM.network.link_bandwidth_mbps == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FarmModel(n_processors=0)


class TestVirtualClock:
    def test_advance_and_now(self):
        clock = VirtualClock(3)
        clock.advance(0, 1.0)
        clock.advance(1, 2.5)
        assert clock.now == 2.5
        assert clock.time_of(0) == 1.0

    def test_barrier_returns_idle(self):
        clock = VirtualClock(3)
        clock.advance(0, 1.0)
        clock.advance(1, 3.0)
        idle = clock.barrier()
        np.testing.assert_allclose(idle, [2.0, 0.0, 3.0])
        np.testing.assert_allclose(clock.times, [3.0, 3.0, 3.0])

    def test_wait_until(self):
        clock = VirtualClock(2)
        clock.advance(0, 5.0)
        idle = clock.wait_until(1, 5.0)
        assert idle == 5.0
        # waiting for the past costs nothing
        assert clock.wait_until(0, 1.0) == 0.0
        assert clock.time_of(0) == 5.0

    def test_negative_rejected(self):
        clock = VirtualClock(2)
        with pytest.raises(ValueError):
            clock.advance(0, -1.0)

    def test_monotonicity_property(self):
        """Clocks never go backwards under any operation mix."""
        rng = np.random.default_rng(0)
        clock = VirtualClock(4)
        prev = clock.times
        for _ in range(200):
            op = rng.integers(0, 3)
            if op == 0:
                clock.advance(int(rng.integers(0, 4)), float(rng.random()))
            elif op == 1:
                clock.barrier()
            else:
                clock.wait_until(int(rng.integers(0, 4)), float(rng.random() * 5))
            now = clock.times
            assert np.all(now >= prev - 1e-12)
            prev = now


class TestTrace:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FarmEvent(0, EventKind.COMPUTE, 2.0, 1.0)

    def test_aggregations(self):
        trace = FarmTrace()
        trace.record(0, EventKind.COMPUTE, 0.0, 2.0)
        trace.record(1, EventKind.COMPUTE, 0.0, 1.0)
        trace.record(1, EventKind.BARRIER_WAIT, 1.0, 2.0)
        trace.record(0, EventKind.SEND, 2.0, 2.1)
        assert trace.total_by_kind(EventKind.COMPUTE) == pytest.approx(3.0)
        assert trace.per_proc_by_kind(EventKind.COMPUTE) == {0: 2.0, 1: 1.0}
        assert trace.idle_ratio() == pytest.approx(1.0 / 4.0)
        assert trace.communication_seconds() == pytest.approx(0.1)

    def test_busy_fraction(self):
        trace = FarmTrace()
        trace.record(0, EventKind.COMPUTE, 0.0, 2.0)
        frac = trace.busy_fraction(4.0)
        assert frac == {0: 0.5}
        assert trace.busy_fraction(0.0) == {}

    def test_len(self):
        trace = FarmTrace()
        assert len(trace) == 0
        trace.record(0, EventKind.COMPUTE, 0.0, 1.0)
        assert len(trace) == 1


class TestHeterogeneousFarm:
    def test_speed_factors_scale_compute_time(self):
        farm = FarmModel(n_processors=2, speed_factors=(1.0, 0.5))
        base = farm.compute_seconds_on(0, 1000, 5)
        slow = farm.compute_seconds_on(1, 1000, 5)
        assert slow == pytest.approx(2 * base)

    def test_homogeneous_default(self):
        farm = FarmModel(n_processors=2)
        assert farm.compute_seconds_on(0, 100, 3) == farm.compute_seconds_on(1, 100, 3)
        assert farm.compute_seconds_on(0, 100, 3) == farm.compute_seconds(100, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="speed factors"):
            FarmModel(n_processors=3, speed_factors=(1.0, 0.5))
        with pytest.raises(ValueError, match="positive"):
            FarmModel(n_processors=2, speed_factors=(1.0, 0.0))

    def test_master_charges_heterogeneous_speeds(self, small_instance):
        """On a farm with one slow slave, that slave's compute interval in
        the trace is longer for the same evaluation budget."""
        from repro.core import Budget
        from repro.master import MasterConfig, MasterProcess
        from repro.parallel import SerialBackend

        farm = FarmModel(n_processors=3, speed_factors=(1.0, 0.25, 1.0))
        config = MasterConfig(n_slaves=2, n_rounds=1)
        backend = SerialBackend(2)
        master = MasterProcess(
            small_instance, config, backend, rng_seed=0, farm=farm
        )
        result = master.run(budget_per_slave=Budget(max_evaluations=5_000))
        per_proc = result.trace.per_proc_by_kind(EventKind.COMPUTE)
        # slave 1 runs at quarter speed: roughly 4x the compute time
        assert per_proc[1] > 2.0 * per_proc[0]
