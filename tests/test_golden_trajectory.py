"""Golden-trajectory determinism tests for the kernel-backed hot path.

These fingerprints were recorded from a seed-era run (pre ``EvalKernel``)
on a fixed GK instance with fixed seeds.  The flat-array kernel layer is a
*refactor*, not a rewrite: every candidate scan, tie-break and evaluation
count must be bit-identical to the naive implementation it replaced, so the
SEQ/ITS/CTS2 value histories, the per-move incumbent trace, and the
evaluation ledgers must all reproduce exactly — no ``approx`` anywhere.

If an intentional algorithmic change ever invalidates these values, they
must be re-recorded in the same commit and the change called out loudly;
silent drift here means the farm's virtual-time results are no longer
comparable across PRs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearch, TabuSearchConfig
from repro.instances import gk_suite
from repro.parallel import FaultPlan, SerialBackend
from repro.variants import solve_cts2, solve_its, solve_seq

GOLDEN_SEQ = {
    "best": 22346.0,
    "evaluations": 20028,
    "value_history": [
        17487.0, 18939.0, 18939.0, 19182.0, 19182.0, 19182.0, 19182.0,
        19243.0, 20005.0, 20103.0, 20103.0, 20103.0, 20103.0, 20103.0,
        20103.0, 20103.0, 20103.0, 20103.0, 21858.0, 21858.0, 21858.0,
        21858.0, 21858.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0,
        22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0,
        22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0,
        22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0, 22346.0,
    ],
}

GOLDEN_ITS = {
    "best": 21380.0,
    "evaluations": 27761,
    "value_history": [
        17889.0, 19648.0, 20237.0, 20659.0, 21061.0, 21376.0, 21376.0,
        21376.0, 21380.0, 21380.0, 21380.0,
    ],
}

GOLDEN_CTS2 = {
    "best": 21344.0,
    "evaluations": 27144,
    "value_history": [
        17889.0, 19648.0, 19825.0, 20335.0, 20966.0, 20966.0, 21197.0,
        21197.0, 21197.0, 21247.0, 21344.0,
    ],
}

#: ``GOLDEN_CTS2``'s instance and seed under ``pipeline="async"`` on
#: :class:`SerialBackend` replay (inline execution makes arrival order equal
#: dispatch order, so the bounded-staleness schedule is deterministic).
GOLDEN_CTS2_ASYNC = {
    "best": 21907.0,
    "evaluations": 28105,
    "value_history": [
        17889.0, 19648.0, 19648.0, 20115.0, 20359.0, 20558.0, 20558.0,
        21091.0, 21091.0, 21907.0, 21907.0,
    ],
    "fault_summary": {},
    "isp_rules": [
        {"keep": 2, "pool": 1}, {"keep": 3}, {"keep": 3}, {"keep": 3},
        {"keep": 3}, {"keep": 3}, {"keep": 3}, {"keep": 2, "restart": 1},
        {"keep": 3}, {"keep": 1, "pool": 1, "restart": 1},
    ],
    "sgp_actions": [{"keep": 3}] * 10,
    "pipeline_stats": {
        "bursts_completed": 30.0,
        "burst_failures": 0.0,
        "max_staleness": 1.0,
    },
}

#: The degraded-mode sync master: ``GOLDEN_CTS2``'s run on
#: :class:`SerialBackend` under the seeded chaos plan of
#: :func:`_chaos_plan` (crashes, dropped, duplicated and delayed reports).
GOLDEN_CTS2_CHAOS = {
    "best": 21175.0,
    "evaluations": 17039,
    "value_history": [
        17889.0, 19648.0, 19648.0, 19913.0, 20537.0, 20580.0, 20580.0,
        20580.0, 20580.0, 21175.0, 21175.0,
    ],
    "fault_summary": {"failed": 11, "duplicates": 4, "stale": 4, "degraded_rounds": 9},
    "isp_rules": [
        {"keep": 1, "pool": 2}, {"keep": 3}, {"keep": 3}, {"keep": 1, "pool": 2},
        {"keep": 1, "pool": 2}, {"keep": 2, "restart": 1}, {"keep": 2, "pool": 1},
        {"keep": 1, "pool": 1, "restart": 1}, {"keep": 1, "pool": 1, "restart": 1},
        {"keep": 2, "pool": 1},
    ],
    "sgp_actions": [
        {"keep": 3}, {"absent": 1, "keep": 2}, {"absent": 2, "keep": 1},
        {"absent": 1, "keep": 2}, {"absent": 2, "keep": 1}, {"absent": 1, "keep": 2},
        {"absent": 1, "keep": 2}, {"absent": 2, "keep": 1}, {"absent": 1, "keep": 2},
        {"absent": 1, "keep": 2},
    ],
    #: per round: (failed, backoff, duplicate, stale)
    "faults": [
        (0, 0, 2, 0), (1, 0, 1, 0), (2, 0, 0, 1), (1, 0, 0, 0), (2, 0, 0, 0),
        (0, 1, 0, 2), (1, 0, 0, 0), (2, 0, 0, 0), (1, 0, 1, 1), (1, 0, 0, 0),
    ],
}

#: One raw tabu-search thread, seed 42, Strategy(8, 2, 10), nb_div=2:
#: the full 6008-entry incumbent trace is pinned by SHA-256 (of the
#: float64 byte stream) plus redundant scalar aggregates for diagnosis.
GOLDEN_THREAD = {
    "trace_len": 6008,
    "trace_sum": 136680984.0,
    "best": 22794.0,
    "evaluations": 1284961,
    "moves": 6007,
    "trace_sha256": "10cda7ea00c892fecb9032e68e7c89e46e5f7f316e3959ede66331f16188d261",
    "elite": [22794.0, 22786.0, 22778.0, 22728.0, 22714.0, 22688.0, 22663.0, 22647.0],
}


def _instance():
    return gk_suite()[9]  # GK10, 10*100


class TestVariantTrajectories:
    def test_seq_reproduces_golden_run(self):
        result = solve_seq(_instance(), rng_seed=7, max_evaluations=20_000)
        assert result.best.value == GOLDEN_SEQ["best"]
        assert result.total_evaluations == GOLDEN_SEQ["evaluations"]
        assert [float(v) for v in result.value_history] == GOLDEN_SEQ["value_history"]

    def test_its_reproduces_golden_run(self):
        result = solve_its(_instance(), n_slaves=3, rng_seed=7, max_evaluations=8_000)
        assert result.best.value == GOLDEN_ITS["best"]
        assert result.total_evaluations == GOLDEN_ITS["evaluations"]
        assert [float(v) for v in result.value_history] == GOLDEN_ITS["value_history"]

    def test_cts2_reproduces_golden_run(self):
        result = solve_cts2(_instance(), n_slaves=3, rng_seed=7, max_evaluations=8_000)
        assert result.best.value == GOLDEN_CTS2["best"]
        assert result.total_evaluations == GOLDEN_CTS2["evaluations"]
        assert [float(v) for v in result.value_history] == GOLDEN_CTS2["value_history"]


def _chaos_plan():
    return FaultPlan.from_seed(
        11,
        n_slaves=3,
        n_rounds=10,
        crash_rate=0.1,
        report_drop_rate=0.1,
        duplicate_rate=0.15,
        delay_rate=0.15,
        straggle_rate=0.1,
    )


def _assert_master_golden(result, golden):
    assert result.best.value == golden["best"]
    assert result.total_evaluations == golden["evaluations"]
    assert [float(v) for v in result.value_history] == golden["value_history"]
    assert result.fault_summary == golden["fault_summary"]
    assert [r.isp_rules for r in result.rounds] == golden["isp_rules"]
    assert [r.sgp_actions for r in result.rounds] == golden["sgp_actions"]


class TestMasterPipelineGoldens:
    """The async master and the degraded-mode sync master, pinned on
    :class:`SerialBackend` replay: value history, evaluation ledger, fault
    books and the per-round ISP/SGP counters."""

    def test_cts2_async_reproduces_golden_run(self):
        result = solve_cts2(
            _instance(),
            n_slaves=3,
            rng_seed=7,
            max_evaluations=8_000,
            pipeline="async",
            backend=SerialBackend(3),
        )
        _assert_master_golden(result, GOLDEN_CTS2_ASYNC)
        assert result.pipeline == "async"
        for key, value in GOLDEN_CTS2_ASYNC["pipeline_stats"].items():
            assert result.pipeline_stats[key] == value, key

    def test_cts2_sync_under_seeded_faults_reproduces_golden_run(self):
        result = solve_cts2(
            _instance(),
            n_slaves=3,
            rng_seed=7,
            max_evaluations=8_000,
            backend=SerialBackend(3, fault_plan=_chaos_plan()),
        )
        _assert_master_golden(result, GOLDEN_CTS2_CHAOS)
        assert [
            (r.failed_slaves, r.backoff_slaves, r.duplicate_reports, r.stale_reports)
            for r in result.rounds
        ] == GOLDEN_CTS2_CHAOS["faults"]


class TestThreadTrace:
    def test_move_level_trace_is_bit_identical(self):
        ts = TabuSearch(
            _instance(), Strategy(8, 2, 10), config=TabuSearchConfig(nb_div=2), rng=42
        )
        result = ts.run()
        trace = np.asarray(result.value_trace, dtype=np.float64)
        assert len(trace) == GOLDEN_THREAD["trace_len"]
        assert float(trace.sum()) == GOLDEN_THREAD["trace_sum"]
        assert result.best.value == GOLDEN_THREAD["best"]
        assert result.evaluations == GOLDEN_THREAD["evaluations"]
        assert result.moves == GOLDEN_THREAD["moves"]
        assert hashlib.sha256(trace.tobytes()).hexdigest() == GOLDEN_THREAD["trace_sha256"]
        assert [s.value for s in result.elite] == GOLDEN_THREAD["elite"]

    def test_counter_ledger_is_consistent(self):
        """The unified KernelCounters must agree with the TSResult totals."""
        ts = TabuSearch(
            _instance(), Strategy(8, 2, 10), config=TabuSearchConfig(nb_div=2), rng=42
        )
        result = ts.run()
        assert ts.counters.total == result.evaluations
        assert ts.counters.move_evaluations == ts.engine.evaluations
        assert ts.counters.intensify_evaluations == ts._intensify_stats.evaluations
        assert ts.counters.move_evaluations + ts.counters.intensify_evaluations == (
            result.evaluations
        )
        assert ts.counters.moves == result.moves


class TestTransportBatchGolden:
    """ISSUE-7: the RunResult v2 serialization is byte-identical across
    transport ∈ {pipe, shm} × batch K ∈ {1, 4}, and the shm/batched path
    reproduces the golden CTS2 fingerprint exactly.

    The canonical form strips only wall-clock measurements (see
    ``tests/differential``); everything else — value history, per-round
    accounting, byte ledgers, the structured trace — must match the
    pipe/K=1 reference byte for byte.
    """

    _MATRIX = [("pipe", 1), ("pipe", 4), ("shm", 1), ("shm", 4)]
    _cache: dict = {}

    @classmethod
    def _canonical(cls, transport: str, batch_k: int) -> bytes:
        from repro.parallel.backends import MultiprocessingBackend

        from tests.differential import run_canonical

        key = (transport, batch_k)
        if key not in cls._cache:
            cls._cache[key] = run_canonical(
                _instance(),
                backend_factory=lambda: MultiprocessingBackend(
                    4, transport=transport, batch_k=batch_k
                ),
                max_evaluations=2_000,
            )
        return cls._cache[key]

    @pytest.mark.parametrize(("transport", "batch_k"), _MATRIX[1:])
    def test_serialization_is_byte_identical_to_pipe_reference(
        self, transport, batch_k
    ):
        reference = self._canonical("pipe", 1)
        assert self._canonical(transport, batch_k) == reference

    def test_cts2_golden_fingerprint_over_shm_batched_backend(self):
        from repro.parallel.backends import MultiprocessingBackend

        backend = MultiprocessingBackend(3, transport="shm", batch_k=3)
        try:
            result = solve_cts2(
                _instance(),
                n_slaves=3,
                rng_seed=7,
                max_evaluations=8_000,
                backend=backend,
            )
        finally:
            backend.shutdown()
        assert result.best.value == GOLDEN_CTS2["best"]
        assert result.total_evaluations == GOLDEN_CTS2["evaluations"]
        assert [float(v) for v in result.value_history] == GOLDEN_CTS2["value_history"]


class TestCoreRatioGolden:
    """ISSUE-8: ``core_ratio=1.0`` is the degenerate full-space setting —
    the LP-core machinery must be a strict no-op on it.  The explicit knob
    (not just the ``None`` default) must reproduce the golden CTS2
    fingerprint bit for bit on every backend/transport, proving that the
    Strategy wire form, the SGP bounds plumbing, and the runtime's pattern
    dispatch add zero drift when no variable is actually fixed.
    """

    @staticmethod
    def _assert_golden(result):
        assert result.best.value == GOLDEN_CTS2["best"]
        assert result.total_evaluations == GOLDEN_CTS2["evaluations"]
        assert [float(v) for v in result.value_history] == GOLDEN_CTS2["value_history"]

    def test_cts2_core_ratio_one_reproduces_golden_run(self):
        result = solve_cts2(
            _instance(), n_slaves=3, rng_seed=7, max_evaluations=8_000, core_ratio=1.0
        )
        self._assert_golden(result)

    def test_cts2_pinned_unit_bounds_reproduce_golden_run(self):
        # An explicit degenerate range (lo == hi == 1.0) exercises the
        # tuple branch of the knob; still bit-identical.
        result = solve_cts2(
            _instance(),
            n_slaves=3,
            rng_seed=7,
            max_evaluations=8_000,
            core_ratio=(1.0, 1.0),
        )
        self._assert_golden(result)

    @pytest.mark.parametrize(("transport", "batch_k"), [("pipe", 1), ("shm", 3)])
    def test_cts2_core_ratio_one_golden_over_mp_backends(self, transport, batch_k):
        from repro.parallel.backends import MultiprocessingBackend

        backend = MultiprocessingBackend(3, transport=transport, batch_k=batch_k)
        try:
            result = solve_cts2(
                _instance(),
                n_slaves=3,
                rng_seed=7,
                max_evaluations=8_000,
                backend=backend,
                core_ratio=1.0,
            )
        finally:
            backend.shutdown()
        self._assert_golden(result)
