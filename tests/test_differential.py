"""Differential pins: shm/batched execution is bit-identical to the pipe path.

Every test here runs one (instance, seed, variant) case under several
backend configurations and asserts the **canonical serializations** match
byte-for-byte (see ``tests/differential`` for what "canonical" strips —
wall-clock measurements only).  The reference path is always the legacy
layout: pipe transport, one slave per worker (``batch_k=1``).

Matrix covered across the module, per ISSUE-7's acceptance line:

* serial warm backend vs serial batched backend (``batch_k=4``);
* multiprocessing under **fork and spawn**, transport ∈ {pipe, shm},
  batch ∈ {1, 4};
* one seeded chaos plan (drops/duplicates/delays/straggles, crash-free)
  replayed on both transports within each batch width.
"""

from __future__ import annotations

import pytest

from repro.instances import gk_instance
from repro.parallel import MultiprocessingBackend, SerialBackend, shm_available
from repro.parallel.faults import FaultKind, FaultPlan

from tests.differential import assert_differential, run_canonical

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _mp(context: str, transport: str, batch_k: int, **kw):
    """Factory-of-factories for a fresh 4-slave multiprocessing backend."""

    def factory():
        return MultiprocessingBackend(
            4,
            mp_context=context,
            transport=transport,
            batch_k=batch_k,
            **kw,
        )

    return factory


class TestSerialDifferential:
    @pytest.mark.parametrize("variant", ["its", "cts2"])
    def test_batched_serial_matches_per_slave_serial(self, variant):
        assert_differential(
            gk_instance(5),
            {
                "serial-k1": lambda: SerialBackend(4),
                "serial-k4": lambda: SerialBackend(4, batch_k=4),
                "serial-k3": lambda: SerialBackend(4, batch_k=3),
            },
            variant=variant,
            max_evaluations=1_200,
        )

    def test_runner_default_backend_matches_external_serial(self):
        # ``backend_factory=None`` exercises the runner-owned default path.
        reference = run_canonical(gk_instance(5))
        external = run_canonical(
            gk_instance(5), backend_factory=lambda: SerialBackend(4, batch_k=2)
        )
        assert external == reference


class TestMultiprocessingDifferential:
    def test_fork_transport_and_batch_matrix(self):
        assert_differential(
            gk_instance(5),
            {
                "pipe-k1": _mp("fork", "pipe", 1),
                "shm-k1": _mp("fork", "shm", 1),
                "shm-k4": _mp("fork", "shm", 4),
                "pipe-k4": _mp("fork", "pipe", 4),
            },
            max_evaluations=1_500,
        )

    def test_spawn_transport_and_batch_matrix(self):
        assert_differential(
            gk_instance(5),
            {
                "pipe-k1": _mp("spawn", "pipe", 1),
                "shm-k1": _mp("spawn", "shm", 1),
                "shm-k4": _mp("spawn", "shm", 4),
            },
            n_rounds=2,
            max_evaluations=800,
        )

    def test_mp_matches_serial_trajectory(self):
        assert_differential(
            gk_instance(5),
            {
                "serial": lambda: SerialBackend(4),
                "shm-k4": _mp("fork", "shm", 4),
                "pipe-k1": _mp("fork", "pipe", 1),
            },
            max_evaluations=1_200,
        )

    @pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")
    def test_shm_transport_actually_engaged(self):
        # Guard against the matrix silently degrading to pipe-vs-pipe.
        backend = MultiprocessingBackend(4, transport="shm", batch_k=4)
        try:
            assert backend.transport == "shm"
        finally:
            backend.shutdown()


class TestChaosDifferential:
    """One seeded crash-free chaos plan replayed across both transports.

    Crash faults are excluded on purpose: a buried-and-respawned worker is
    pinned elsewhere (``tests/test_fault_injection.py``); here the plan
    must perturb *message flow* (drops, duplicates, delays, straggles)
    while leaving the trajectory a pure function of the plan — so the two
    transports must still agree byte-for-byte.
    """

    @staticmethod
    def _plan() -> FaultPlan:
        return FaultPlan.from_seed(
            101,
            n_slaves=4,
            n_rounds=3,
            report_drop_rate=0.15,
            duplicate_rate=0.2,
            delay_rate=0.2,
            straggle_rate=0.2,
        )

    @pytest.mark.parametrize("batch_k", [1, 4])
    def test_chaos_plan_is_transport_invariant(self, batch_k):
        plan = self._plan()
        assert not any(
            e.kind is FaultKind.CRASH for e in plan.events
        ), "chaos differential requires a crash-free plan"
        assert_differential(
            gk_instance(5),
            {
                f"pipe-k{batch_k}": _mp(
                    "fork", "pipe", batch_k, fault_plan=plan, round_timeout_s=2.0
                ),
                f"shm-k{batch_k}": _mp(
                    "fork", "shm", batch_k, fault_plan=plan, round_timeout_s=2.0
                ),
            },
            max_evaluations=1_000,
        )
