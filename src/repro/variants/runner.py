"""Drivers for the four approaches compared in Table 2 of the paper.

-SEQ:  one sequential TS; strategy parameters and initial solution random.
-ITS:  P independent TS threads, no communication, no parameter change.
-CTS1: P cooperative threads, communication (ISP pooling) but fixed
       strategy parameters.
-CTS2: P cooperative threads, communication **and** dynamic strategy
       parameter setting (the paper's full contribution).

:func:`solve_seq` runs one thread without a master.  ITS, CTS1 and CTS2
are one master with different switches (the table
:data:`repro.master.VARIANTS`), so they share one body,
:func:`solve_master`, which takes the variant's name; ``solve_its``,
``solve_cts1`` and ``solve_cts2`` bind that name.

Every variant here, and CTS-async and decomposition besides, sizes its
budget with :func:`_resolve_budget`: a "fixed execution time" is either an
explicit per-slave ``max_evaluations``, or ``virtual_seconds`` which the
attached :class:`~repro.farm.FarmModel` converts into an evaluation budget
(SEQ runs its single thread on one simulated processor, each slave of the
parallel variants runs on its own processor — same wall time, P× the total
work, exactly the Table 2 regime).
"""

from __future__ import annotations

import time

from ..core.construction import random_solution
from ..core.instance import MKPInstance
from ..core.strategy import StrategyBounds
from ..core.tabu_search import TabuSearch, TabuSearchConfig
from ..core.termination import Budget, CancelToken
from ..farm.machine import ALPHA_FARM, FarmModel
from ..farm.trace import EventKind, FarmTrace
from ..master.master import MasterConfig, MasterProcess
from ..master.result import ParallelRunResult, RoundStats
from ..obs.recorder import RunRecorder
from ..parallel.backends import Backend, SerialBackend
from ..rng import derive_rng, make_rng

__all__ = [
    "solve_seq",
    "solve_master",
    "solve_its",
    "solve_cts1",
    "solve_cts2",
    "budget_for_virtual_seconds",
]


def budget_for_virtual_seconds(
    instance: MKPInstance, seconds: float, farm: FarmModel = ALPHA_FARM
) -> Budget:
    """Per-processor evaluation budget equivalent to ``seconds`` on ``farm``."""
    evals = farm.processor.evaluations_for_seconds(seconds, instance.n_constraints)
    return Budget(max_evaluations=evals)


def _core_bounds(
    core_ratio: float | tuple[float, float] | None,
) -> tuple[float, float]:
    """Admissible ``StrategyBounds.core_ratio`` range from the user knob.

    ``None`` (and 1.0) keep the degenerate full-space default; a scalar
    ``c < 1`` opens the adaptive range ``(c, 1.0)`` the SGP tunes within;
    an explicit ``(lo, hi)`` tuple is passed through (``lo == hi`` pins the
    ratio — useful for A/B benchmarks and the reduction test matrix).
    """
    if core_ratio is None:
        return (1.0, 1.0)
    if isinstance(core_ratio, tuple):
        return (float(core_ratio[0]), float(core_ratio[1]))
    return (float(core_ratio), 1.0)


def _resolve_budget(
    instance: MKPInstance,
    farm: FarmModel,
    max_evaluations: int | None,
    virtual_seconds: float | None,
    target_value: float | None = None,
    wall_seconds: float | None = None,
) -> Budget:
    """The per-processor budget of every variant's "fixed execution time".

    Exactly one of the three limits applies.  A ``virtual_seconds`` budget
    that converts to fewer than one evaluation is rejected, as an explicit
    ``max_evaluations < 1`` is.
    """
    given = [b is not None for b in (max_evaluations, virtual_seconds, wall_seconds)]
    if sum(given) != 1:
        raise ValueError(
            "specify exactly one of max_evaluations / virtual_seconds / wall_seconds"
        )
    if max_evaluations is not None:
        if max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        return Budget(max_evaluations=max_evaluations, target_value=target_value)
    if wall_seconds is not None:
        # Real elapsed time per slave round; meaningful with the
        # multiprocessing backend where slaves run concurrently.
        if wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        return Budget(wall_seconds=wall_seconds, target_value=target_value)
    budget = budget_for_virtual_seconds(instance, float(virtual_seconds), farm)
    if budget.max_evaluations < 1:
        raise ValueError(
            f"virtual_seconds={virtual_seconds} is less than one evaluation "
            "on this farm"
        )
    return Budget(max_evaluations=budget.max_evaluations, target_value=target_value)


def solve_seq(
    instance: MKPInstance,
    *,
    rng_seed: int = 0,
    max_evaluations: int | None = None,
    virtual_seconds: float | None = None,
    farm: FarmModel = ALPHA_FARM,
    ts_config: TabuSearchConfig | None = None,
    bounds: StrategyBounds | None = None,
    target_value: float | None = None,
    wall_seconds: float | None = None,
) -> ParallelRunResult:
    """SEQ — one sequential TS with random strategy and initial solution.

    The structural loops are made effectively unbounded so that the
    evaluation budget, not ``Nb_div``, terminates the run (matching "for a
    fixed execution time").  ``target_value`` stops the run early once the
    incumbent reaches it (time-to-target experiments).
    """
    budget = _resolve_budget(
        instance, farm, max_evaluations, virtual_seconds, target_value, wall_seconds
    )
    bounds = bounds or StrategyBounds()
    ts_config = ts_config or TabuSearchConfig(nb_div=1_000_000, bounds=bounds)
    rng = make_rng(rng_seed)
    strategy = bounds.random(rng)
    x_init = random_solution(instance, derive_rng(rng_seed, 0, 0))

    t0 = time.perf_counter()
    thread = TabuSearch(instance, strategy, config=ts_config, rng=rng)
    result = thread.run(x_init=x_init, budget=budget)
    wall = time.perf_counter() - t0

    compute = farm.compute_seconds(result.evaluations, instance.n_constraints)
    trace = FarmTrace()
    trace.record(0, EventKind.COMPUTE, 0.0, compute, "seq-search")
    stats = RoundStats(
        round_index=0,
        best_value=result.best.value,
        round_virtual_seconds=compute,
        slave_virtual_seconds={0: compute},
        communication_seconds=0.0,
        evaluations=result.evaluations,
        improved_slaves=int(result.improved),
    )
    return ParallelRunResult(
        variant="SEQ",
        best=result.best,
        rounds=[stats],
        total_evaluations=result.evaluations,
        virtual_seconds=compute,
        wall_seconds=wall,
        n_slaves=1,
        trace=trace,
        bytes_sent=0,
        value_history=list(result.value_trace),
    )


def solve_master(
    instance: MKPInstance,
    variant: str,
    *,
    n_slaves: int = 16,
    n_rounds: int = 10,
    rng_seed: int = 0,
    max_evaluations: int | None = None,
    virtual_seconds: float | None = None,
    farm: FarmModel = ALPHA_FARM,
    backend: Backend | None = None,
    master_config: MasterConfig | None = None,
    target_value: float | None = None,
    wall_seconds: float | None = None,
    recorder: RunRecorder | None = None,
    cancel: CancelToken | None = None,
    core_ratio: float | tuple[float, float] | None = None,
    pipeline: str = "sync",
    max_staleness: int | None = None,
) -> ParallelRunResult:
    """Run ``variant`` (``"ITS"``, ``"CTS1"`` or ``"CTS2"``) through one master.

    An explicit ``master_config`` must name the same variant, and then
    carries the core ratio, pipeline and staleness itself.
    """
    budget = _resolve_budget(
        instance, farm, max_evaluations, virtual_seconds, target_value, wall_seconds
    )
    if master_config is None:
        master_config = MasterConfig(
            n_slaves=n_slaves,
            n_rounds=n_rounds,
            variant=variant,
            bounds=StrategyBounds(core_ratio=_core_bounds(core_ratio)),
            pipeline=pipeline,
            **({"max_staleness": max_staleness} if max_staleness is not None else {}),
        )
    elif master_config.variant != variant:
        raise ValueError(
            f"{variant} was given a master_config for {master_config.variant}"
        )
    elif core_ratio is not None or pipeline != "sync" or max_staleness is not None:
        raise ValueError(
            "pass core_ratio (as bounds), pipeline and max_staleness through "
            "master_config when supplying an explicit MasterConfig"
        )
    owns_backend = backend is None
    if backend is None:
        backend = SerialBackend(master_config.n_slaves)
    try:
        master = MasterProcess(
            instance,
            master_config,
            backend,
            rng_seed=rng_seed,
            # The async pipeline is pure wall-clock: there is no barrier to
            # charge a virtual farm round against, so the farm model only
            # rides along on the sync path.
            farm=None if master_config.pipeline == "async" else farm,
            recorder=recorder,
            cancel=cancel,
        )
        return master.run(budget_per_slave=budget)
    finally:
        if owns_backend:
            backend.shutdown()


def solve_its(instance: MKPInstance, **kwargs) -> ParallelRunResult:
    """ITS — P independent threads, no communication, fixed strategies."""
    return solve_master(instance, "ITS", **kwargs)


def solve_cts1(instance: MKPInstance, **kwargs) -> ParallelRunResult:
    """CTS1 — cooperative threads (ISP pooling), fixed strategies."""
    return solve_master(instance, "CTS1", **kwargs)


def solve_cts2(instance: MKPInstance, **kwargs) -> ParallelRunResult:
    """CTS2 — full cooperative parallel TS with dynamic strategy tuning."""
    return solve_master(instance, "CTS2", **kwargs)
