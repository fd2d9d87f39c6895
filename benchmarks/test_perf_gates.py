"""Timing-ratio gates: each case measures one ratio on this host and bounds it.

These are the performance claims whose evidence is a wall-clock ratio, so
they cannot live in the deterministic tier-1 suite.  Each case runs a
seconds-scale workload; the ``slow`` cases are the same measurement at full
size against a stricter bound.  Deterministic gates (codec bytes, report
identity, warm-pool counters, chaos outcomes) are tier-1 tests under
``tests/``; tracking numbers without a gate are ``layerbench/`` metrics.
Nothing here writes a file.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_gates.py -m "not slow"
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import (
    Budget,
    MoveEngine,
    SearchState,
    Strategy,
    TabuList,
    TabuSearchConfig,
    greedy_solution,
    random_solution,
)
from repro.core.reduction import shared_selector
from repro.instances import correlated_instance, gk_instance, gk_suite
from repro.master import MasterConfig, MasterProcess
from repro.obs import RunRecorder, monotonic_s
from repro.parallel import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    MultiprocessingBackend,
    SerialBackend,
    SlaveTask,
    SocketBackend,
)
from repro.parallel.runtime import SlaveRuntime
from repro.service import JobManager, JobRequest, JobState, SolverPool
from repro.variants import solve_cts2

from bench_cb_extension import EVALS as CB_EVALS, core_fixing_arm


def _tasks(instance, n_slaves: int, round_index: int, budget: Budget) -> list[SlaveTask]:
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=budget,
            seed=100 * round_index + k,
            round_index=round_index,
            seq_id=round_index * n_slaves + k,
        )
        for k in range(n_slaves)
    ]


# --------------------------------------------------------------------- #
# Kernel hot path
# --------------------------------------------------------------------- #
#: Compound moves/s of the flat-array kernel that preceded the packed-bitset
#: layer, on this workload (GK24, fastest of three 3 s windows, 2-core host).
FLAT_KERNEL_MOVES_PER_S = 7486.0


def test_hot_path_keeps_flat_kernel_throughput():
    """GK24 drop/add/tabu loop: >= 0.8x the flat-array kernel's moves/s."""
    instance = gk_suite()[23]
    state = SearchState.from_solution(instance, greedy_solution(instance))
    tabu = TabuList(instance.n_items, 10)
    engine = MoveEngine(state, tabu, np.random.default_rng(0))
    best = state.value

    def one_move() -> None:
        nonlocal best
        record = engine.apply(2, best)
        best = max(best, state.value)
        tabu.tick()
        if record.touched:
            tabu.make_tabu(np.asarray(record.touched))

    for _ in range(200):  # warm caches and allocator before timing
        one_move()
    moves = 0
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + 1.0:
        for _ in range(50):
            one_move()
        moves += 50
    ratio = moves / (time.perf_counter() - t0) / FLAT_KERNEL_MOVES_PER_S
    assert state.is_feasible
    assert ratio >= 0.8, f"hot path at {ratio:.2f}x the flat-array kernel"


# --------------------------------------------------------------------- #
# Round loop: GK10, P = 8, 150-evaluation tasks
# --------------------------------------------------------------------- #
N_SLAVES = 8
EVALS_PER_ROUND = 150


class TestRoundLoop:
    def test_dead_ranks_share_one_deadline(self):
        """Two slaves silent past a 0.4 s deadline cost one deadline, not two."""
        instance = gk_instance(10)
        n_dead, timeout_s = 2, 0.4
        plan = FaultPlan(
            events=tuple(
                FaultEvent(r, k, FaultKind.STRAGGLE, factor=30.0)
                for r in (1, 2)
                for k in range(n_dead)
            )
        )
        with MultiprocessingBackend(
            N_SLAVES, fault_plan=plan, round_timeout_s=timeout_s
        ) as backend:
            backend.start(instance, TabuSearchConfig(nb_div=10_000))
            budget = Budget(max_evaluations=300)
            backend.run_round(_tasks(instance, N_SLAVES, 0, budget))  # warm-up
            gathers = []
            for r in (1, 2):
                backend.run_round(_tasks(instance, N_SLAVES, r, budget))
                gathers.append(backend.last_telemetry.phase_seconds["gather"])
        assert min(gathers) < n_dead * timeout_s, (
            f"silent ranks cost {min(gathers):.3f}s, not one shared deadline"
        )

    def test_disabled_recorder_under_one_percent_of_a_round(self):
        """Six disabled ``emit`` calls per round cost < 1% of a serial round."""
        recorder = RunRecorder.disabled()
        calls = 200_000
        t0 = time.perf_counter()
        for i in range(calls):
            recorder.emit("round_end", round_index=i)
        per_call_s = (time.perf_counter() - t0) / calls
        assert recorder.events == []

        instance = gk_instance(10)
        n_rounds = 25
        budget = Budget(max_evaluations=EVALS_PER_ROUND)
        rounds = [_tasks(instance, N_SLAVES, r, budget) for r in range(n_rounds + 1)]
        with SerialBackend(N_SLAVES) as backend:
            backend.start(instance, TabuSearchConfig(nb_div=10_000))
            backend.run_round(rounds[0])  # warm-up
            t0 = time.perf_counter()
            for tasks in rounds[1:]:
                backend.run_round(tasks)
            round_s = (time.perf_counter() - t0) / n_rounds
        overhead = 6 * per_call_s / round_s
        assert overhead < 0.01, f"disabled recorder costs {overhead:.3%} of a round"

    @pytest.mark.slow
    def test_batched_shm_beats_pipe_workers(self):
        """GK24 at full size: one ``batch_k=8`` shm worker vs eight pipe workers.

        Rounds/s must improve (>= 1.05x), and the transport-owned share of
        the round (wall above the serial compute floor) must shrink >= 1.3x.
        Interleaved best-of-4 windows of 60 rounds after 3 warm-up rounds.
        """
        instance = gk_instance(24)
        n_warmup, n_rounds, repeats = 3, 60, 4
        budget = Budget(max_evaluations=EVALS_PER_ROUND)
        rounds = [
            _tasks(instance, N_SLAVES, r, budget) for r in range(n_warmup + n_rounds)
        ]
        arms = {
            "serial": lambda: SerialBackend(N_SLAVES),
            "pipe": lambda: MultiprocessingBackend(
                N_SLAVES, transport="pipe", batch_k=1
            ),
            "shm": lambda: MultiprocessingBackend(N_SLAVES, transport="shm", batch_k=8),
        }
        best = {label: float("inf") for label in arms}
        for _ in range(repeats):
            for label, factory in arms.items():
                with factory() as backend:
                    backend.start(instance, TabuSearchConfig(nb_div=10_000))
                    if label == "shm" and backend.worker_transports != ["shm"]:
                        pytest.skip("POSIX shared memory unavailable")
                    for tasks in rounds[:n_warmup]:
                        backend.run_round(tasks)
                    t0 = time.perf_counter()
                    for tasks in rounds[n_warmup:]:
                        backend.run_round(tasks)
                    best[label] = min(best[label], time.perf_counter() - t0)
        speedup = best["pipe"] / best["shm"]
        overhead_ratio = (best["pipe"] - best["serial"]) / max(
            best["shm"] - best["serial"], 1e-9
        )
        print(f"shm k=8: x{speedup:.3f} rounds/s, x{overhead_ratio:.2f} less overhead")
        assert speedup >= 1.05, f"shm k=8 speedup {speedup:.3f} below 1.05"
        assert overhead_ratio >= 1.3, f"overhead ratio {overhead_ratio:.2f} below 1.3"


# --------------------------------------------------------------------- #
# Fault tolerance: an armed plan that never fires
# --------------------------------------------------------------------- #
def test_armed_fault_plan_costs_under_ten_percent():
    """Interleaved best-of-3 CTS2 runs, bare vs a never-firing fault plan."""
    never_firing = FaultPlan(
        events=tuple(
            FaultEvent(1_000_000 + r, k, kind)
            for r in range(4)
            for k in range(4)
            for kind in (FaultKind.CRASH, FaultKind.DROP_REPORT)
        )
    )
    instance = correlated_instance(5, 100, rng=42, name="fault-overhead-5x100")

    def one_run(plan: FaultPlan | None) -> tuple[float, float]:
        master = MasterProcess(
            instance,
            MasterConfig(n_slaves=4, n_rounds=6),
            SerialBackend(4, fault_plan=plan),
            rng_seed=7,
        )
        t0 = time.perf_counter()
        result = master.run(budget_per_slave=Budget(max_evaluations=120_000))
        return time.perf_counter() - t0, result.best.value

    one_run(None)  # warm caches, imports, allocator
    bare, armed = [], []
    for _ in range(3):
        bare.append(one_run(None))
        armed.append(one_run(never_firing))
    assert bare[-1][1] == armed[-1][1], "the inert plan changed the search"
    overhead = min(t for t, _ in armed) / min(t for t, _ in bare) - 1.0
    assert overhead < 0.10, f"no-fault overhead {overhead:.1%}"


# --------------------------------------------------------------------- #
# Service: time to first round under concurrent load
# --------------------------------------------------------------------- #
async def _ttfrs(instance, n_jobs: int, pool_size: int, *, prewarm: bool) -> list[float]:
    """Seconds from each job's run start to its first ``round_end``."""
    manager = JobManager(SolverPool.multiprocessing(pool_size, 4, mp_context="fork"))
    if prewarm:  # one throwaway job per slot binds every backend once
        for warm_id in [
            manager.submit(JobRequest(instance, n_rounds=1, max_evaluations=500))
            for _ in range(pool_size)
        ]:
            await manager.wait(warm_id)

    async def first_round_t(job_id: str) -> float | None:
        async for event in manager.stream(job_id):
            if event.get("event") == "round_end":
                return float(event["t"])
        return None

    job_ids = [
        manager.submit(
            JobRequest(instance, n_rounds=6, rng_seed=seed, max_evaluations=36_000)
        )
        for seed in range(n_jobs)
    ]
    ttfrs = await asyncio.gather(*(first_round_t(j) for j in job_ids))
    statuses = [await manager.wait(j) for j in job_ids]
    await manager.close()
    assert all(s.state is JobState.DONE for s in statuses)
    return [t for t in ttfrs if t is not None]


def test_service_p99_ttfr_under_twice_single_job():
    """8 jobs on a warm 2-slot pool: p99 TTFR < 2x a cold single job's."""
    instance = gk_instance(10)
    # The denominator is the median of three cold one-slot pools.
    single = sorted(
        asyncio.run(_ttfrs(instance, 1, 1, prewarm=False))[0] for _ in range(3)
    )[1]
    ttfrs = sorted(asyncio.run(_ttfrs(instance, 8, 2, prewarm=True)))
    p99 = ttfrs[min(len(ttfrs) - 1, int(0.99 * (len(ttfrs) - 1) + 0.5))]
    assert p99 / single < 2.0, f"p99 TTFR is x{p99 / single:.2f} of a single job"


# --------------------------------------------------------------------- #
# Async pipeline vs the sync barrier: GK24, P = 8, seeded stragglers
# --------------------------------------------------------------------- #
def _evals_per_s(instance, pipeline: str, plan: FaultPlan | None, evals: int) -> float:
    with MultiprocessingBackend(8, fault_plan=plan or FaultPlan.none()) as backend:
        backend.start(instance, TabuSearchConfig())  # spawn stays out of the clock
        result = solve_cts2(
            instance,
            n_slaves=8,
            n_rounds=6,
            rng_seed=7,
            max_evaluations=evals,
            backend=backend,
            pipeline=pipeline,
            max_staleness=3 if pipeline == "async" else None,
        )
    assert result.n_rounds == 6
    history = result.value_history
    assert all(a <= b for a, b in zip(history, history[1:])), "incumbent regressed"
    return result.total_evaluations / result.wall_seconds


@pytest.mark.parametrize(
    "evals, repeats, straggle_floor, no_fault_floor",
    [
        pytest.param(12_000, 2, 1.3, 0.85, id="smoke"),
        pytest.param(24_000, 3, 1.5, 0.95, id="full", marks=pytest.mark.slow),
    ],
)
def test_async_pipeline_throughput(evals, repeats, straggle_floor, no_fault_floor):
    """Async over sync evaluations/s: >= floor with a quarter of the
    (round, slave) cells 8x slower, and >= floor with no faults at all."""
    instance = gk_instance(24)
    stragglers = FaultPlan.stragglers(1997, 8, 6, rate=0.25, factor=8.0)
    ratios = {}
    for regime, plan in (("straggle", stragglers), ("no_fault", None)):
        best = {"sync": 0.0, "async": 0.0}
        for _ in range(repeats):  # interleaved best-of
            for pipeline in best:
                best[pipeline] = max(
                    best[pipeline], _evals_per_s(instance, pipeline, plan, evals)
                )
        ratios[regime] = best["async"] / best["sync"]
    print(f"async/sync: x{ratios['straggle']:.3f} straggle, x{ratios['no_fault']:.3f} no-fault")
    assert ratios["straggle"] >= straggle_floor, ratios
    assert ratios["no_fault"] >= no_fault_floor, ratios


# --------------------------------------------------------------------- #
# Socket carrier: sharding rounds over localhost worker processes
# --------------------------------------------------------------------- #
def _socket_rounds_wall_s(instance, n_workers: int, n_rounds: int, wall_s: float) -> float:
    backend = SocketBackend(8, round_timeout_s=60.0)
    backend.attach_local_workers(n_workers)
    try:
        backend.start(instance, TabuSearchConfig(nb_div=100))
        deadline = monotonic_s() + 30.0
        while backend.joins < n_workers:
            assert monotonic_s() < deadline, f"only {backend.joins} workers joined"
            backend._pump(0.05)
        backend.run_round(_tasks(instance, 8, 0, Budget(wall_seconds=wall_s / 4)))
        t0 = monotonic_s()
        for r in range(1, n_rounds + 1):
            reports = backend.run_round(_tasks(instance, 8, r, Budget(wall_seconds=wall_s)))
            assert len(reports) == 8, "a round lost reports"
        return monotonic_s() - t0
    finally:
        backend.shutdown()


def test_socket_four_workers_speedup():
    """P = 8 wall-budgeted GK24 tasks: 4 workers >= 1.7x faster than 1."""
    instance = gk_instance(24)
    single = _socket_rounds_wall_s(instance, 1, 2, 0.04)
    multi = _socket_rounds_wall_s(instance, 4, 2, 0.04)
    assert single / multi >= 1.7, f"4-worker speedup x{single / multi:.2f}"


# --------------------------------------------------------------------- #
# LP-core fixing: reduced-kernel throughput and CB quality
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "wall_s, repeats, effective_floor, wall_floor",
    [
        pytest.param(0.15, 3, 1.35, 1.0, id="smoke"),
        pytest.param(0.4, 5, 1.5, 1.05, id="full", marks=pytest.mark.slow),
    ],
)
def test_core_fixing_kernel_throughput(wall_s, repeats, effective_floor, wall_floor):
    """One warm runtime on GK24, ``core_ratio=0.5`` vs full space.

    *Effective* moves/s counts moves per charged evaluation (the farm's
    virtual clock), summed over every repeat; *wall* moves/s is best-of.
    """
    instance = gk_instance(24)
    pattern = shared_selector(instance).pattern(0.5, variant=0)
    runtime = SlaveRuntime(instance, TabuSearchConfig(nb_div=10_000), slave_id=0)
    arms = {"full": None, "core": pattern}

    def task(rep: int, budget: Budget, pat) -> SlaveTask:
        return SlaveTask(
            x_init=random_solution(instance, rng=rep),
            strategy=Strategy(8, 2, 10),
            budget=budget,
            seed=1_000 + rep,
            round_index=rep,
            seq_id=rep,
            pattern=pat,
        )

    for pat in arms.values():  # build and fault in both arenas
        runtime.execute(task(0, Budget(max_evaluations=200), pat))
    wall = {label: 0.0 for label in arms}
    moves = {label: 0 for label in arms}
    evals = {label: 0 for label in arms}
    for rep in range(1, repeats + 1):
        for label, pat in arms.items():
            report = runtime.execute(task(rep, Budget(wall_seconds=wall_s), pat))
            wall[label] = max(wall[label], report.moves / max(runtime.last_execute_s, 1e-9))
            moves[label] += report.moves
            evals[label] += report.evaluations
    effective = (moves["core"] / evals["core"]) / (moves["full"] / evals["full"])
    wall_speedup = wall["core"] / wall["full"]
    print(f"core 0.5: x{effective:.3f} effective, x{wall_speedup:.3f} wall moves/s")
    assert runtime.core_tasks > 0 and runtime.recores >= 1
    assert effective >= effective_floor, f"effective speedup x{effective:.3f}"
    assert wall_speedup >= wall_floor, f"wall speedup x{wall_speedup:.3f}"


def test_core_fixing_improves_cb_m30_at_tenth_budget():
    """E3 (``bench_cb_extension.core_fixing_arm``) at a tenth of its budget."""
    core_fixing_arm(CB_EVALS // 10)
