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
import gc
import time

import numpy as np
import pytest

from repro.core import (
    Budget,
    IntensificationKind,
    MoveEngine,
    SearchState,
    Strategy,
    TabuList,
    TabuSearch,
    TabuSearchConfig,
    greedy_solution,
    native,
    random_solution,
)
from repro.core.intensification import apply_swaps, strategic_oscillation
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
from repro.rng import derive_rng, random_seed_from, task_seed
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
def _gk24_move_loop(path: str):
    """The GK24 drop/add/tabu loop on one kernel path: ``(one_move, state)``.

    ``path`` is ``"native"``, the C kernel, or ``"python"``, the generic
    elementwise reference path (also the fallback on hosts without cffi or
    a compiler).
    """
    if path == "native" and not native.available:
        pytest.skip("native kernel unavailable on this host")
    instance = gk_suite()[23]
    with pytest.MonkeyPatch.context() as patch:  # kernels bind C at construction
        patch.setattr(native, "available", path == "native")
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
    return one_move, state


def _moves_per_s(one_move, seconds: float) -> float:
    moves = 0
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds:
        for _ in range(50):
            one_move()
        moves += 50
    return moves / (time.perf_counter() - t0)


def _best_moves_per_s(loops: dict) -> dict:
    """Best of three alternating 0.5 s windows per loop, in one process.

    Alternating the loops lets host-speed drift hit every arm alike.
    """
    best = dict.fromkeys(loops, 0.0)
    for _ in range(3):
        for path, one_move in loops.items():
            best[path] = max(best[path], _moves_per_s(one_move, 0.5))
    return best


def test_native_kernel_moves_per_s():
    """The GK24 drop/add/tabu loop: native moves/s >= 4.5x the Python path's.

    The two paths are timed in alternating 0.5 s windows in one process,
    best of three each, so host-speed drift hits both arms alike.
    """
    loops = {path: _gk24_move_loop(path) for path in ("native", "python")}
    best = _best_moves_per_s({path: loop[0] for path, loop in loops.items()})
    ratio = best["native"] / best["python"]
    print(f"native {best['native']:.0f} vs python {best['python']:.0f} moves/s: x{ratio:.2f}")
    assert all(state.is_feasible for _, state in loops.values())
    assert ratio >= 4.5, f"native kernel only x{ratio:.2f} the Python path's moves/s"


def _gk24_thread_run_s(per_move: bool, intensification=IntensificationKind.NONE):
    """A GK24 ``TabuSearch.run`` timer on the C thread or the per-move loop.

    A no-op ``on_move`` holds the per-move loop.  With intensification off
    the run is the local-search loops the two paths differ in; with BOTH
    it is the whole of Figure 1 steps 3–11, step 11 included.
    """
    if not native.available:
        pytest.skip("native kernel unavailable on this host")
    thread = TabuSearch(
        gk_instance(24),
        Strategy(8, 2, 10),
        TabuSearchConfig(intensification=intensification),
        on_move=(lambda t: None) if per_move else None,
    )

    def run_s(seed: int) -> float:
        thread.rebind(rng=seed)
        t0 = time.perf_counter()
        thread.run(budget=Budget(max_evaluations=3_000_000))
        return time.perf_counter() - t0

    run_s(0)  # bind the thread, warm caches
    return run_s


def _c_thread_speedup(intensification) -> tuple[float, list[float]]:
    """Median per-pair time ratio per-move / C thread over ten GK24 pairs.

    Same seed within a pair, alternating which path goes first.
    """
    c_thread = _gk24_thread_run_s(False, intensification)
    per_move = _gk24_thread_run_s(True, intensification)
    ratios = []
    for seed in range(10):
        arms = (c_thread, per_move) if seed % 2 == 0 else (per_move, c_thread)
        times = {arm: arm(seed) for arm in arms}
        ratios.append(times[per_move] / times[c_thread])
    return float(np.median(ratios)), ratios


def test_native_loop_beats_per_move_loop():
    """GK24 ``TabuSearch.run`` without step 11: the C thread >= 1.2x the
    per-move loop's speed."""
    ratio, ratios = _c_thread_speedup(IntensificationKind.NONE)
    print(f"C thread x{ratio:.2f} the per-move loop (pair ratios {ratios})")
    assert ratio >= 1.2, f"C thread only x{ratio:.2f} the per-move loop"


def test_native_thread_beats_per_move_loop_with_intensification():
    """GK24 ``TabuSearch.run`` with intensification BOTH: the C thread
    >= 1.5x the per-move loop's speed.

    Step 11's Python around the native swap scan and oscillation (restores,
    snapshots, elite offers) is folded into the call.  On the 2-core
    reference host this ratio read x1.27 and x1.31 when only steps 4–10
    ran as one C call per loop, and x1.68 and x1.69 with ``ts_thread``.
    """
    ratio, ratios = _c_thread_speedup(IntensificationKind.BOTH)
    print(f"C thread x{ratio:.2f} the per-move loop with step 11 (pair ratios {ratios})")
    assert ratio >= 1.5, f"C thread only x{ratio:.2f} the per-move loop with step 11"


def _gk24_intensify_s(path: str):
    """A timer of Figure 1 step 11 on one kernel path, over fixed X_local starts.

    The starts are the elite solutions of two short GK24 threads without
    intensification, so they sit where step 11 meets them: at the end of a
    local-search loop.  One timing restores each start, runs the swap scan,
    restores it again and runs a depth-5 oscillation, as ``_intensify``
    does.
    """
    if not native.available:
        pytest.skip("native kernel unavailable on this host")
    instance = gk_instance(24)
    starts = []
    for seed in (0, 1):
        thread = TabuSearch(
            instance,
            Strategy(8, 2, 10),
            TabuSearchConfig(intensification=IntensificationKind.NONE),
            rng=seed,
        )
        starts += thread.run(budget=Budget(max_evaluations=300_000)).elite
    with pytest.MonkeyPatch.context() as patch:  # kernels bind C at construction
        patch.setattr(native, "available", path == "native")
        state = SearchState.empty(instance)

    def run_s(seed: int) -> float:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        for x_local in starts:
            state.restore(x_local)
            apply_swaps(state)
            state.restore(x_local)
            strategic_oscillation(state, 5, rng)
        return time.perf_counter() - t0

    run_s(0)  # warm caches
    return run_s


def test_native_intensification_beats_python_reference():
    """GK24 step 11 (swap scan, then oscillation): native >= 18x the Python path.

    Ten pairs over the same starts and oscillation seed within a pair,
    alternating which path goes first; the estimate is the median of the
    per-pair time ratios.
    """
    c_path, py_path = _gk24_intensify_s("native"), _gk24_intensify_s("python")
    ratios = []
    for seed in range(10):
        arms = (c_path, py_path) if seed % 2 == 0 else (py_path, c_path)
        times = {arm: arm(seed) for arm in arms}
        ratios.append(times[py_path] / times[c_path])
    ratio = float(np.median(ratios))
    print(f"native step 11 x{ratio:.2f} the Python path (pair ratios {ratios})")
    assert ratio >= 18.0, f"native step 11 only x{ratio:.2f} the Python path"


# --------------------------------------------------------------------- #
# Seeding: the master's per-task seed
# --------------------------------------------------------------------- #
def test_native_task_seed_beats_numpy_expression():
    """``task_seed`` in C >= 8x ``random_seed_from(derive_rng(...))``.

    Ten pairs of 2 000 ``(seed, round, slave)`` triples each, the same
    triples on both arms, alternating which arm goes first; the estimate is
    the median of the per-pair time ratios.  On the 2-core reference host
    it read x12.4 and x12.6.
    """
    if not native.available:
        pytest.skip("native kernel unavailable on this host")
    triples = [(2**40 + 7 * i, 1 + i % 150, i % 8) for i in range(2_000)]

    def native_s() -> float:
        t0 = time.perf_counter()
        for seed, b, k in triples:
            task_seed(seed, b, k)
        return time.perf_counter() - t0

    def numpy_s() -> float:
        t0 = time.perf_counter()
        for seed, b, k in triples:
            random_seed_from(derive_rng(seed, b, k))
        return time.perf_counter() - t0

    assert [task_seed(*t) for t in triples[:50]] == [
        random_seed_from(derive_rng(*t)) for t in triples[:50]
    ]
    ratios = []
    for pair in range(10):
        arms = (native_s, numpy_s) if pair % 2 == 0 else (numpy_s, native_s)
        times = {arm: arm() for arm in arms}
        ratios.append(times[numpy_s] / times[native_s])
    ratio = float(np.median(ratios))
    print(f"native task_seed x{ratio:.1f} the numpy expression (pair ratios {ratios})")
    assert ratio >= 8.0, f"native task_seed only x{ratio:.1f} the numpy expression"


# --------------------------------------------------------------------- #
# Serial slaves on helper threads
# --------------------------------------------------------------------- #
#: Alternating same-seed pairs of the serial helper-thread gate.
SERIAL_HELPER_PAIRS = 10


def test_serial_helpers_beat_one_thread():
    """GK24 CTS2 on ``SerialBackend(4)``: auto width >= 1.2x ``threads=1``.

    The gk24-serial fixed solve (8 rounds, 10**6 evaluations per slave) on
    two warm backends that stay up for the whole test.  Ten pairs solve
    the same seed on both arms, alternating which arm goes first; the
    bound applies to the median of the per-pair time ratios, and every
    pair must reach the same best value.
    """
    if not native.available:
        pytest.skip("native kernel unavailable on this host")
    arms = {"threads": SerialBackend(4), "inline": SerialBackend(4, threads=1)}
    if arms["threads"].threads < 2:
        pytest.skip("fewer than 2 usable CPUs")
    instance = gk_instance(24)

    def solve(backend, seed: int):
        t0 = time.perf_counter()
        result = solve_cts2(instance, n_slaves=4, n_rounds=8, rng_seed=seed,
                            max_evaluations=1_000_000, backend=backend)
        return time.perf_counter() - t0, result.best.value

    ratios = []
    try:
        for backend in arms.values():
            solve(backend, 0)  # warm-up
        for pair in range(SERIAL_HELPER_PAIRS):
            order = list(arms) if pair % 2 == 0 else list(reversed(arms))
            runs = {label: solve(arms[label], 1 + pair) for label in order}
            assert runs["threads"][1] == runs["inline"][1], f"seed {1 + pair} diverged"
            ratios.append(runs["inline"][0] / runs["threads"][0])
    finally:
        for backend in arms.values():
            backend.shutdown()
    ratio = float(np.median(ratios))
    print(f"serial helpers x{ratio:.2f} one thread (pair ratios {ratios})")
    assert ratio >= 1.2, f"serial helpers only x{ratio:.2f} one thread ({ratios})"


# --------------------------------------------------------------------- #
# Round loop: GK10, P = 8, 150-evaluation tasks
# --------------------------------------------------------------------- #
N_SLAVES = 8
EVALS_PER_ROUND = 150
#: Rounds per timed window, and alternating pairs, of the full-size shm gate.
SHM_GATE_ROUNDS = 20
SHM_GATE_PAIRS = 31


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
        the round (wall above the serial compute floor, one thread's
        inline execution: ``threads=1``) must shrink >= 1.3x.
        The three backends stay up for the whole test.  Each pair times one
        window of rounds per arm back to back, reversing the arm order from
        pair to pair; each bound applies to the median of its per-pair
        ratio, so a host-speed phase moves all arms of a pair alike and a
        pair it splits is one outlier among many.
        """
        instance = gk_instance(24)
        n_warmup, n_rounds = 3, SHM_GATE_ROUNDS
        budget = Budget(max_evaluations=EVALS_PER_ROUND)
        rounds = [
            _tasks(instance, N_SLAVES, r, budget) for r in range(n_warmup + n_rounds)
        ]
        arms = {
            "serial": SerialBackend(N_SLAVES, threads=1),
            "pipe": MultiprocessingBackend(N_SLAVES, transport="pipe", batch_k=1),
            "shm": MultiprocessingBackend(N_SLAVES, transport="shm", batch_k=8),
        }

        def window_s(backend) -> float:
            t0 = time.perf_counter()
            for tasks in rounds[n_warmup:]:
                backend.run_round(tasks)
            return time.perf_counter() - t0

        speedups, overhead_ratios = [], []
        try:
            for backend in arms.values():
                backend.start(instance, TabuSearchConfig(nb_div=10_000))
                for tasks in rounds[:n_warmup]:
                    backend.run_round(tasks)
            if arms["shm"].worker_transports != ["shm"]:
                pytest.skip("POSIX shared memory unavailable")
            for i in range(SHM_GATE_PAIRS):
                order = list(arms) if i % 2 == 0 else list(reversed(arms))
                t = {label: window_s(arms[label]) for label in order}
                speedups.append(t["pipe"] / t["shm"])
                overhead_ratios.append(
                    (t["pipe"] - t["serial"]) / max(t["shm"] - t["serial"], 1e-9)
                )
        finally:
            for backend in arms.values():
                backend.shutdown()
        speedup = float(np.median(speedups))
        overhead_ratio = float(np.median(overhead_ratios))
        print(
            f"shm k=8: x{speedup:.3f} rounds/s, x{overhead_ratio:.2f} less overhead "
            f"(medians of {SHM_GATE_PAIRS} pairs)"
        )
        assert speedup >= 1.05, f"shm k=8 speedup {speedup:.3f} below 1.05 ({speedups})"
        assert overhead_ratio >= 1.3, (
            f"overhead ratio {overhead_ratio:.2f} below 1.3 ({overhead_ratios})"
        )


# --------------------------------------------------------------------- #
# Fault tolerance: an armed plan that never fires
# --------------------------------------------------------------------- #
#: Paired bare/armed runs of the fault-plan gate.
FAULT_PLAN_PAIRS = 15


def test_armed_fault_plan_costs_under_ten_percent():
    """CTS2 runs, bare vs a never-firing fault plan: median overhead < 10 %.

    Each pair times one bare and one armed run back to back, alternating
    which goes first; the estimate is the median of the per-pair time
    ratios.  A host-speed phase then moves both runs of a pair alike, and a
    pair it splits is one outlier among fifteen rather than one arm's best
    time.  A collection before each run starts both arms from the same heap.
    """
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
        gc.collect()
        t0 = time.perf_counter()
        result = master.run(budget_per_slave=Budget(max_evaluations=120_000))
        return time.perf_counter() - t0, result.best.value

    one_run(None)  # warm caches, imports, allocator
    ratios = []
    for i in range(FAULT_PLAN_PAIRS):
        plans = (None, never_firing) if i % 2 == 0 else (never_firing, None)
        runs = {plan is None: one_run(plan) for plan in plans}
        (bare_s, bare_value), (armed_s, armed_value) = runs[True], runs[False]
        assert bare_value == armed_value, "the inert plan changed the search"
        ratios.append(armed_s / bare_s)
    overhead = float(np.median(ratios)) - 1.0
    print(f"no-fault overhead {overhead:+.1%} over {len(ratios)} pairs")
    assert overhead < 0.10, f"no-fault overhead {overhead:.1%} (pair ratios {ratios})"


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


#: Run lengths size a no-fault sync solve at 65-90 ms on a 2-core host, so
#: slave compute is a real share of each burst; much shorter solves measure
#: only process-scheduling jitter (per-run evals/s varies 15-22 %, as a
#: coefficient of variation).  With
#: the repeats below, 20 k bootstrap draws of the measured per-run spread
#: put the no-fault ratio under its floor in <= 0.2 % of gates.
@pytest.mark.parametrize(
    "evals, repeats, straggle_floor, no_fault_floor",
    [
        pytest.param(96_000, 2, 1.3, 0.85, id="smoke"),
        pytest.param(192_000, 3, 1.5, 0.95, id="full", marks=pytest.mark.slow),
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
