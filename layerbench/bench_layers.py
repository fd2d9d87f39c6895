"""One layered benchmark: time-to-target, quality-at-budget and service latency.

Runs one named workload (or ``all`` of them, one after the other, from this
one process), checks every output, prints every end-to-end metric by name
and unit with its median, IQR and sample count, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  A schema-v1 record
(``schema_version``/``bench``/``metrics``/``gates``/``meta``) with the host
fingerprint goes to ``--out``.

    python3 layerbench/bench_layers.py --workload gk24-serial --seed 3 \\
        --seconds 25 --trace 0
    python3 layerbench/bench_layers.py --workload all --smoke

``--trace 1`` prints the per-layer metrics instead: the run measures half
its time untraced, then wraps each layer's public functions from the
outside (``layer_trace.py``) and measures the other half, so the tracing
overhead is reported next to the layer numbers.  Workloads, metrics and the
reasons behind them are in ``README.md``; names, units and bounds are in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = HERE / "results"

if not (ROOT / "src" / "repro").is_dir():  # never benchmark an installed copy
    raise SystemExit(f"bench_layers: no program under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from repro.core.instance import MKPInstance
    from repro.core.reduction import clear_selector_cache
    from repro.exact.bounds import solve_lp_relaxation
    from repro.instances import cb_instance, gk_instance
    from repro.master.result import ParallelRunResult
    from repro.obs.telemetry import RoundTelemetry
    from repro.parallel import MultiprocessingBackend, SerialBackend, SocketBackend
    from repro.service import JobManager, JobRequest, JobState, SolverPool
    from repro.variants import solve_cts2
except ImportError as exc:  # run outside a checkout that holds the program
    raise SystemExit(f"bench_layers: cannot import the program from {ROOT / 'src'}: {exc}")

from layer_trace import Tracer  # noqa: E402

#: Search seeds of the fixed-budget quality panel.  ``gap_pct`` is a mean
#: over this panel, not over ``--seed``: the LP gap of one solve varies by
#: up to a factor of two across seeds (GK10: 5.7-10.2 %), which no
#: affordable number of repeats averages down to a 1 % bound, while a fixed
#: panel makes the sync gap exact and any change in it a trajectory change.
PANEL_SEEDS = tuple(range(8))
#: Slices per run, each on its own fresh set-up.
N_SETUPS = 5
#: Set-ups timed before each slice; the last one serves the slice, the
#: others are torn down at once.  ``setup_s`` is the median of them all.
SETUPS_PER_SLICE = 3
#: Per-slave evaluation budget of the 1-round warm-up solve that ends a set-up.
WARMUP_EVALS = 1_000
#: Worker processes and concurrent clients never exceed this (2-core host).
MAX_PARALLEL = 2
#: To-target solves and jobs may run this many times the fixed rounds and
#: budget: margin for seeds the calibration did not see.
TTT_ROUND_FACTOR = 2
#: Wall seconds of one ``probe_s()`` on the reference host.  Timings are
#: reported in reference-host seconds: wall time x REF_PROBE_S / probe time.
REF_PROBE_S = 2.0e-3
#: Probes per set-up; the set-up's scale comes from their median.
SETUP_PROBES = 5
#: The service's clients meet this often so a probe can run on an idle pool.
SERVICE_CYCLE_S = 0.5


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.random((25, 500))
_PROBE_X = _PROBE_RNG.random(500)


def probe_s() -> float:
    """Wall time of a fixed piece of interpreter and numpy work.

    The probe calls no program code, so no change to the program can move
    it; only the host can.  The shared host runs the same CPU loop at two
    speeds about 1.8x apart and flips between them over milliseconds to
    minutes, which moved run medians by up to 25 % between runs of the same
    tree.  Probes taken between operations, while the program is idle,
    follow those flips: scaling each operation by them cut the run-to-run
    spread of gk24 latencies from 25 % to 5 %.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    for _ in range(200):
        (_PROBE_A @ _PROBE_X).argmax()
    return time.perf_counter() - t0


def host_scale(*probes: float) -> float:
    """Factor turning wall seconds into reference seconds, from the probe
    times taken around them (right before and right after, where possible)."""
    return REF_PROBE_S / _median(list(probes))


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveWorkload:
    """A single-client stream of fixed-budget and to-target solves.

    The stream repeats one fixed-budget solve (panel seed) followed by
    ``ttt_per_fixed`` to-target solves (seeds ``--seed + r``) until the run
    time is spent and the panel has been solved once.  To-target solves may
    run ``TTT_ROUND_FACTOR`` times the rounds (and budget) of a fixed-budget
    solve; one that ends below target is a failed operation.
    """

    name: str
    instance: Callable[[], MKPInstance]
    backend: Callable[[], Any]
    n_slaves: int
    n_rounds: int
    evals_per_slave: int
    #: target = LP value * (1 - target_gap_pct / 100), set by calibrate.py
    target_gap_pct: float
    ttt_per_fixed: int
    pipeline: str = "sync"
    core_ratio: float | None = None

    def solve(self, instance, backend, *, rounds: int, evals: int, seed: int,
              target: float | None = None) -> ParallelRunResult:
        return solve_cts2(
            instance,
            n_slaves=self.n_slaves,
            n_rounds=rounds,
            rng_seed=seed,
            max_evaluations=evals,
            target_value=target,
            backend=backend,
            pipeline=self.pipeline,
            core_ratio=self.core_ratio,
        )


def _socket_backend() -> SocketBackend:
    backend = SocketBackend(8, min_workers=MAX_PARALLEL)
    backend.attach_local_workers(MAX_PARALLEL)
    return backend


SOLVE_WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            name="gk24-serial",
            instance=lambda: gk_instance(24),
            backend=lambda: SerialBackend(4),
            n_slaves=4,
            n_rounds=8,
            evals_per_slave=1_000_000,
            target_gap_pct=7.8,
            ttt_per_fixed=4,
        ),
        SolveWorkload(
            name="gk10-shm-short",
            instance=lambda: gk_instance(10),
            backend=lambda: MultiprocessingBackend(8, batch_k=4, transport="shm"),
            n_slaves=8,
            n_rounds=150,
            evals_per_slave=150 * 150,
            target_gap_pct=13.0,
            ttt_per_fixed=24,
        ),
        SolveWorkload(
            name="cb30-socket-async",
            instance=lambda: cb_instance(30, 100, 0.25, 0),
            backend=_socket_backend,
            n_slaves=8,
            n_rounds=20,
            evals_per_slave=20 * 5_000,
            target_gap_pct=6.5,
            ttt_per_fixed=8,
            pipeline="async",
            core_ratio=0.5,
        ),
    )
}

SERVICE = "mixed-service-pipe"
#: (instance factory, to-target gap %) cycled by job index
SERVICE_MIX: tuple[tuple[Callable[[], MKPInstance], float], ...] = (
    (lambda: gk_instance(10), 17.1),
    (lambda: cb_instance(5, 100, 0.5, 0), 6.7),
    (lambda: gk_instance(12), 16.3),
)
SERVICE_ROUNDS = 4
SERVICE_EVALS = 10_000
#: every SERVICE_TTT_EVERY-th job carries a target
SERVICE_TTT_EVERY = 4

WORKLOADS = (*SOLVE_WORKLOADS, SERVICE)


# ---------------------------------------------------------------------- #
# Operations and checks
# ---------------------------------------------------------------------- #
@dataclass
class Op:
    """One client-visible operation: a solve or a service job."""

    kind: str  # "fixed" or "ttt"
    seed: int
    key: int  # panel seed (solve workloads) or instance index (service)
    wall: float
    result: ParallelRunResult | None = None
    error: str | None = None
    gap_pct: float = 0.0
    status: Any = None  # JobStatus (service only)
    scale: float = 1.0  # host_scale() of the probes around the operation

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale


def check_result(instance: MKPInstance, result: ParallelRunResult) -> list[str]:
    """Incumbent feasible, its value recomputed from profits·x, history monotone."""
    problems = []
    best = result.best
    if not instance.is_feasible(best.x):
        problems.append("infeasible incumbent")
    recomputed = float(instance.profits @ best.x)
    if abs(recomputed - best.value) > 1e-6 * max(1.0, abs(best.value)):
        problems.append(f"incumbent value {best.value} != profits.x {recomputed}")
    history = result.value_history
    if any(b < a for a, b in zip(history, history[1:])):
        problems.append("value_history not monotone")
    return problems


def grade(op: Op, instance: MKPInstance, lp: float, target: float | None,
          problems: list[str]) -> None:
    """Fill ``op.gap_pct``; mark a missed target failed; collect wrong outputs."""
    if op.result is None:
        return
    found = check_result(instance, op.result)
    problems.extend(f"{op.kind} seed {op.seed}: {p}" for p in found)
    op.gap_pct = 100.0 * (lp - op.result.best.value) / lp
    if op.kind == "ttt" and op.result.best.value < target:
        op.error = f"ended at {op.result.best.value} below target {target:.1f}"


def fresh(instance: MKPInstance) -> MKPInstance:
    """An uncached copy, so every set-up pays hot tables and hashing again."""
    return instance.renamed(instance.name)


@dataclass
class Run:
    """Everything one workload run measured."""

    #: (wall seconds, host scale) per set-up
    setups: list[tuple[float, float]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    #: ``ops`` split by untraced slice, for the per-slice tail latency
    windows: list[list[Op]] = field(default_factory=list)
    #: reference seconds the untraced slices spent running operations
    elapsed: float = 0.0
    traced_ops: list[Op] = field(default_factory=list)
    traced_elapsed: float = 0.0
    setup_tracer: Tracer | None = None
    tracer: Tracer | None = None
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


def _slices(seconds: float, n_setups: int, trace: bool) -> list[tuple[float, bool]]:
    """``(seconds, traced)`` per slice of the measured window.

    Every slice runs on its own fresh set-up.  Untraced runs use
    ``n_setups`` slices: the host's speed drifts over seconds, so set-ups
    spread across the run sample it the way the operations do, where
    back-to-back set-ups would all land in one state.  ``--trace 1`` runs
    an untraced half and a traced half.
    """
    if trace:
        return [(seconds / 2, False), (seconds / 2, True)]
    return [(seconds / n_setups, False)] * n_setups


# ---------------------------------------------------------------------- #
# Solve workloads
# ---------------------------------------------------------------------- #
def _solve_setup(w: SolveWorkload, base: MKPInstance):
    """One fresh construction through a 1-round warm-up solve, timed."""
    clear_selector_cache()  # the LP-core selector is part of set-up
    instance = fresh(base)
    scale = host_scale(*(probe_s() for _ in range(SETUP_PROBES)))
    t0 = time.perf_counter()
    backend = w.backend()
    try:
        w.solve(instance, backend, rounds=1, evals=WARMUP_EVALS, seed=0)
    except BaseException:
        backend.shutdown()
        raise
    return (time.perf_counter() - t0, scale), backend, instance


class SolveStream:
    """A solve workload's operation stream, resumed across slices."""

    def __init__(self, w: SolveWorkload, *, seed: int, target: float) -> None:
        self.w = w
        self.seed = seed
        self.target = target
        self.n_fixed = self.n_ttt = self.n_ops = 0

    def run(self, instance, backend, seconds: float,
            until_fixed: int = 0) -> tuple[list[Op], float]:
        """Operations until ``seconds`` pass and ``until_fixed`` fixed ones ran.

        Returns the operations and the reference seconds they took.
        """
        w = self.w
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        before = probe_s()  # the workers are idle between solves
        while self.n_fixed < until_fixed or time.perf_counter() < deadline:
            if self.n_ops % (w.ttt_per_fixed + 1) == 0:
                kind, key = "fixed", PANEL_SEEDS[self.n_fixed % len(PANEL_SEEDS)]
                run_seed, rounds, goal = key, w.n_rounds, None
                self.n_fixed += 1
            else:
                kind, key = "ttt", 0
                run_seed, rounds, goal = (self.seed + self.n_ttt,
                                          w.n_rounds * TTT_ROUND_FACTOR, self.target)
                self.n_ttt += 1
            self.n_ops += 1
            evals = w.evals_per_slave * rounds // w.n_rounds
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = w.solve(instance, backend, rounds=rounds, evals=evals,
                                 seed=run_seed, target=goal)
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            after = probe_s()
            ops.append(Op(kind, run_seed, key, wall, result, error=error,
                          scale=host_scale(before, after)))
            before = after
        return ops, sum(op.ref_wall for op in ops)


def run_solve_workload(w: SolveWorkload, *, seed: int, seconds: float, trace: bool,
                       n_setups: int, min_fixed: int) -> Run:
    base = w.instance()
    lp = solve_lp_relaxation(base).value
    target = lp * (1.0 - w.target_gap_pct / 100.0)
    run = Run(setup_tracer=Tracer() if trace else None)
    stream = SolveStream(w, seed=seed, target=target)
    slices = _slices(seconds, n_setups, trace)
    for i, (slice_s, traced) in enumerate(slices):
        with run.setup_tracer or contextlib.nullcontext():
            for _ in range(SETUPS_PER_SLICE - 1):
                timing, backend, _ = _solve_setup(w, base)
                backend.shutdown()
                run.setups.append(timing)
            timing, backend, instance = _solve_setup(w, base)
        run.setups.append(timing)
        # the panel completes in the last slice of an untraced run; a traced
        # slice needs one fixed-budget solve for the overhead comparison
        until = stream.n_fixed + 1 if traced else min_fixed if i == len(slices) - 1 else 0
        try:
            if traced:
                run.tracer = Tracer()
                with run.tracer:
                    run.traced_ops, run.traced_elapsed = stream.run(
                        instance, backend, slice_s, until)
            else:
                ops, elapsed = stream.run(instance, backend, slice_s, until)
                run.ops += ops
                run.windows.append(ops)
                run.elapsed += elapsed
        finally:
            backend.shutdown()
    for op in run.ops + run.traced_ops:
        grade(op, base, lp, target, run.problems)
    return run


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #
def _job_request(i: int, seed: int, instances, targets) -> tuple[str, int, JobRequest]:
    """Job ``i`` of the mix: instance ``i mod 3``, every 4th one to target."""
    k = i % len(instances)
    if i % SERVICE_TTT_EVERY == SERVICE_TTT_EVERY - 1:
        return "ttt", k, JobRequest(
            instances[k], n_rounds=TTT_ROUND_FACTOR * SERVICE_ROUNDS, rng_seed=seed + i,
            max_evaluations=TTT_ROUND_FACTOR * SERVICE_EVALS, target_value=targets[k])
    return "fixed", k, JobRequest(
        instances[k], n_rounds=SERVICE_ROUNDS, rng_seed=seed + i,
        max_evaluations=SERVICE_EVALS)


def _new_pool() -> SolverPool:
    # 2 slots x 1 worker process (4 slaves batched per worker)
    return SolverPool.multiprocessing(MAX_PARALLEL, 4, transport="pipe", batch_k=4)


def _service_counters(manager: JobManager) -> dict[str, float]:
    backends = [slot.backend for slot in manager.pool.slots()]
    cache = manager.cache.stats()
    return {
        "leases": manager.pool.leases,
        "affinity_hits": manager.pool.affinity_hits,
        "warm_reuses": sum(b.warm_reuses for b in backends),
        "rebinds": sum(b.rebinds for b in backends),
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
    }


async def _service_setup(bases, problems: list[str]):
    """A fresh pool and manager through two 1-round warm-up jobs, timed."""
    instances = [fresh(b) for b in bases]
    scale = host_scale(*(probe_s() for _ in range(SETUP_PROBES)))
    t0 = time.perf_counter()
    pool = _new_pool()
    # Spawn the workers from this thread: when two first jobs fork them
    # concurrently from executor threads, a worker sometimes inherits a held
    # lock and hangs at shutdown for the full shutdown_timeout_s.
    pool.prewarm(instances[0])
    manager = JobManager(pool)
    warm = [manager.submit(JobRequest(instances[k], n_rounds=1, max_evaluations=WARMUP_EVALS))
            for k in range(MAX_PARALLEL)]
    for job_id in warm:
        status = await manager.wait(job_id)
        if status.state is not JobState.DONE:
            problems.append(f"warm-up job {status.state.value}: {status.error}")
    return (time.perf_counter() - t0, scale), manager, instances


async def _service_async(run: Run, bases, targets, *, seed: int, seconds: float,
                         trace: bool, n_setups: int) -> list[JobRequest]:
    requests: list[JobRequest] = []

    async def window(manager, instances, window_s: float) -> tuple[list[Op], float]:
        """Closed loop: each client submits its next job when the last is done.

        The clients meet every ``SERVICE_CYCLE_S`` so the host probe runs on
        an idle pool.  Returns the jobs and the reference seconds they took.
        """
        ops: list[Op] = []
        deadline = time.perf_counter() + window_s
        elapsed = 0.0

        async def client(cycle_end: float, cycle: list[Op]) -> None:
            while time.perf_counter() < cycle_end:
                kind, k, request = _job_request(len(requests), seed, instances, targets)
                requests.append(request)
                t0 = time.perf_counter()
                job_id = manager.submit(request)
                status = await manager.wait(job_id)
                op = Op(kind, request.rng_seed, k, time.perf_counter() - t0,
                        manager.result(job_id), status=status)
                if status.state is not JobState.DONE:
                    op.error = f"job {status.state.value}: {status.error}"
                cycle.append(op)

        before = probe_s()
        while time.perf_counter() < deadline:
            cycle: list[Op] = []
            t0 = time.perf_counter()
            cycle_end = min(deadline, t0 + SERVICE_CYCLE_S)
            await asyncio.gather(*(client(cycle_end, cycle) for _ in range(MAX_PARALLEL)))
            wall = time.perf_counter() - t0
            after = probe_s()
            scale = host_scale(before, after)
            for op in cycle:
                op.scale = scale
            ops += cycle
            elapsed += wall * scale
            before = after
        return ops, elapsed

    for slice_s, traced in _slices(seconds, n_setups, trace):
        with run.setup_tracer or contextlib.nullcontext():
            for _ in range(SETUPS_PER_SLICE - 1):
                timing, manager, _ = await _service_setup(bases, run.problems)
                await manager.close()
                run.setups.append(timing)
            timing, manager, instances = await _service_setup(bases, run.problems)
        run.setups.append(timing)
        try:
            if traced:
                before = _service_counters(manager)
                run.tracer = Tracer()
                with run.tracer:
                    run.traced_ops, run.traced_elapsed = await window(
                        manager, instances, slice_s)
                after = _service_counters(manager)
                run.counters = {k: after[k] - before[k] for k in after}
            else:
                ops, elapsed = await window(manager, instances, slice_s)
                run.ops += ops
                run.windows.append(ops)
                run.elapsed += elapsed
        finally:
            await manager.close()
    return requests


def run_service_workload(*, seed: int, seconds: float, trace: bool, n_setups: int) -> Run:
    bases = [make() for make, _ in SERVICE_MIX]
    lps = [solve_lp_relaxation(b).value for b in bases]
    targets = [lp * (1.0 - gap / 100.0) for lp, (_, gap) in zip(lps, SERVICE_MIX)]
    run = Run(setup_tracer=Tracer() if trace else None)
    requests = asyncio.run(_service_async(
        run, bases, targets, seed=seed, seconds=seconds, trace=trace, n_setups=n_setups))
    ops = run.ops + run.traced_ops
    for op in ops:
        grade(op, bases[op.key], lps[op.key], targets[op.key], run.problems)
    # The first job of each (instance, kind) must equal a direct blocking
    # solve of the same request on a SerialBackend: the service multiplexes,
    # it never perturbs the search.
    seen = set()
    for op in sorted(ops, key=lambda o: o.seed):
        if (op.key, op.kind) in seen or op.result is None:
            continue
        seen.add((op.key, op.kind))
        request = requests[op.seed - seed]
        direct = solve_cts2(
            fresh(bases[op.key]), n_slaves=4, n_rounds=request.n_rounds,
            rng_seed=request.rng_seed, max_evaluations=request.max_evaluations,
            target_value=request.target_value, backend=SerialBackend(4))
        if (direct.best.value != op.result.best.value
                or not np.array_equal(direct.best.x, op.result.best.x)
                or direct.value_history != op.result.value_history):
            run.problems.append(f"job seed {op.seed} differs from a direct solve")
    return run


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        m = _median(values)
        return m, m
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run: Run) -> dict[str, tuple[float, list[float]]]:
    """Every end-to-end metric as ``(value, per-sample values)``.

    Times are in reference-host seconds (see ``probe_s``).
    """
    done = [op for op in run.ops if not op.failed]
    fixed = [op for op in done if op.kind == "fixed"]
    by_key: dict[int, list[float]] = {}
    for op in fixed:
        by_key.setdefault(op.key, []).append(op.gap_pct)
    walls = [op.ref_wall for op in done]
    ttt = [op.ref_wall for op in done if op.kind == "ttt"]
    # The tail of one whole run rests on its two or three slowest operations
    # (a solve workload has only 100-500), so it swings with whichever slice
    # the host was slow in; the median of the slices' tails does not.
    tails = [_p99(w) for w in ([op.ref_wall for op in ops if not op.failed]
                               for ops in run.windows) if w]
    setups = [wall * scale for wall, scale in run.setups]
    return {
        "setup_s": (_median(setups), setups),
        "solve_s": (_median([op.ref_wall for op in fixed]), [op.ref_wall for op in fixed]),
        "ttt_s": (_median(ttt), ttt),
        # mean of per-key means: every panel seed (or service instance)
        # weighs the same however often the window repeated it
        "gap_pct": (statistics.fmean(statistics.fmean(v) for v in by_key.values())
                    if by_key else 0.0, [op.gap_pct for op in fixed]),
        "jobs_per_s": (_ratio(len(done), run.elapsed), []),
        "job_p50_s": (_median(walls), walls),
        "job_p99_s": (_median(tails), tails),
    }


def per_layer(run: Run, service: bool) -> dict[str, float]:
    """Every per-layer metric from the traced half of a ``--trace 1`` run."""
    tr = run.tracer
    st = tr.summary()

    def calls(name: str) -> float:
        return st.get(name, {}).get("calls", 0)

    def total(*names: str) -> float:
        return sum(st.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(*names: str) -> float:
        return sum(st.get(n, {}).get("self_s", 0.0) for n in names)

    ops = [op for op in run.traced_ops if op.result is not None]
    results = [op.result for op in ops]
    rounds = sum(len(r.rounds) for r in results)
    if service:
        # job run time (lease held), so queue wait is not counted as uncovered
        busy = sum(op.status.finished_s - op.status.started_s for op in ops)
    else:
        busy = sum(op.wall for op in ops)
    kernel_s = total("kernel.tabu_search")
    evals = tr.counts["kernel.evals"] or tr.counts["report.evals"]
    moves = tr.counts["kernel.moves"] or tr.counts["report.moves"]
    idle = [
        RoundTelemetry(round_index=s.round_index, phase_seconds=s.phase_wall_seconds,
                       gather_idle_s=s.gather_idle_s).idle_ratio()
        for r in results for s in r.rounds
    ]
    stats = [r.pipeline_stats for r in results if r.pipeline_stats]
    pipeline_wait = sum(s["master_wait_s"] for s in stats)
    sel = run.setup_tracer.summary().get("reduction.shared_selector", {})

    metrics = {
        "kernel.evals_per_s": _ratio(tr.counts["kernel.evals"], kernel_s),
        "kernel.moves_per_s": _ratio(tr.counts["kernel.moves"], kernel_s),
        "kernel.evals_per_move": _ratio(evals, moves),
        "kernel.busy_frac": _ratio(kernel_s, busy),
        "runtime.task_overhead_us": 1e6 * _ratio(self_s("runtime.execute"),
                                                 calls("runtime.execute")),
        "master.isp_us_per_round": 1e6 * _ratio(total("master.isp"), rounds),
        "master.sgp_us_per_round": 1e6 * _ratio(total("master.sgp"), rounds),
        "master.self_us_per_round": 1e6 * _ratio(self_s("master.run"), rounds),
        "codec.encode_us_per_task": 1e6 * _ratio(
            self_s("codec.encode_task", "codec.encode_task_batch"),
            calls("codec.encode_task")),
        "codec.decode_us_per_report": 1e6 * _ratio(
            self_s("codec.decode_report", "codec.decode_report_batch"),
            calls("codec.decode_report")),
        "codec.bytes_per_round": _ratio(sum(r.bytes_sent for r in results), rounds),
        "carrier.round_ms": 1e3 * _ratio(
            self_s("carrier.run_round", "carrier.dispatch", "carrier.next_report"), rounds),
        "carrier.master_wait_ms_per_round": 1e3 * _ratio(
            tr.counts["telemetry.master_wait_s"] + pipeline_wait, rounds),
        "carrier.idle_ratio": statistics.fmean(idle) if idle else 0.0,
        "pipeline.master_wait_s": _ratio(pipeline_wait, len(stats)),
        "pipeline.mean_queue_depth": (
            statistics.fmean(s["mean_queue_depth"] for s in stats) if stats else 0.0),
        "pipeline.burst_failures": float(sum(s["burst_failures"] for s in stats)),
        "reduction.selector_ms": 1e3 * _ratio(sel.get("total_s", 0.0), len(run.setups)),
        "obs.emit_us": 1e6 * _ratio(self_s("obs.emit"), calls("obs.emit")),
        "obs.events_per_job": _ratio(calls("obs.emit"), len(ops)),
        "service.queue_wait_ms_p50": 0.0,
        "service.run_ms_p50": 0.0,
        "service.warm_lease_ratio": 0.0,
        "service.affinity_hit_ratio": 0.0,
        "service.cache_hit_ratio": 0.0,
        "trace.coverage": _ratio(tr.root_seconds(), busy),
    }
    if service:
        c = run.counters
        metrics.update({
            "service.queue_wait_ms_p50": 1e3 * _median(
                [op.status.started_s - op.status.submitted_s for op in ops]),
            "service.run_ms_p50": 1e3 * _median(
                [op.status.finished_s - op.status.started_s for op in ops]),
            "service.warm_lease_ratio": _ratio(c["warm_reuses"],
                                               c["warm_reuses"] + c["rebinds"]),
            "service.affinity_hit_ratio": _ratio(c["affinity_hits"], c["leases"]),
            "service.cache_hit_ratio": _ratio(c["cache_hits"],
                                              c["cache_hits"] + c["cache_misses"]),
        })
        # throughput lost to tracing, as a share of the untraced throughput
        untraced = _ratio(sum(not op.failed for op in run.ops), run.elapsed)
        traced = _ratio(sum(not op.failed for op in run.traced_ops), run.traced_elapsed)
        metrics["trace_overhead_pct"] = 100.0 * _ratio(untraced - traced, untraced)
    else:
        # slowdown of the median fixed-budget solve
        untraced = end_to_end(run)["solve_s"][0]
        traced = _median([op.ref_wall for op in ops if op.kind == "fixed"])
        metrics["trace_overhead_pct"] = 100.0 * _ratio(traced - untraced, untraced)
    return metrics


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def fingerprint(args: argparse.Namespace) -> dict:
    """Host and run context stored in the record's ``meta``."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True).stdout.strip())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "panel_seeds": list(PANEL_SEEDS[: args.panel]),
        "n_setups": args.setups,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the traced half's raw spans here (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, 2 set-ups, 2 panel seeds")
    parser.add_argument("--out", type=Path, default=None,
                        help="schema-v1 result file (default: layerbench/results/)")
    args = parser.parse_args(argv)
    args.setups, args.panel = N_SETUPS, len(PANEL_SEEDS)
    if args.smoke:
        args.seconds, args.setups, args.panel = min(args.seconds, 2.0), 2, 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record: dict[str, dict] = {}
    gates: dict[str, dict] = {}
    flat: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        if name == SERVICE:
            run = run_service_workload(seed=args.seed, seconds=args.seconds,
                                       trace=bool(args.trace), n_setups=args.setups)
        else:
            run = run_solve_workload(SOLVE_WORKLOADS[name], seed=args.seed,
                                     seconds=args.seconds, trace=bool(args.trace),
                                     n_setups=args.setups, min_fixed=args.panel)
        if args.trace:
            values = {k: (v, []) for k, v in per_layer(run, name == SERVICE).items()}
            if args.trace_out is not None:
                out = args.trace_out
                if len(names) > 1:
                    out = out.with_name(f"{out.stem}-{name}{out.suffix}")
                run.tracer.write(out)
        else:
            values = end_to_end(run)
        if set(values) != set(units):
            raise SystemExit(f"bench_layers: metrics {sorted(set(values) ^ set(units))} "
                             f"disagree with {SPEC_PATH.name}")
        ops = run.ops + run.traced_ops
        n_failed = sum(op.failed for op in ops)
        attempted += len(ops)
        failed += n_failed
        correct = correct and not run.problems
        gates[name] = {"correct": not run.problems, "attempted": len(ops),
                       "failed": n_failed, "problems": run.problems[:20],
                       "errors": sorted({op.error for op in ops if op.failed})[:20],
                       "host_scale_median": _median([op.scale for op in ops])}
        print(f"== {name}: {len(ops)} ops, {n_failed} failed, "
              f"{'correct' if not run.problems else 'INCORRECT'}, "
              f"host scale {_fmt(gates[name]['host_scale_median'])} "
              f"(times below are in reference-host seconds)")
        print(f"   {'metric':<34} {'unit':<8} {'value':>12} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'n':>6}")
        record[name] = {}
        for metric in units:
            value, samples = values[metric]
            row = {"value": value, "unit": units[metric], "n": len(samples) or len(ops)}
            spread = ["-"] * 3
            if samples:
                q1, q3 = _quartiles(samples)
                row.update(median=_median(samples), q1=q1, q3=q3, samples=samples)
                spread = [_fmt(row["median"]), _fmt(q1), _fmt(q3)]
            record[name][metric] = row
            print(f"   {metric:<34} {units[metric]:<8} {_fmt(value):>12} "
                  + " ".join(f"{s:>12}" for s in spread) + f" {row['n']:>6}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            flat[key] = {"value": value, "unit": units[metric]}
        for problem in run.problems[:5]:
            print(f"   problem: {problem}")

    out = args.out or RESULTS_DIR / (
        f"BENCH_layers-{args.workload}-s{args.seed}{'-trace' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": 1, "bench": "layers", "metrics": record,
               "gates": gates, "meta": fingerprint(args)}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"-> {out}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": flat}))
    return 0 if correct else 1


def _children() -> list[int]:
    """PIDs whose parent is this process, from ``/proc`` (empty elsewhere)."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError, ValueError, IndexError):
            # the fields after the ")" closing the command name: state ppid ...
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == me:
                pids.append(int(stat.parent.name))
    return pids


def _wait_gone(pid: int, timeout_s: float) -> None:
    """Reap ``pid``; SIGKILL it if it has not exited within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Backends join their own workers on shutdown.  What is left are workers a
    failed run did not shut down, and the multiprocessing resource tracker
    that shared-memory transports start: it is built to outlive its parent,
    so without this it would still be running after the benchmark exits.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
    for proc in multiprocessing.active_children():
        proc.join(timeout_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # closing the tracker's pipe is what tells it to exit
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
            if tracker._pid is not None:
                _wait_gone(tracker._pid, timeout_s)
            tracker._pid = None
    for pid in _children():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
        _wait_gone(pid, timeout_s)


if __name__ == "__main__":
    # a terminated run still stops its processes on the way out; forked
    # workers keep the default, so terminating them still kills them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    try:
        code = main()
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        stop_children()
    sys.exit(code)
