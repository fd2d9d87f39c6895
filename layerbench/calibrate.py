"""Calibrate the to-target gaps used by ``bench_layers.py``.

For each workload, solves seeds ``0..N-1`` at the fixed budget and prints
the worst LP gap over the seeds at half and at the full budget.  The
suggested target is 1.2 times the full-budget worst case, rounded up to
0.1 %: a run draws hundreds of to-target seeds the calibration never saw,
and a few seeds stall for many rounds far above the typical gap (GK24:
6.4 % against a median of 1.3 % over 128 seeds), so a target the typical
seed reaches by half the budget would fail operations.  To-target solves
also get ``TTT_ROUND_FACTOR`` times the rounds.  A missed target counts as
a failed operation.

    python3 layerbench/calibrate.py --seeds 128
"""

from __future__ import annotations

import argparse
import math

import bench_layers as bl


def _gaps(lp: float, history: list[float]) -> list[float]:
    return [100.0 * (lp - v) / lp for v in history]


def calibrate_solve(w: bl.SolveWorkload, n_seeds: int) -> tuple[float, float]:
    instance = w.instance()
    lp = bl.solve_lp_relaxation(instance).value
    backend = w.backend()
    half, full = [], []
    try:
        for seed in range(n_seeds):
            result = w.solve(instance, backend, rounds=w.n_rounds,
                             evals=w.evals_per_slave, seed=seed)
            gaps = _gaps(lp, result.value_history)
            half.append(gaps[w.n_rounds // 2])
            full.append(gaps[-1])
    finally:
        backend.shutdown()
    return max(half), max(full)


def calibrate_service(k: int, n_seeds: int) -> tuple[float, float]:
    instance = bl.SERVICE_MIX[k][0]()
    lp = bl.solve_lp_relaxation(instance).value
    backend = bl.SerialBackend(4)
    half, full = [], []
    for seed in range(n_seeds):
        result = bl.solve_cts2(instance, n_slaves=4, n_rounds=bl.SERVICE_ROUNDS,
                               rng_seed=seed, max_evaluations=bl.SERVICE_EVALS,
                               backend=backend)
        gaps = _gaps(lp, result.value_history)
        half.append(gaps[bl.SERVICE_ROUNDS // 2])
        full.append(gaps[-1])
    return max(half), max(full)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=128)
    parser.add_argument("--workload", choices=(*bl.WORKLOADS, "all"), default="all")
    args = parser.parse_args()
    rows = []
    for name in bl.SOLVE_WORKLOADS:
        if args.workload in (name, "all"):
            rows.append((name, bl.SOLVE_WORKLOADS[name].target_gap_pct,
                         *calibrate_solve(bl.SOLVE_WORKLOADS[name], args.seeds)))
    if args.workload in (bl.SERVICE, "all"):
        for k, (make, target) in enumerate(bl.SERVICE_MIX):
            rows.append((f"{bl.SERVICE}[{make().name}]", target,
                         *calibrate_service(k, args.seeds)))
    print(f"{'workload':<44} {'half max':>9} {'full max':>9} {'suggest':>8} {'in use':>7}")
    for name, in_use, half, full in rows:
        suggest = math.ceil(full * 12) / 10
        print(f"{name:<44} {half:>9.3f} {full:>9.3f} {suggest:>8.1f} {in_use:>7.1f}")


if __name__ == "__main__":
    main()
