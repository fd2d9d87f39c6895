"""Tracked benchmarks for the packed-bitset codec and move-selection layer.

Three numbers, all folded into ``benchmarks/results/BENCH_bitset.json``:

* **hot-path moves/sec** on the pinned GK24 instance (same compound-move
  workload as ``bench_kernels.measure_hot_path``), compared against the
  PR-1 flat-array kernel baseline re-measured on this host — target >= 1.5x;
* **wire bytes per master round**, measured from
  ``MessageRouter.total_bytes`` over synchronous serial rounds: the router
  charges every task and report its :class:`~repro.parallel.shm.WireCodec`
  frame length, so each solution costs ``8 + ceil(n/8)`` bytes;
* **master-round latency** for the same run (wall seconds per round).

``--smoke`` shrinks every budget to a seconds-scale run and *asserts* the
exactness contract (the final incumbent survives a codec round-trip) and
the byte bound (no round charges more than one full-size task and report
frame per slave) without writing the results file — that mode is wired into
CI so hot-path regressions fail the build instead of silently landing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np

from bench_kernels import measure_hot_path
from repro.core.solution import Solution
from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearchConfig
from repro.core.termination import Budget
from repro.instances import gk_suite
from repro.master.master import MasterConfig, MasterProcess
from repro.parallel.backends import SerialBackend
from repro.parallel.message import SlaveReport, SlaveTask
from repro.parallel.shm import WireCodec

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_bitset.json"

#: PR-1 kernel baseline for the identical workload, re-measured on the same
#: host immediately before the bitset layer landed (fastest of 3x3s windows,
#: ``git checkout <pr1>; python -c 'measure_hot_path(...)'``).  The tracked
#: speedup divides against this number, not the original BENCH_kernels.json
#: entry, so host drift between sessions cannot fake a win.
PR1_BASELINE = {
    "instance": "GK24-25x500",
    "seconds": 3.006,
    "repeats": 3,
    "moves": 22500,
    "evaluations": 13287551,
    "moves_per_sec": 7486.0,
    "evals_per_sec": 4420916.0,
}


def round_byte_bound(n_items: int, n_slaves: int) -> int:
    """Most codec bytes one round can charge: a full task and report per slave.

    The task sets every budget field and a core ratio, the report carries a
    full elite array; solutions are packed, so the bound grows with ``n/8``.
    """
    codec = WireCodec(n_items)
    sol = Solution(np.zeros(n_items, dtype=np.int8), 0.0)
    task = SlaveTask(
        x_init=sol,
        strategy=Strategy(1, 1, 1, core_ratio=0.5),
        budget=Budget(1, 1, 1.0, 1.0),
        seed=0,
    )
    report = SlaveReport(0, sol, elite=[sol] * TabuSearchConfig().elite_size)
    return n_slaves * (len(codec.encode_task(task)) + len(codec.encode_report(report)))


def measure_master_round(
    *,
    n_slaves: int = 4,
    n_rounds: int = 4,
    evals_per_slave: int = 200_000,
    rng_seed: int = 42,
) -> dict:
    """Run a synchronous master over the serial backend; report bytes + time.

    The run is fully deterministic for a fixed seed, so the byte figures are
    exact; only the wall times vary between hosts.
    """
    instance = gk_suite()[23]
    cfg = MasterConfig(n_slaves=n_slaves, n_rounds=n_rounds)
    backend = SerialBackend(cfg.n_slaves)
    master = MasterProcess(instance, cfg, backend, rng_seed=rng_seed)
    t0 = time.perf_counter()
    result = master.run(budget_per_slave=Budget(max_evaluations=evals_per_slave))
    elapsed = time.perf_counter() - t0
    router = backend.router
    codec = WireCodec(instance.n_items)
    echoed = codec.decode_report(codec.encode_report(SlaveReport(0, result.best))).best
    if echoed != result.best or echoed.value != result.best.value:
        raise AssertionError("the final incumbent does not survive a codec round-trip")
    return {
        "instance": instance.name,
        "n_slaves": n_slaves,
        "n_rounds": n_rounds,
        "evals_per_slave": evals_per_slave,
        "best_value": result.best.value,
        "best_x_sha": hashlib.sha256(result.best.x.tobytes()).hexdigest()[:16],
        "solution_frame_nbytes": codec.solution_nbytes,
        "total_bytes": router.total_bytes,
        "bytes_per_round": round(router.total_bytes / n_rounds, 1),
        "round_byte_bound": round_byte_bound(instance.n_items, n_slaves),
        "bytes_by_tag": {str(k): v for k, v in sorted(router.bytes_by_tag.items())},
        "total_messages": router.total_messages,
        "wall_seconds": round(elapsed, 3),
        "seconds_per_round": round(elapsed / n_rounds, 4),
    }


def run_suite(*, seconds: float, repeats: int, rounds: int, evals: int) -> dict:
    hot = measure_hot_path(seconds=seconds, repeats=repeats)
    master_round = measure_master_round(n_rounds=rounds, evals_per_slave=evals)
    return {
        "pr1_baseline": PR1_BASELINE,
        "bitset_hot_path": hot,
        "moves_per_sec_speedup": round(
            hot["moves_per_sec"] / PR1_BASELINE["moves_per_sec"], 2
        ),
        "master_round": master_round,
    }


def smoke() -> None:
    """Seconds-scale CI gate: exactness always, throughput as a soft floor."""
    data = run_suite(seconds=1.0, repeats=1, rounds=2, evals=50_000)
    speedup = data["moves_per_sec_speedup"]
    master_round = data["master_round"]
    per_round, bound = master_round["bytes_per_round"], master_round["round_byte_bound"]
    print(
        f"smoke: {data['bitset_hot_path']['moves_per_sec']:.0f} moves/s "
        f"({speedup:.2f}x vs PR-1 same-host), {per_round:.0f} wire bytes/round "
        f"(bound {bound}), incumbent survives the codec"
    )
    # Exactness is non-negotiable (measure_master_round already asserted
    # the codec round-trip).  The byte figures are deterministic -> hard-gate
    # them; the throughput floor is deliberately loose because CI hosts are
    # noisy and differ from the tracked-benchmark host.
    assert 0 < per_round <= bound, f"wire bytes per round {per_round} exceed {bound}"
    assert speedup >= 0.8, f"hot path regressed catastrophically: {speedup}x"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale CI gate")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--evals", type=int, default=200_000)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.smoke:
        smoke()
        return

    data = run_suite(
        seconds=args.seconds, repeats=args.repeats, rounds=args.rounds, evals=args.evals
    )
    data["python"] = platform.python_version()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(
        f"bitset hot path: {data['bitset_hot_path']['moves_per_sec']:.0f} moves/s "
        f"({data['moves_per_sec_speedup']:.2f}x vs PR-1), "
        f"{data['master_round']['bytes_per_round']:.0f} wire bytes/round -> {args.out}"
    )


if __name__ == "__main__":
    main()
