"""Pipelined async master vs the Fig. 2 barrier under seeded stragglers.

The synchronous master pays every round's gather wall to its *slowest*
slave: one straggler stalls the whole fleet at the barrier.  The
bounded-staleness pipeline (DESIGN.md §5.9) keeps up to two bursts in
flight per slave and re-dispatches the moment each report lands,
so a straggler stalls only itself while its peers keep searching.

This bench A/Bs ``pipeline="sync"`` vs ``pipeline="async"`` (at
``max_staleness=3`` — one burst beyond the double-buffer default, for
deeper sleep/compute overlap) over identical multiprocessing fleets on
GK24 (25x500) at ``P = 8``:

* ``straggle`` — a seeded :meth:`FaultPlan.stragglers` plan (a quarter of
  the (round, slave) cells sleep 8x slower).  The headline gate:
  async delivers >= 1.5x the effective evaluations per wall second
  (>= 1.3x in ``--smoke``, which runs on noisy CI hosts).
* ``no_fault`` — the same A/B with no fault plan.  The pipeline machinery
  (windows, incremental ISP/SGP, burst telemetry) may cost at most 5%
  throughput when there is nothing to overlap (15% in ``--smoke``).
* ``determinism`` — two async runs over :class:`SerialBackend` replay with
  the same seed must agree bit-for-bit on the incumbent and the value
  history (the seeded-determinism contract of the async mode).

Results land in ``benchmarks/results/BENCH_pipeline.json`` via the shared
schema (``write_bench_json``) and fold into ``BENCH_index.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--smoke]
"""

from __future__ import annotations

import argparse
import platform
from pathlib import Path

import pytest

from repro.core import TabuSearchConfig
from repro.instances import gk_instance
from repro.parallel import FaultPlan, MultiprocessingBackend
from repro.variants.runner import solve_cts2

from common import publish, scaled, write_bench_json

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_pipeline.json"

GK_NUMBER = 24  # GK24-25x500: the transport-gate instance
N_SLAVES = 8
N_ROUNDS = 6
EVALS_PER_SLAVE = 24_000  # whole-run per-slave budget (split over rounds)
MAX_STALENESS = 3  # one burst beyond the double-buffer default: deeper overlap
STRAGGLE_SEED = 1997
STRAGGLE_RATE = 0.25
STRAGGLE_FACTOR = 8.0


def _run_arm(instance, pipeline: str, plan: FaultPlan | None, evals: int) -> dict:
    """One solve on a fresh (pre-warmed) MP fleet; returns throughput figures.

    The backend is started before the solve so worker spawn cost — paid
    identically by both arms — stays out of the measured wall time.
    """
    backend = MultiprocessingBackend(N_SLAVES, fault_plan=plan or FaultPlan.none())
    with backend:
        backend.start(instance, TabuSearchConfig())
        result = solve_cts2(
            instance,
            n_slaves=N_SLAVES,
            n_rounds=N_ROUNDS,
            rng_seed=7,
            max_evaluations=evals,
            backend=backend,
            pipeline=pipeline,
            max_staleness=MAX_STALENESS if pipeline == "async" else None,
        )
    assert result.n_rounds == N_ROUNDS
    assert all(
        a <= b for a, b in zip(result.value_history, result.value_history[1:])
    ), "incumbent regressed"
    return {
        "wall_s": result.wall_seconds,
        "evaluations": result.total_evaluations,
        "evals_per_sec": result.total_evaluations / result.wall_seconds,
        "best": result.best.value,
        "pipeline_stats": dict(result.pipeline_stats),
    }


def measure_ab(instance, plan: FaultPlan | None, evals: int, repeats: int) -> dict:
    """Interleaved best-of-``repeats`` sync vs async A/B (same seeds/plan)."""
    best: dict[str, dict] = {}
    for _ in range(max(1, repeats)):
        for pipeline in ("sync", "async"):
            arm = _run_arm(instance, pipeline, plan, evals)
            if (
                pipeline not in best
                or arm["evals_per_sec"] > best[pipeline]["evals_per_sec"]
            ):
                best[pipeline] = arm
    return {
        "sync": best["sync"],
        "async": best["async"],
        "speedup": best["async"]["evals_per_sec"] / best["sync"]["evals_per_sec"],
    }


def measure_determinism(instance, evals: int) -> dict:
    """Async over SerialBackend replay: same seed => same trajectory."""
    runs = [
        solve_cts2(
            instance,
            n_slaves=N_SLAVES,
            n_rounds=N_ROUNDS,
            rng_seed=13,
            max_evaluations=evals,
            pipeline="async",
        )
        for _ in range(2)
    ]
    return {
        "best_values": [r.best.value for r in runs],
        "identical": bool(
            runs[0].best.value == runs[1].best.value
            and runs[0].value_history == runs[1].value_history
            and (runs[0].best.items == runs[1].best.items).all()
        ),
    }


def measure(*, smoke: bool = False) -> dict:
    instance = gk_instance(GK_NUMBER)
    evals = scaled(EVALS_PER_SLAVE // (2 if smoke else 1))
    repeats = 2 if smoke else 3
    plan = FaultPlan.stragglers(
        STRAGGLE_SEED,
        N_SLAVES,
        N_ROUNDS,
        rate=STRAGGLE_RATE,
        factor=STRAGGLE_FACTOR,
    )
    return {
        "instance": f"GK{GK_NUMBER:02d}",
        "n_slaves": N_SLAVES,
        "n_rounds": N_ROUNDS,
        "evals_per_slave": evals,
        "repeats": repeats,
        "smoke": smoke,
        "straggle_plan": {
            "seed": STRAGGLE_SEED,
            "rate": STRAGGLE_RATE,
            "factor": STRAGGLE_FACTOR,
            "n_events": plan.n_events,
        },
        "straggle": measure_ab(instance, plan, evals, repeats),
        "no_fault": measure_ab(instance, None, evals, repeats),
        "determinism": measure_determinism(instance, evals),
        "python": platform.python_version(),
    }


def render(data: dict) -> str:
    st, nf = data["straggle"], data["no_fault"]
    lines = [
        f"GK instance {data['instance']}, P={data['n_slaves']}, "
        f"{data['n_rounds']} rounds, {data['evals_per_slave']} evals/slave, "
        f"straggle rate {data['straggle_plan']['rate']} "
        f"x{data['straggle_plan']['factor']:.0f} "
        f"({data['straggle_plan']['n_events']} events)",
        f"{'arm':<28} {'evals/sec':>12} {'wall s':>8}",
    ]
    for regime, ab in (("straggle", st), ("no-fault", nf)):
        for pipeline in ("sync", "async"):
            arm = ab[pipeline]
            lines.append(
                f"{regime + ' ' + pipeline:<28} {arm['evals_per_sec']:>12,.0f} "
                f"{arm['wall_s']:>8.2f}"
            )
    ps = st["async"]["pipeline_stats"]
    lines += [
        f"straggle speedup: x{st['speedup']:.2f} (gate: >= 1.5, smoke >= 1.3)",
        f"no-fault ratio:   x{nf['speedup']:.2f} (gate: >= 0.95, smoke >= 0.85)",
        f"async pipeline: bursts={ps.get('bursts_completed', 0):.0f} "
        f"failures={ps.get('burst_failures', 0):.0f} "
        f"max_staleness={ps.get('max_staleness', 0):.0f} "
        f"mean_depth={ps.get('mean_queue_depth', 0):.2f} "
        f"reclaimed_idle={ps.get('reclaimed_idle_s', 0):.2f}s",
        f"serial-replay determinism: {data['determinism']['identical']}",
    ]
    return "\n".join(lines)


def gates(data: dict, *, smoke: bool) -> dict:
    straggle_floor = 1.3 if smoke else 1.5
    no_fault_floor = 0.85 if smoke else 0.95
    return {
        "straggle_speedup": {
            "value": round(data["straggle"]["speedup"], 3),
            "threshold": straggle_floor,
            "passed": data["straggle"]["speedup"] >= straggle_floor,
        },
        "no_fault_ratio": {
            "value": round(data["no_fault"]["speedup"], 3),
            "threshold": no_fault_floor,
            "passed": data["no_fault"]["speedup"] >= no_fault_floor,
        },
        "serial_replay_deterministic": {
            "value": data["determinism"]["identical"],
            "threshold": True,
            "passed": bool(data["determinism"]["identical"]),
        },
    }


def check(data: dict, *, smoke: bool) -> None:
    for name, gate in gates(data, smoke=smoke).items():
        assert gate["passed"], (
            f"{name}: {gate['value']} missed threshold {gate['threshold']}"
        )


def persist(data: dict, *, smoke: bool, out_dir: Path | None = None) -> None:
    write_bench_json(
        "pipeline",
        metrics={
            "straggle_speedup": round(data["straggle"]["speedup"], 3),
            "no_fault_ratio": round(data["no_fault"]["speedup"], 3),
            "straggle_async_evals_per_sec": round(
                data["straggle"]["async"]["evals_per_sec"], 1
            ),
            "straggle_sync_evals_per_sec": round(
                data["straggle"]["sync"]["evals_per_sec"], 1
            ),
            "async_reclaimed_idle_s": round(
                data["straggle"]["async"]["pipeline_stats"].get(
                    "reclaimed_idle_s", 0.0
                ),
                3,
            ),
        },
        gates=gates(data, smoke=smoke),
        meta={
            "instance": data["instance"],
            "n_slaves": data["n_slaves"],
            "n_rounds": data["n_rounds"],
            "max_staleness": MAX_STALENESS,
            "evals_per_slave": data["evals_per_slave"],
            "straggle_plan": data["straggle_plan"],
            "smoke": smoke,
            "python": data["python"],
        },
        out_dir=out_dir,
    )


@pytest.mark.benchmark(group="pipeline")
def test_pipeline(benchmark, capsys):
    data = benchmark.pedantic(measure, kwargs={"smoke": True}, rounds=1)
    publish("pipeline", "Pipelined async master vs sync barrier", render(data), capsys)
    persist(data, smoke=True)
    check(data, smoke=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="result path (BENCH_pipeline.json lands in its directory)",
    )
    args = parser.parse_args(argv)

    data = measure(smoke=args.smoke)
    print(render(data))
    persist(data, smoke=args.smoke, out_dir=args.out.parent)
    print(f"-> {args.out.parent / 'BENCH_pipeline.json'}")
    check(data, smoke=args.smoke)


if __name__ == "__main__":
    main()
