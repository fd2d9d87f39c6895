"""E2/E3 — extension workload: the Chu–Beasley grid (post-paper benchmark).

The paper predates Chu & Beasley's 1998 OR-Library suite, which became the
standard MKP benchmark.  E2 runs CTS2 over a stratified sample of our
CB-layout reconstruction (one instance per (m, r) stratum at n=100) and
reports LP-relative deviations — demonstrating the method generalizes
beyond its own 1997 test bed and mapping how tightness and constraint
count drive difficulty.

Expected shape: deviation grows with m (more constraints = harder) and
shrinks with r (looser capacity = easier), the canonical CB difficulty
surface.

E3 runs the same grid, budgets and seeds twice: full space and with
adaptive LP-core fixing (``core_ratio=0.5`` opens the SGP's tuning range
``(0.5, 1.0)``; DESIGN.md §5.8).  Core fixing must improve the hardest
stratum's (m=30) mean deviation.
"""

from __future__ import annotations

import pytest

from repro.analysis import deviation_percent, render_generic
from repro.exact import solve_lp_relaxation
from repro.instances import cb_instance
from repro.instances.chu_beasley import CB_MS, CB_RS

from common import publish, scaled

N = 100
EVALS = 60_000
CORE_RATIO = 0.5
#: E2's committed m=30 row mean, (5.01 + 2.08 + 1.55) / 3: at full budget
#: core fixing must land below it too, not only below its same-run arm.
E2_M30_MEAN = 2.88


def _mean(xs):
    return sum(xs) / len(xs)


def run_grid(evals: int, core_ratio: float | None = None):
    rows = []
    by_m: dict[int, list[float]] = {m: [] for m in CB_MS}
    by_r: dict[float, list[float]] = {r: [] for r in CB_RS}
    from repro.variants import solve_cts2

    for m in CB_MS:
        for r in CB_RS:
            inst = cb_instance(m, N, r, 0)
            lp = solve_lp_relaxation(inst)
            result = solve_cts2(
                inst, n_slaves=8, n_rounds=6, rng_seed=0,
                max_evaluations=evals, core_ratio=core_ratio,
            )
            dev = deviation_percent(result.best.value, lp.value)
            by_m[m].append(dev)
            by_r[r].append(dev)
            rows.append([f"m={m}", f"r={r}", round(result.best.value), round(dev, 3)])
    return rows, by_m, by_r


def core_fixing_arm(evals: int):
    """E3 at ``evals`` per slave: returns (rows, m=30 full mean, m=30 core mean).

    Asserts that core fixing strictly improves the m=30 mean deviation.
    """
    full_rows, full_by_m, _ = run_grid(evals)
    core_rows, core_by_m, _ = run_grid(evals, core_ratio=CORE_RATIO)
    rows = [full + core[2:] for full, core in zip(full_rows, core_rows)]
    m30_full, m30_core = _mean(full_by_m[30]), _mean(core_by_m[30])
    assert m30_core < m30_full, (
        f"core fixing did not improve the m=30 mean: "
        f"{m30_core:.3f}% vs {m30_full:.3f}% full-space"
    )
    return rows, m30_full, m30_core


@pytest.mark.benchmark(group="extension")
def test_cb_extension(benchmark, capsys):
    rows, by_m, by_r = benchmark.pedantic(
        run_grid, args=(scaled(EVALS),), rounds=1, iterations=1
    )
    body = render_generic(["m", "tightness", "CTS2 best", "dev vs LP %"], rows)
    publish(
        "cb_extension",
        "E2 — Chu–Beasley grid sample (n=100), CTS2 deviations vs LP",
        body,
        capsys,
    )

    # Difficulty grows with the number of constraints...
    assert _mean(by_m[30]) > _mean(by_m[5])
    # ... and shrinks as capacities loosen.
    assert _mean(by_r[0.25]) > _mean(by_r[0.75])


@pytest.mark.benchmark(group="extension")
def test_cb_core_fixing(benchmark, capsys):
    rows, m30_full, m30_core = benchmark.pedantic(
        core_fixing_arm, args=(scaled(EVALS),), rounds=1, iterations=1
    )
    body = render_generic(
        ["m", "tightness", "full best", "full dev %", "core best", "core dev %"],
        rows,
    )
    publish(
        "cb_core_fixing",
        "E3 — Chu–Beasley grid (n=100), CTS2 full space vs adaptive LP-core fixing",
        body
        + f"\nm=30 mean deviation: {m30_full:.3f}% full space, "
        f"{m30_core:.3f}% with core fixing (E2 row mean: {E2_M30_MEAN}%)",
        capsys,
    )
    assert m30_core < E2_M30_MEAN
