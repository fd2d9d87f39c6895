"""A10 — parallelism granularity: why the paper rejects sources 1–2.

§2 dismisses cost-function and neighborhood-evaluation parallelism as
"low level approaches" requiring specialized hardware, and picks parallel
search threads because coarse grain "minimiz[es] the communication
overhead between threads".  This bench makes that argument quantitative on
commodity hardware:

* ``vectorized``  — the library's actual kernel (numpy, single process);
* ``chunked``     — the same work split into 8 pieces in-process (upper
  bound for any fine-grain scheme: zero transport cost);
* ``process pool``— genuine source-2 parallelism: candidate chunks shipped
  to worker processes every move.

Expected shape: the process pool is orders of magnitude slower per
neighborhood scan than the vectorized kernel at MKP neighborhood sizes —
the communication-to-computation ratio the paper warns about.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import render_generic
from repro.core import SearchState, greedy_solution
from repro.instances import mk_suite

from common import publish, scaled
from neighborhood_eval import (
    ProcessPoolNeighborhoodEvaluator,
    drop_candidates_of,
    score_candidates,
    score_candidates_chunked,
)

REPEATS = 200


def run_measurement():
    inst = mk_suite()[4]  # 25x500: the *largest* neighborhood in the suite
    state = SearchState.from_solution(inst, greedy_solution(inst))
    i_star, cands = drop_candidates_of(state)
    n = scaled(REPEATS)

    t0 = time.perf_counter()
    for _ in range(n):
        score_candidates(inst, i_star, cands)
    t_vec = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    for _ in range(n):
        score_candidates_chunked(inst, i_star, cands, 8)
    t_chunk = (time.perf_counter() - t0) / n

    with ProcessPoolNeighborhoodEvaluator(inst, n_workers=2) as pool:
        pool.evaluate(i_star, cands)  # warm up workers
        t0 = time.perf_counter()
        for _ in range(max(1, n // 10)):
            pool.evaluate(i_star, cands)
        t_pool = (time.perf_counter() - t0) / max(1, n // 10)

    rows = [
        ["vectorized (library kernel)", f"{t_vec * 1e6:.1f}", "1.0x"],
        ["chunked x8 (in-process)", f"{t_chunk * 1e6:.1f}", f"{t_chunk / t_vec:.1f}x"],
        ["process pool x2 (source 2)", f"{t_pool * 1e6:.1f}", f"{t_pool / t_vec:.1f}x"],
    ]
    return rows, t_vec, t_pool


@pytest.mark.benchmark(group="granularity")
def test_granularity(benchmark, capsys):
    rows, t_vec, t_pool = benchmark.pedantic(run_measurement, rounds=1, iterations=1)
    body = render_generic(
        ["evaluation scheme", "per-scan time (µs)", "slowdown"], rows
    )
    publish(
        "granularity",
        "A10 — neighborhood-evaluation granularity (MK5 drop scan)",
        body,
        capsys,
    )
    # The §2 claim: per-move process fan-out is catastrophically slower
    # than the coarse-grain design at MKP neighborhood sizes.
    assert t_pool > 10 * t_vec
