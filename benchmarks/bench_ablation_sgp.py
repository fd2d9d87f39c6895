"""A9 — the dynamic-tuning claim, isolated: SGP recovers bad strategies.

The paper's pitch (§4.2, §6): "parallel cooperative search may be used in
order to unload the user from the task of finding the efficient TS
parameters for each problem instance."  At well-tuned defaults CTS1 and
CTS2 often tie (EXPERIMENTS.md); the claim's value shows when the initial
parameters are *wrong*.

Setup: every slave starts with a deliberately pathological strategy
(maximum tabu tenure, maximum move weight, maximum stall patience).  CTS1
is stuck with it; CTS2's scoring detects the non-improving slaves and
regenerates their strategies.

Expected shape: CTS2 > CTS1 with bad strategies; CTS2-bad recovers most of
the gap to CTS2 with random (sane) strategies.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_generic
from repro.core import Strategy
from repro.instances import correlated_instance
from repro.master import MasterConfig
from repro.variants import solve_cts1, solve_cts2

from common import publish, scaled

SEEDS = (0, 1, 2, 3)
EVALS = 60_000
ROUNDS = 12
N_SLAVES = 8
BAD = tuple(Strategy(lt_length=50, nb_drop=8, nb_local=100) for _ in range(N_SLAVES))


def run_comparison() -> list[list[object]]:
    inst = correlated_instance(10, 150, rng=5, name="sgp-ablation")
    cells = {"CTS1 bad-init": 0.0, "CTS2 bad-init": 0.0, "CTS2 random-init": 0.0}
    regens = 0
    for seed in SEEDS:
        mc_bad = dict(
            n_slaves=N_SLAVES, n_rounds=ROUNDS, initial_strategies=BAD
        )
        cts1 = solve_cts1(
            inst,
            rng_seed=seed,
            max_evaluations=scaled(EVALS),
            master_config=MasterConfig(variant="CTS1", **mc_bad),
        )
        cts2_bad = solve_cts2(
            inst,
            rng_seed=seed,
            max_evaluations=scaled(EVALS),
            master_config=MasterConfig(variant="CTS2", **mc_bad),
        )
        cts2_rand = solve_cts2(
            inst,
            rng_seed=seed,
            max_evaluations=scaled(EVALS),
            n_slaves=N_SLAVES,
            n_rounds=ROUNDS,
        )
        cells["CTS1 bad-init"] += cts1.best.value
        cells["CTS2 bad-init"] += cts2_bad.best.value
        cells["CTS2 random-init"] += cts2_rand.best.value
        regens += sum(
            sum(v for k, v in s.sgp_actions.items() if k != "keep")
            for s in cts2_bad.rounds
        )
    n = len(SEEDS)
    rows = [[k, round(v / n)] for k, v in cells.items()]
    rows.append(["SGP regenerations (CTS2 bad-init, total)", regens])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_sgp_recovery(benchmark, capsys):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    body = render_generic(["configuration", "mean best / count"], rows)
    publish(
        "ablation_sgp",
        "A9 — SGP recovery from pathological initial strategies",
        body,
        capsys,
    )

    values = {r[0]: r[1] for r in rows}
    # Dynamic tuning must beat the stuck configuration ...
    assert values["CTS2 bad-init"] > values["CTS1 bad-init"]
    # ... and must actually have regenerated strategies to do it.
    assert values["SGP regenerations (CTS2 bad-init, total)"] > 0
