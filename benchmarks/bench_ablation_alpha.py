"""A3 — ablation: the ISP pooling fraction ``alpha`` (macro int./div.).

§4.2: "By changing dynamically the value of the parameter alpha, it is
possible to force or to forbid threads to realize search in the same
region."  This bench sweeps *fixed* alpha values on CTS1 (pooling is the
only cooperative mechanism, so its effect is isolated) and compares them
against the dynamic controller.

Reported per setting: mean best value over seeds, and the total number of
pool/restart ISP events (how much the master interfered).

Expected shape: very low alpha behaves like ITS (pooling never fires);
very high alpha over-pools and loses diversity; a middle/dynamic setting
is at least as good as both extremes.
"""

from __future__ import annotations

import pytest

from repro.analysis import render_generic
from repro.instances import mk_suite
from repro.master import ISPConfig, MasterConfig
from repro.variants import solve_cts1

from common import publish, scaled

ALPHAS = [0.90, 0.95, 0.98, 0.995]
SEEDS = (0, 1, 2)
EVALS = 40_000
ROUNDS = 8
N_SLAVES = 8


def run_one(inst, alpha: float | None, seed: int):
    config = MasterConfig(
        n_slaves=N_SLAVES,
        n_rounds=ROUNDS,
        variant="CTS1",
        isp=ISPConfig(alpha=alpha if alpha is not None else 0.98),
        dynamic_alpha=alpha is None,
    )
    return solve_cts1(
        inst, rng_seed=seed, max_evaluations=scaled(EVALS), master_config=config
    )


def run_sweep() -> list[list[object]]:
    inst = mk_suite()[1]  # MK2: 15x300
    rows = []
    for alpha in [*ALPHAS, None]:
        values = []
        interventions = 0
        for seed in SEEDS:
            result = run_one(inst, alpha, seed)
            values.append(result.best.value)
            for stats in result.rounds:
                interventions += stats.isp_rules.get("pool", 0)
                interventions += stats.isp_rules.get("restart", 0)
        label = "dynamic" if alpha is None else f"{alpha:.3f}"
        rows.append([label, round(sum(values) / len(values)), interventions])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_alpha(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    body = render_generic(["alpha", "mean best", "pool+restart events"], rows)
    publish("ablation_alpha", "A3 — ISP alpha sweep (MK2, CTS1)", body, capsys)

    by_alpha = {r[0]: (r[1], r[2]) for r in rows}
    # Higher alpha must interfere more (monotone event counts).
    events = [r[2] for r in rows[:-1]]
    assert events == sorted(events), "pooling events must grow with alpha"
    # The dynamic controller is competitive with the best fixed setting.
    best_fixed = max(v for label, (v, _) in by_alpha.items() if label != "dynamic")
    assert by_alpha["dynamic"][0] >= 0.995 * best_fixed
