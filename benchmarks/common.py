"""Shared infrastructure for the benchmark harness.

Every bench regenerates one artifact of the paper (see DESIGN.md §4's
experiment index).  Conventions:

* each bench is a pytest-benchmark test: the timed payload is the
  experiment itself (``benchmark.pedantic(..., rounds=1)``), so
  ``pytest benchmarks/ --benchmark-only`` runs the full harness;
* the paper-style table is printed live (capture disabled) *and* written
  to ``benchmarks/results/<name>.txt`` so ``bench_output.txt`` plus the
  results directory together record every reproduced artifact;
* ``REPRO_BENCH_SCALE`` (float, default 1.0) scales every search budget —
  set it below 1 for smoke runs, above 1 for higher-fidelity tables.

Performance gates are not benches: they live in ``test_perf_gates.py``
(timing ratios) and the tier-1 suite (deterministic bounds), and the
layered perf harness is ``layerbench/``.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Global budget multiplier from the environment."""
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError as exc:
        raise ValueError("REPRO_BENCH_SCALE must be a float") from exc
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return scale


def scaled(budget: int | float) -> int:
    """Apply the global scale to an evaluation budget."""
    return max(1, int(budget * bench_scale()))


def publish(name: str, title: str, body: str, capsys=None) -> None:
    """Print a result table live and persist it under benchmarks/results/."""
    text = f"\n=== {title} ===\n{body}\n"
    if capsys is not None:
        with capsys.disabled():
            print(text)
    else:  # pragma: no cover - fallback
        print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text.lstrip("\n"), encoding="utf-8")
