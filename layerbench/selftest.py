"""Self-test of the benchmark harness; exits non-zero on the first failure.

1. A ``--smoke`` run of every workload, untraced and traced, is correct,
   has no failed operation, and emits every metric ``BENCHMARK.json`` names.
2. ``compare.py`` calls a synthetic ``solve_s`` regression 5 points past
   its bound ``worse`` (exit 1) and two identical sets ``same`` (exit 0).

    python3 layerbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def check(cond: bool, message: str, detail: str = "") -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}\n{detail}")
    print(f"ok: {message}")


def smoke(trace: int, out_dir: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_layers.py"), "--workload", "all", "--smoke",
         "--trace", str(trace), "--out", str(out_dir / f"smoke-{trace}.json")],
        capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"--smoke --trace {trace} exits 0", proc.stderr[-2000:])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
          f"--smoke --trace {trace} is correct with no failed operation")
    section = "per_layer" if trace else "end_to_end"
    expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC[section]}
    check(set(last["metrics"]) == expected,
          f"--smoke --trace {trace} emits every {section} metric of every workload")
    check(all(isinstance(m["value"], (int, float)) for m in last["metrics"].values()),
          f"--smoke --trace {trace} metric values are numbers")
    if not trace:
        check(all(m["value"] > 0 for m in last["metrics"].values()),
              "every end-to-end metric is non-zero")


def synthetic(path: Path, seed: int, solve_s: float) -> None:
    path.write_text(json.dumps({
        "schema_version": 1, "bench": "layers", "meta": {"seed": seed},
        "metrics": {"gk24-serial": {"solve_s": {"value": solve_s, "unit": "s"}}},
        "gates": {"gk24-serial": {"attempted": 10, "failed": 0}},
    }))


def compare(base: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "compare.py"), str(base), str(new)],
                          capture_output=True, text=True, timeout=60)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        smoke(0, tmp)
        smoke(1, tmp)
        bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "solve_s")
        base, slow = tmp / "base", tmp / "slow"
        base.mkdir()
        slow.mkdir()
        for seed in range(10):
            value = 1.0 + 0.004 * ((seed * 7) % 10)  # <4 % spread
            synthetic(base / f"{seed}.json", seed, value)
            synthetic(slow / f"{seed}.json", seed, value * (1.05 + bound))
        proc = compare(base, slow)
        check(proc.returncode == 1 and " worse" in proc.stdout,
              f"compare.py flags a {100 * (0.05 + bound):.0f} % solve_s regression as "
              "worse and exits 1", proc.stdout)
        proc = compare(base, base)
        check(proc.returncode == 0 and " same" in proc.stdout,
              "compare.py calls identical sets same and exits 0")


if __name__ == "__main__":
    main()
