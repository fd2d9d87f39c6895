"""Compare two sets of ``bench_layers.py`` result files, workload by metric.

    python3 layerbench/compare.py BASE NEW

``BASE`` and ``NEW`` are each a result file or a directory of them (every
``*.json`` inside).  For every workload x metric the two sides' medians and
quartiles are printed with a verdict, using the bounds and directions in
``BENCHMARK.json``:

* ``unresolved`` - either side's IQR, as a share of its median, is wider
  than the bound, and not every NEW run beats every BASE run;
* ``worse``      - NEW's median is worse than BASE's by more than the bound;
* ``better``     - NEW wins at least 9 in 10 runs, paired by seed (by order
  when the seeds differ; ties count for neither), and the medians differ by
  more than BASE's IQR - or every NEW run beats every BASE run;
* ``same``       - none of the above.

Per-layer metrics have no bound; their rows show the change only.  A rise in
the share of failed operations on any workload is flagged.  The exit code is
1 when any verdict is ``worse`` or failures rose, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_side(path: Path) -> tuple[dict, dict]:
    """``values[(workload, metric)] -> [(seed, value)]`` and failure tallies."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result files under {path}")
    values: dict[tuple[str, str], list[tuple[int, float]]] = {}
    fails: dict[str, list[int]] = {}
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        if data.get("bench") != "layers":
            continue
        seed = data.get("meta", {}).get("seed", 0)
        for workload, metrics in data["metrics"].items():
            for metric, row in metrics.items():
                values.setdefault((workload, metric), []).append((seed, row["value"]))
        for workload, gate in data.get("gates", {}).items():
            tally = fails.setdefault(workload, [0, 0])
            tally[0] += gate["attempted"]
            tally[1] += gate["failed"]
    return values, fails


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base: list[tuple[int, float]], new: list[tuple[int, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 is worse
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    scale = abs(bmed) or 1.0
    spread = max((bq3 - bq1) / scale, (nq3 - nq1) / (abs(nmed) or 1.0))
    all_better = all(sign * (x - y) < 0 for x in n for y in b)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if sign * (nmed - bmed) / scale > bound:
        return "worse"
    seeds = {s for s, _ in base}
    if seeds == {s for s, _ in new} and len(seeds) == len(base) == len(new):
        pairs = list(zip(sorted(base), sorted(new)))
    else:
        pairs = list(zip(base, new))
    wins = sum(sign * (nv - bv) < 0 for (_, bv), (_, nv) in pairs)
    if all_better or (pairs and wins >= 0.9 * len(pairs)
                      and abs(nmed - bmed) > bq3 - bq1):
        return "better"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_fails = load_side(args.base)
    new, new_fails = load_side(args.new)

    regressed = False
    print(f"{'workload':<20} {'metric':<34} {'base median [q1, q3] n':>34} "
          f"{'new median [q1, q3] n':>34} {'change':>8}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, metric = key
        if key not in base or key not in new:
            print(f"{workload:<20} {metric:<34} missing on the "
                  f"{'base' if key not in base else 'new'} side")
            continue
        cols = []
        for side in (base[key], new[key]):
            q1, med, q3 = quartiles([v for _, v in side])
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(side)}")
        bmed = statistics.median(v for _, v in base[key])
        nmed = statistics.median(v for _, v in new[key])
        change = f"{100 * (nmed - bmed) / bmed:+.1f}%" if bmed else "-"
        m = meta.get(metric, {})
        if "bound" in m:
            v = verdict(base[key], new[key], m["better"], m["bound"])
            regressed |= v == "worse"
        else:
            v = "-"
        print(f"{workload:<20} {metric:<34} {cols[0]:>34} {cols[1]:>34} {change:>8}  {v}")
    for workload in sorted(set(base_fails) | set(new_fails)):
        ba, bf = base_fails.get(workload, [0, 0])
        na, nf = new_fails.get(workload, [0, 0])
        if na and (nf / na) > (bf / ba if ba else 0.0):
            regressed = True
            print(f"FAILED OPERATIONS ROSE on {workload}: {bf}/{ba} -> {nf}/{na}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
