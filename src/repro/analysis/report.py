"""Assemble the benchmark harness's result files into one report.

Every bench writes its paper-style table to ``benchmarks/results/<id>.txt``
(via ``benchmarks/common.publish``).  :func:`assemble_report` stitches those
files into a single markdown document ordered by the DESIGN.md experiment
index — the mechanical half of EXPERIMENTS.md.

:func:`summarize_result` / :func:`render_run_summary` are the saved-record
side of ``python -m repro trace``: they aggregate one persisted
:class:`~repro.master.result.ParallelRunResult` (phase totals, idle ratios,
fault tallies) without re-searching — the same headline numbers
:func:`repro.obs.summarize_stream` extracts from a JSONL event stream.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from ..master.result import ParallelRunResult

__all__ = [
    "ReportSection",
    "REPORT_ORDER",
    "assemble_report",
    "summarize_result",
    "render_run_summary",
]


@dataclass(frozen=True)
class ReportSection:
    """One experiment's slot in the assembled report."""

    result_id: str
    title: str


#: Canonical section order (matches DESIGN.md §4's experiment index).
REPORT_ORDER: tuple[ReportSection, ...] = (
    ReportSection("table1_gk", "T1 — Table 1: Glover–Kochenberger suite"),
    ReportSection("table2_variants", "T2 — Table 2: SEQ/ITS/CTS1/CTS2 on MK1–MK5"),
    ReportSection("fp57", "E1 — Fréville–Plateau: optimum reached"),
    ReportSection("ablation_tenure", "A1 — tabu tenure sweep"),
    ReportSection("ablation_nbdrop", "A2 — Nb_drop vs step size"),
    ReportSection("ablation_alpha", "A3 — ISP alpha sweep"),
    ReportSection("ablation_intensify", "A4 — intensification modes"),
    ReportSection("speedup", "A5 — scaling vs P"),
    ReportSection("async_vs_sync", "A6 — synchronous vs asynchronous"),
    ReportSection("baselines", "A7 — baseline panel"),
    ReportSection("load_balance", "A8 — load balancing"),
    ReportSection("ablation_sgp", "A9 — SGP recovery"),
    ReportSection("granularity", "A10 — parallelism granularity"),
    ReportSection("decomposition", "A11 — decomposition vs cooperation"),
    ReportSection("heterogeneous", "A12 — heterogeneous farm"),
    ReportSection("cb_extension", "E2 — Chu–Beasley extension workload"),
    ReportSection("cb_core_fixing", "E3 — LP-core fixing on the Chu–Beasley grid"),
    ReportSection("bounds", "B1 — bound panel"),
)


def assemble_report(
    results_dir: str | Path,
    *,
    title: str = "Benchmark results",
    missing_note: str = "(not yet generated — run its bench)",
) -> str:
    """Return a markdown report of every known section.

    Sections whose result file is absent are listed with ``missing_note``
    so a partial harness run still yields a complete, honest document.
    """
    results_dir = Path(results_dir)
    lines = [f"# {title}", ""]
    for section in REPORT_ORDER:
        lines.append(f"## {section.title}")
        lines.append("")
        path = results_dir / f"{section.result_id}.txt"
        if path.exists():
            lines.append("```")
            lines.append(path.read_text(encoding="utf-8").rstrip())
            lines.append("```")
        else:
            lines.append(missing_note)
        lines.append("")
    return "\n".join(lines)


def summarize_result(result: ParallelRunResult) -> dict:
    """Aggregate one run record: phase totals, idle ratios, fault tallies.

    Wall-clock phase totals come from the per-round measured splits
    (``RoundStats.phase_wall_seconds``); the trace's ``wall_phase_totals``
    adds the master's blocked-wait seconds when a trace was kept.  The
    virtual-time barrier idle ratio (the A8 metric) is reported when the
    run carried a simulated-farm trace.
    """
    phase_totals: dict[str, float] = defaultdict(float)
    gather_idle: dict[int, float] = defaultdict(float)
    for stats in result.rounds:
        for phase, seconds in stats.phase_wall_seconds.items():
            phase_totals[phase] += seconds
        for slave, seconds in stats.gather_idle_s.items():
            gather_idle[slave] += seconds
    if result.trace is not None:
        master_wait = result.trace.wall_phase_totals().get("master_wait", 0.0)
        if master_wait:
            phase_totals["master_wait"] += master_wait
    gather_total = phase_totals.get("gather", 0.0)
    idle_ratio = 0.0
    if gather_total > 0.0 and gather_idle:
        idle_ratio = min(
            1.0, sum(gather_idle.values()) / (gather_total * len(gather_idle))
        )
    return {
        "variant": result.variant,
        "instance": "",
        "n_slaves": result.n_slaves,
        "n_rounds": result.n_rounds,
        "best_value": result.best.value,
        "total_evaluations": result.total_evaluations,
        "wall_seconds": result.wall_seconds,
        "virtual_seconds": result.virtual_seconds,
        "phase_totals": dict(phase_totals),
        "gather_idle_s": dict(sorted(gather_idle.items())),
        "gather_idle_ratio": idle_ratio,
        "barrier_idle_ratio": (
            result.trace.idle_ratio() if result.trace is not None else None
        ),
        "bytes": {"total": result.bytes_sent},
        "fault_tallies": dict(result.fault_summary),
        "degraded_rounds": result.degraded_rounds,
        "pipeline": (
            {"mode": result.pipeline, **result.pipeline_stats}
            if result.pipeline != "sync" or result.pipeline_stats
            else None
        ),
    }


def render_run_summary(summary: dict) -> str:
    """Render a :func:`summarize_result` / ``summarize_stream`` dict as text."""
    lines = [
        f"variant:      {summary.get('variant', '?')}"
        + (f"  ({summary['instance']})" if summary.get("instance") else ""),
        f"slaves:       {summary.get('n_slaves', '?')}",
        f"rounds:       {summary.get('n_rounds', '?')}",
    ]
    if summary.get("best_value") is not None:
        lines.append(f"best value:   {summary['best_value']:,.0f}")
    if summary.get("total_evaluations") is not None:
        lines.append(f"evaluations:  {summary['total_evaluations']:,}")
    if summary.get("wall_seconds") is not None:
        lines.append(f"wall time:    {summary['wall_seconds']:.3f}s")
    if summary.get("virtual_seconds"):
        lines.append(f"virtual time: {summary['virtual_seconds']:.3f}s")
    phase_totals = summary.get("phase_totals") or {}
    if phase_totals:
        lines.append("measured wall phases:")
        for phase in ("scatter", "compute", "gather", "master_wait"):
            if phase in phase_totals:
                lines.append(f"  {phase:<12} {phase_totals[phase]:.6f}s")
        for phase in sorted(set(phase_totals) - {"scatter", "compute", "gather", "master_wait"}):
            lines.append(f"  {phase:<12} {phase_totals[phase]:.6f}s")
        lines.append(f"gather idle ratio: {summary.get('gather_idle_ratio', 0.0):.3f}")
    else:
        lines.append("measured wall phases: (none recorded)")
    if summary.get("barrier_idle_ratio") is not None:
        lines.append(f"barrier idle ratio (virtual, A8): {summary['barrier_idle_ratio']:.3f}")
    byte_ledger = summary.get("bytes") or {}
    if byte_ledger:
        rendered = ", ".join(f"{k}={v:,}" for k, v in sorted(byte_ledger.items()))
        lines.append(f"bytes:        {rendered}")
    faults = summary.get("fault_tallies") or {}
    if faults:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(faults.items()))
        lines.append(f"faults:       {rendered}")
    else:
        lines.append("faults:       none")
    pipeline = summary.get("pipeline")
    if pipeline:
        parts = []
        if "mode" in pipeline:
            parts.append(f"mode={pipeline['mode']}")
        if "bursts" in pipeline:
            parts.append(f"bursts={pipeline['bursts']:.0f}")
        if "mean_queue_depth" in pipeline:
            parts.append(f"mean queue depth={pipeline['mean_queue_depth']:.2f}")
        if "max_staleness" in pipeline:
            parts.append(f"max staleness={pipeline['max_staleness']:.0f}")
        if pipeline.get("reclaimed_idle_s") is not None:
            parts.append(f"idle reclaimed={pipeline['reclaimed_idle_s']:.3f}s")
        if pipeline.get("outcomes"):
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(pipeline["outcomes"].items())
            )
            parts.append(f"outcomes: {rendered}")
        lines.append("pipeline:     " + "  ".join(parts))
    return "\n".join(lines)
