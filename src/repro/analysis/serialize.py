"""JSON (de)serialization of run results — the experiment record format.

A :class:`~repro.master.result.ParallelRunResult` is the unit of record for
every experiment in the benchmark harness; persisting it lets tables be
re-rendered and runs be compared without re-searching.  The format is plain
JSON (no pickle): solutions are stored as packed item-index lists, traces as
event tuples.

Format history
--------------
* **v1** — original format.  Dropped ``RoundStats.phase_wall_seconds``,
  ``RoundStats.gather_idle_s`` and ``FarmTrace.wall_phases`` entirely, and
  stored per-slave virtual seconds as an arrival-ordered list — exactly the
  measured phase/idle accounting the A5/A8 experiments rest on.
* **v2** (current) — lossless: every field the system measures survives
  ``save → load → save`` byte-identically.  Per-slave maps are stored with
  string keys (JSON objects) and converted back to ``int`` slave ids on
  load; the trace is an object carrying both the virtual-time events and
  the measured ``wall_phases``.

v1 records still load (legacy list-form traces and arrival-ordered slave
seconds are adapted); writing always emits v2.  ``RoundStats.master_wait_s``
is stored in the trace's ``wall_phases`` only and restored from there.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.solution import Solution
from ..farm.trace import EventKind, FarmTrace
from ..master.result import ParallelRunResult, RoundStats

__all__ = ["result_to_dict", "result_from_dict", "save_result", "load_result"]

FORMAT_VERSION = 2

#: Versions :func:`result_from_dict` accepts.
READABLE_VERSIONS = (1, 2)


def _solution_to_dict(solution: Solution, n_items: int) -> dict:
    return {
        "n_items": n_items,
        "items": solution.items.tolist(),
        "value": solution.value,
    }


def _solution_from_dict(data: dict) -> Solution:
    x = np.zeros(int(data["n_items"]), dtype=np.int8)
    x[np.asarray(data["items"], dtype=np.intp)] = 1
    return Solution(x, float(data["value"]))


def _trace_to_dict(trace: FarmTrace) -> dict:
    return {
        "events": [
            [e.proc, e.kind.value, e.t_start, e.t_end, e.label] for e in trace.events
        ],
        "wall_phases": [
            {
                "round_index": rec["round_index"],
                "phase_seconds": dict(rec["phase_seconds"]),
                "gather_idle_s": {str(k): v for k, v in rec["gather_idle_s"].items()},
                "master_wait_s": rec["master_wait_s"],
            }
            for rec in trace.wall_phases
        ],
    }


def _trace_from_dict(data: dict | list) -> FarmTrace:
    trace = FarmTrace()
    # v1 stored a bare event list; v2 an object with events + wall_phases.
    events = data["events"] if isinstance(data, dict) else data
    for proc, kind, t0, t1, label in events:
        trace.record(int(proc), EventKind(kind), float(t0), float(t1), label)
    if isinstance(data, dict):
        for rec in data.get("wall_phases", []):
            trace.record_wall_phases(
                int(rec["round_index"]),
                {k: float(v) for k, v in rec["phase_seconds"].items()},
                {int(k): float(v) for k, v in rec["gather_idle_s"].items()},
                float(rec["master_wait_s"]),
            )
    return trace


def _round_to_dict(s: RoundStats) -> dict:
    return {
        "round_index": s.round_index,
        "best_value": s.best_value,
        "round_virtual_seconds": s.round_virtual_seconds,
        "slave_virtual_seconds": {str(k): v for k, v in s.slave_virtual_seconds.items()},
        "communication_seconds": s.communication_seconds,
        "evaluations": s.evaluations,
        "improved_slaves": s.improved_slaves,
        "isp_rules": dict(s.isp_rules),
        "sgp_actions": dict(s.sgp_actions),
        "failed_slaves": s.failed_slaves,
        "backoff_slaves": s.backoff_slaves,
        "duplicate_reports": s.duplicate_reports,
        "stale_reports": s.stale_reports,
        "phase_wall_seconds": dict(s.phase_wall_seconds),
        "gather_idle_s": {str(k): v for k, v in s.gather_idle_s.items()},
    }


def _slave_seconds_from(data: object) -> dict[int, float]:
    if isinstance(data, dict):
        return {int(k): float(v) for k, v in data.items()}
    # v1 stored an arrival-ordered list with no slave ids; index keys are
    # the best available reconstruction (exact for healthy rounds).
    return {i: float(v) for i, v in enumerate(data)}  # type: ignore[arg-type]


def _round_from_dict(s: dict, master_wait_s: float) -> RoundStats:
    return RoundStats(
        round_index=int(s["round_index"]),
        best_value=float(s["best_value"]),
        round_virtual_seconds=float(s["round_virtual_seconds"]),
        slave_virtual_seconds=_slave_seconds_from(s["slave_virtual_seconds"]),
        communication_seconds=float(s["communication_seconds"]),
        evaluations=int(s["evaluations"]),
        improved_slaves=int(s["improved_slaves"]),
        isp_rules=dict(s.get("isp_rules", {})),
        sgp_actions=dict(s.get("sgp_actions", {})),
        failed_slaves=int(s.get("failed_slaves", 0)),
        backoff_slaves=int(s.get("backoff_slaves", 0)),
        duplicate_reports=int(s.get("duplicate_reports", 0)),
        stale_reports=int(s.get("stale_reports", 0)),
        phase_wall_seconds={
            k: float(v) for k, v in s.get("phase_wall_seconds", {}).items()
        },
        gather_idle_s={int(k): float(v) for k, v in s.get("gather_idle_s", {}).items()},
        master_wait_s=master_wait_s,
    )


def result_to_dict(result: ParallelRunResult) -> dict:
    """Convert a run result to a JSON-serializable dict (always v2).

    The dict is JSON-ready as returned (per-slave maps use string keys), so
    ``result_to_dict(load_result(p))`` is byte-identical to the dict that
    was saved at ``p`` — persistence is a fixed point, nothing measured is
    lost.
    """
    return {
        "format_version": FORMAT_VERSION,
        "variant": result.variant,
        "best": _solution_to_dict(result.best, result.best.n_items),
        "rounds": [_round_to_dict(s) for s in result.rounds],
        "total_evaluations": result.total_evaluations,
        "virtual_seconds": result.virtual_seconds,
        "wall_seconds": result.wall_seconds,
        "n_slaves": result.n_slaves,
        "bytes_sent": result.bytes_sent,
        "fault_summary": dict(result.fault_summary),
        "value_history": list(result.value_history),
        "pipeline": result.pipeline,
        "pipeline_stats": dict(result.pipeline_stats),
        "trace": None if result.trace is None else _trace_to_dict(result.trace),
    }


def result_from_dict(data: dict) -> ParallelRunResult:
    """Rebuild a run result from :func:`result_to_dict` output (v1 or v2)."""
    version = data.get("format_version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(this library reads versions {READABLE_VERSIONS})"
        )
    trace = None
    if data.get("trace") is not None:
        trace = _trace_from_dict(data["trace"])
    waits = {r["round_index"]: r["master_wait_s"] for r in getattr(trace, "wall_phases", ())}
    return ParallelRunResult(
        variant=str(data["variant"]),
        best=_solution_from_dict(data["best"]),
        rounds=[_round_from_dict(s, waits.get(int(s["round_index"]), 0.0)) for s in data["rounds"]],
        total_evaluations=int(data["total_evaluations"]),
        virtual_seconds=float(data["virtual_seconds"]),
        wall_seconds=float(data["wall_seconds"]),
        n_slaves=int(data["n_slaves"]),
        trace=trace,
        bytes_sent=int(data["bytes_sent"]),
        value_history=[float(v) for v in data["value_history"]],
        fault_summary={k: int(v) for k, v in data.get("fault_summary", {}).items()},
        pipeline=str(data.get("pipeline", "sync")),
        pipeline_stats={
            k: float(v) for k, v in data.get("pipeline_stats", {}).items()
        },
    )


def save_result(result: ParallelRunResult, path: str | Path) -> None:
    """Write a run result as JSON."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2), encoding="utf-8"
    )


def load_result(path: str | Path) -> ParallelRunResult:
    """Read a run result written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
