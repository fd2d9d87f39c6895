"""Streaming JSONL run recorder.

One :class:`RunRecorder` accompanies one run: the master emits a manifest,
then per-round lifecycle events (round start, measured telemetry, ISP/SGP
decisions, fault tallies, round end), then a run summary.  Events go to an
in-memory list and, when a sink is attached, to a JSONL file as they
happen — a crashed run still leaves every completed round on disk.

The disabled recorder (:meth:`RunRecorder.disabled`, the master's default)
short-circuits at the top of :meth:`emit`; the round loop pays one
attribute load and a falsy check per event, which
``benchmarks/test_perf_gates.py`` bounds at well under 1% of a round.

Live consumers (DESIGN.md §5.6): :meth:`RunRecorder.subscribe` registers a
callback invoked synchronously with every emitted record — the service
layer's ``stream`` endpoint rides on this fan-out instead of polling the
JSONL file — and :func:`follow_stream` tails a JSONL file that is still
being written (``repro trace --follow``), sharing one line reader with
:func:`read_stream`.
"""

from __future__ import annotations

import json
import platform
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .metrics import MetricsRegistry
from .telemetry import BurstTelemetry, RoundTelemetry

__all__ = [
    "RunRecorder",
    "follow_stream",
    "read_stream",
    "replay_metrics",
    "summarize_stream",
]

#: Event types that terminate a stream — a follower may stop tailing once
#: one arrives, because the recorder emits nothing after them.
TERMINAL_EVENTS = frozenset({"run_end"})


def _parse_line(line: str) -> dict | None:
    """One JSONL line -> event dict (``None`` for blank lines)."""
    line = line.strip()
    return json.loads(line) if line else None


def package_versions() -> dict[str, str]:
    """Versions pinned into every run manifest (reproducibility breadcrumbs)."""
    import numpy

    from .._version import __version__

    return {
        "repro": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


class RunRecorder:
    """Collects (and optionally streams) one run's observability events."""

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.events: list[dict] = []
        self._path = Path(path) if path is not None else None
        self._sink: IO[str] | None = None
        self._seq = 0
        self._t0 = time.perf_counter()
        self._subscribers: list[Callable[[dict], None]] = []

    @classmethod
    def disabled(cls) -> "RunRecorder":
        """The no-op recorder the master uses when nobody asked to record."""
        return cls(enabled=False)

    # ------------------------------------------------------------------ #
    # Core emission
    # ------------------------------------------------------------------ #
    def emit(self, event: str, **fields: object) -> None:
        """Append one event (and stream it, when a sink is attached)."""
        if not self.enabled:
            return
        record: dict = {
            "event": event,
            "seq": self._seq,
            "t": round(time.perf_counter() - self._t0, 6),
        }
        record.update(fields)
        self._seq += 1
        self.events.append(record)
        if self._path is not None:
            if self._sink is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = self._path.open("w", encoding="utf-8")
            self._sink.write(json.dumps(record) + "\n")
            self._sink.flush()
        if self._subscribers:
            # Iterate a snapshot: a subscriber may unsubscribe from within
            # its own callback.  A subscriber that raises is dropped rather
            # than allowed to kill the solve it is merely observing (e.g. a
            # stream consumer whose event loop already shut down).
            for fn in list(self._subscribers):
                try:
                    fn(record)
                except Exception:
                    self.unsubscribe(fn)

    # ------------------------------------------------------------------ #
    # Live fan-out
    # ------------------------------------------------------------------ #
    def subscribe(self, fn: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register ``fn`` to receive every future record; returns ``fn``.

        Callbacks run synchronously on the emitting (solver) thread — keep
        them cheap and thread-safe (the service layer just enqueues onto an
        asyncio loop via ``call_soon_threadsafe``).
        """
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        """Remove a subscriber; unknown callbacks are ignored."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Typed lifecycle helpers (one per schema event type)
    # ------------------------------------------------------------------ #
    def run_start(
        self,
        *,
        variant: str,
        n_slaves: int,
        n_rounds: int,
        seed: int,
        instance: str,
        instance_size: str,
        communicate: bool,
        adapt_strategies: bool,
    ) -> None:
        self.emit(
            "run_start",
            variant=variant,
            n_slaves=int(n_slaves),
            n_rounds=int(n_rounds),
            seed=int(seed),
            instance=instance,
            instance_size=instance_size,
            communicate=bool(communicate),
            adapt_strategies=bool(adapt_strategies),
            versions=package_versions(),
        )

    def round_start(
        self, round_index: int, *, tasked_slaves: int, backoff_slaves: int
    ) -> None:
        self.emit(
            "round_start",
            round_index=int(round_index),
            tasked_slaves=int(tasked_slaves),
            backoff_slaves=int(backoff_slaves),
        )

    def round_telemetry(self, telemetry: RoundTelemetry) -> None:
        self.emit("round_telemetry", **telemetry.to_event_fields())

    def burst_telemetry(self, telemetry: BurstTelemetry) -> None:
        self.emit("burst_telemetry", **telemetry.to_event_fields())

    def isp(self, round_index: int, rules: dict[str, int]) -> None:
        self.emit(
            "isp",
            round_index=int(round_index),
            rules={str(k): int(v) for k, v in rules.items()},
        )

    def sgp(self, round_index: int, actions: dict[str, int]) -> None:
        self.emit(
            "sgp",
            round_index=int(round_index),
            actions={str(k): int(v) for k, v in actions.items()},
        )

    def faults(
        self,
        round_index: int,
        *,
        failed_slaves: int,
        backoff_slaves: int,
        duplicate_reports: int,
        stale_reports: int,
    ) -> None:
        self.emit(
            "faults",
            round_index=int(round_index),
            failed_slaves=int(failed_slaves),
            backoff_slaves=int(backoff_slaves),
            duplicate_reports=int(duplicate_reports),
            stale_reports=int(stale_reports),
        )

    def round_end(
        self,
        round_index: int,
        *,
        best_value: float,
        evaluations: int,
        improved_slaves: int,
        n_reports: int,
    ) -> None:
        self.emit(
            "round_end",
            round_index=int(round_index),
            best_value=float(best_value),
            evaluations=int(evaluations),
            improved_slaves=int(improved_slaves),
            n_reports=int(n_reports),
        )

    def run_end(
        self,
        *,
        best_value: float,
        total_evaluations: int,
        n_rounds: int,
        wall_seconds: float,
        virtual_seconds: float,
        bytes_sent: int,
        fault_summary: dict[str, int],
    ) -> None:
        self.emit(
            "run_end",
            best_value=float(best_value),
            total_evaluations=int(total_evaluations),
            n_rounds=int(n_rounds),
            wall_seconds=float(wall_seconds),
            virtual_seconds=float(virtual_seconds),
            bytes_sent=int(bytes_sent),
            fault_summary={str(k): int(v) for k, v in fault_summary.items()},
        )


def read_stream(path: str | Path) -> list[dict]:
    """Load a JSONL event stream written by :class:`RunRecorder`."""
    events = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            event = _parse_line(line)
            if event is not None:
                events.append(event)
    return events


def follow_stream(
    path: str | Path,
    *,
    poll_s: float = 0.1,
    idle_timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Tail a live JSONL event stream, yielding events as they are written.

    Reads to the current end of file, then keeps polling for appended
    lines (the classic ``tail -f`` loop — portable, no inotify needed)
    until one of:

    * a terminal event (``run_end``) is yielded — the recorder writes
      nothing after it, so the stream is complete;
    * ``idle_timeout_s`` elapses with no new data (``None`` = wait forever);
    * ``stop()`` returns true (cooperative interruption for tests/services).

    A partially-written trailing line (the writer flushes whole lines, but
    the reader can race the OS buffer) is held back until its newline
    arrives.  ``repro trace --follow`` and the service's file-based status
    path share this one reader.
    """
    path = Path(path)
    buffer = ""
    last_data = time.monotonic()
    with path.open(encoding="utf-8") as fh:
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if not buffer.endswith("\n"):
                    continue  # incomplete line: wait for the rest
                event = _parse_line(buffer)
                buffer = ""
                last_data = time.monotonic()
                if event is None:
                    continue
                yield event
                if event.get("event") in TERMINAL_EVENTS:
                    return
                continue
            if stop is not None and stop():
                return
            if (
                idle_timeout_s is not None
                and time.monotonic() - last_data >= idle_timeout_s
            ):
                return
            time.sleep(poll_s)


def replay_metrics(events: Iterable[dict]) -> MetricsRegistry:
    """Project a recorded stream onto a Prometheus-style metrics registry.

    The recorder keeps no live registry; ``repro trace --prometheus`` builds
    one from the stream here, event by event.
    """
    m = MetricsRegistry()
    for record in events:
        event = record.get("event")
        if event == "run_start":
            m.set_gauge("repro_slaves", record["n_slaves"])
        elif event == "round_telemetry":
            for phase, seconds in record["phase_seconds"].items():
                m.inc("repro_phase_seconds_total", seconds, phase=phase)
            m.inc("repro_master_wait_seconds_total", record["master_wait_s"])
            for slave, seconds in record["gather_idle_s"].items():
                m.inc("repro_gather_idle_seconds_total", seconds, slave=slave)
            m.inc(
                "repro_bytes_total",
                sum(record["task_nbytes"].values()),
                direction="task",
            )
            m.inc(
                "repro_bytes_total",
                sum(record["report_nbytes"].values()),
                direction="report",
            )
        elif event == "burst_telemetry":
            slave = record["slave_id"]
            m.set_gauge("repro_pipeline_queue_depth", record["queue_depth"], slave=slave)
            m.set_gauge("repro_pipeline_staleness", record["staleness"], slave=slave)
            m.inc("repro_bursts_total", outcome=record["outcome"])
            m.inc("repro_burst_latency_seconds_total", record["latency_s"], slave=slave)
        elif event == "faults":
            for kind, key in (
                ("failed", "failed_slaves"),
                ("backoff", "backoff_slaves"),
                ("duplicate", "duplicate_reports"),
                ("stale", "stale_reports"),
            ):
                if record[key]:
                    m.inc("repro_faults_total", record[key], kind=kind)
        elif event == "round_end":
            m.inc("repro_rounds_total")
            m.inc("repro_evaluations_total", record["evaluations"])
            m.set_gauge("repro_best_value", record["best_value"])
    return m


def summarize_stream(events: list[dict]) -> dict:
    """Aggregate a recorded stream: phase totals, idle ratios, fault tallies.

    The JSONL-side counterpart of ``analysis.report.summarize_result`` —
    ``python -m repro trace`` renders whichever of the two matches its
    input file, with the same headline numbers.
    """
    manifest = next((e for e in events if e["event"] == "run_start"), None)
    finale = next((e for e in events if e["event"] == "run_end"), None)
    phase_totals: dict[str, float] = defaultdict(float)
    gather_idle: dict[int, float] = defaultdict(float)
    task_bytes = report_bytes = 0
    fault_tallies: Counter[str] = Counter()
    n_rounds = 0
    n_bursts = 0
    queue_depth_sum = 0
    max_staleness = 0
    burst_outcomes: Counter[str] = Counter()
    for event in events:
        kind = event["event"]
        if kind == "round_telemetry":
            for phase, seconds in event["phase_seconds"].items():
                phase_totals[phase] += seconds
            phase_totals["master_wait"] += event["master_wait_s"]
            for slave, seconds in event["gather_idle_s"].items():
                gather_idle[int(slave)] += seconds
            task_bytes += sum(event["task_nbytes"].values())
            report_bytes += sum(event["report_nbytes"].values())
        elif kind == "burst_telemetry":
            n_bursts += 1
            queue_depth_sum += int(event["queue_depth"])
            max_staleness = max(max_staleness, int(event["staleness"]))
            burst_outcomes[str(event["outcome"])] += 1
        elif kind == "faults":
            fault_tallies["failed"] += event["failed_slaves"]
            fault_tallies["backoff"] += event["backoff_slaves"]
            fault_tallies["duplicate"] += event["duplicate_reports"]
            fault_tallies["stale"] += event["stale_reports"]
        elif kind == "round_end":
            n_rounds += 1
    gather_total = phase_totals.get("gather", 0.0)
    idle_ratio = 0.0
    if gather_total > 0.0 and gather_idle:
        idle_ratio = min(
            1.0, sum(gather_idle.values()) / (gather_total * len(gather_idle))
        )
    return {
        "variant": manifest["variant"] if manifest else "?",
        "instance": manifest["instance"] if manifest else "?",
        "n_slaves": manifest["n_slaves"] if manifest else 0,
        "n_rounds": n_rounds,
        "best_value": finale["best_value"] if finale else None,
        "total_evaluations": finale["total_evaluations"] if finale else None,
        "wall_seconds": finale["wall_seconds"] if finale else None,
        "phase_totals": dict(phase_totals),
        "gather_idle_s": dict(sorted(gather_idle.items())),
        "gather_idle_ratio": idle_ratio,
        "bytes": {"task": task_bytes, "report": report_bytes},
        "fault_tallies": {k: v for k, v in fault_tallies.items() if v},
        "pipeline": (
            {
                "bursts": n_bursts,
                "mean_queue_depth": queue_depth_sum / n_bursts,
                "max_staleness": max_staleness,
                "outcomes": dict(burst_outcomes),
            }
            if n_bursts
            else None
        ),
    }
