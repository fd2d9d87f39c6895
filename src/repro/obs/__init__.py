"""Structured observability: typed round telemetry, JSONL run records, metrics.

Three layers (DESIGN.md §5.5):

:mod:`~repro.obs.telemetry`
    :class:`RoundTelemetry` — the typed per-round measurement record every
    backend emits (wall-phase splits, per-slave gather idle, byte ledgers)
    as ``backend.last_telemetry``.

:mod:`~repro.obs.recorder`
    :class:`RunRecorder` — streams run lifecycle events as JSONL (manifest,
    round telemetry, ISP/SGP decisions, fault tallies) with near-zero
    overhead when disabled; :func:`replay_metrics` projects a recorded
    stream onto a :class:`~repro.obs.metrics.MetricsRegistry`.

:mod:`~repro.obs.metrics`
    Label-aware counters/gauges exportable as Prometheus-style text.

:mod:`~repro.obs.schema` pins the JSONL event schema (stable field set per
event type) and validates recorded streams; ``python -m repro trace``
renders a recorded run without re-searching.
"""

from .clock import monotonic_s
from .metrics import MetricsRegistry
from .recorder import (
    RunRecorder,
    follow_stream,
    read_stream,
    replay_metrics,
    summarize_stream,
)
from .schema import EVENT_SCHEMAS, validate_event, validate_stream
from .telemetry import BurstTelemetry, RoundTelemetry

__all__ = [
    "monotonic_s",
    "BurstTelemetry",
    "RoundTelemetry",
    "RunRecorder",
    "follow_stream",
    "read_stream",
    "replay_metrics",
    "summarize_stream",
    "MetricsRegistry",
    "EVENT_SCHEMAS",
    "validate_event",
    "validate_stream",
]
