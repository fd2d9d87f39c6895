"""A small label-aware metrics registry with Prometheus text export.

No client-library dependency: the registry keeps counters and gauges in
plain dicts and renders them in the Prometheus exposition format, which is
all a scrape endpoint (or a test) needs.  The :class:`~repro.obs.recorder.RunRecorder`
feeds one as events are emitted, so a live run and a replayed JSONL stream
produce the same series.
"""

from __future__ import annotations

__all__ = ["MetricsRegistry"]

#: Metric names are ``[a-zA-Z_:][a-zA-Z0-9_:]*`` per the Prometheus data
#: model; we only ever generate snake_case names, so validation is a guard
#: against typos in call sites, not a full parser.
_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class MetricsRegistry:
    """Counters and gauges keyed by ``(name, labelset)``."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelSet], float] = {}
        self._gauges: dict[tuple[str, LabelSet], float] = {}
        self._help: dict[str, str] = {}

    @staticmethod
    def _check_name(name: str) -> str:
        if not name or not set(name) <= _NAME_OK or name[0].isdigit():
            raise ValueError(f"invalid metric name {name!r}")
        return name

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric name."""
        self._help[self._check_name(name)] = help_text

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        key = (self._check_name(name), _labelset(labels))
        self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self._gauges[(self._check_name(name), _labelset(labels))] = float(value)

    def counter_value(self, name: str, **labels: str) -> float:
        return self._counters.get((name, _labelset(labels)), 0.0)

    def render_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format."""
        lines: list[str] = []
        for kind, table in (("counter", self._counters), ("gauge", self._gauges)):
            by_name: dict[str, list[tuple[LabelSet, float]]] = {}
            for (name, labels), value in table.items():
                by_name.setdefault(name, []).append((labels, value))
            for name in sorted(by_name):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} {kind}")
                for labels, value in sorted(by_name[name]):
                    lines.append(f"{name}{_render_labels(labels)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
