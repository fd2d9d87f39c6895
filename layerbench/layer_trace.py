"""Outside-in layer tracing for ``bench_layers.py --trace 1``.

The program itself records no spans yet, so this module wraps the public
entry point of each layer from the outside (a monkeypatch installed only for
the traced part of a run) and keeps one span per call in memory::

    [name, start_ns, end_ns, parent_span, thread_id]

``parent_span`` is the innermost open span of the same thread, so a span's
*self time* is its duration minus the durations of its direct children.
Only the benchmark's own process is visible: worker processes forked while
the wrappers are installed inherit them, but the wrappers pass straight
through in any process other than the one that installed them.

Layer names follow the repository's modules (``core.tabu_search``,
``parallel.runtime``, ``master``, ``parallel.shm.WireCodec``, the backends'
carrier methods, ``core.reduction``, ``obs.recorder``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


def _layer_table() -> list[tuple[str, Any, str, Callable | None]]:
    """``(span name, owner, attribute, after-hook)`` for every traced layer.

    Imported lazily so that importing this module does not import the
    program.  ISP and SGP are patched where the master looks them up
    (``repro.master.master``); ``shared_selector`` is looked up from its
    module at call time, so patching the module attribute reaches it.
    """
    from repro.core import reduction, tabu_search
    from repro.master import master
    from repro.obs import recorder
    from repro.parallel import backend_socket, backends, runtime, shm

    def kernel_counts(tracer: "Tracer", args: tuple, out: Any) -> None:
        tracer.count(**{"kernel.evals": out.evaluations, "kernel.moves": out.moves})

    def report_counts(tracer: "Tracer", args: tuple, out: Any) -> None:
        tracer.count(**{"report.evals": out.evaluations, "report.moves": out.moves})

    def round_telemetry(tracer: "Tracer", args: tuple, out: Any) -> None:
        telemetry = args[0].last_telemetry
        if telemetry is not None:
            tracer.count(**{"telemetry.master_wait_s": telemetry.master_wait_s})

    table: list[tuple[str, Any, str, Callable | None]] = [
        ("kernel.tabu_search", tabu_search.TabuSearch, "run", kernel_counts),
        ("runtime.execute", runtime.SlaveRuntime, "execute", None),
        ("master.run", master.MasterProcess, "run", None),
        ("master.isp", master, "generate_initial_solutions", None),
        ("master.sgp", master, "update_strategies", None),
        ("codec.encode_task", shm.WireCodec, "encode_task", None),
        ("codec.encode_task_batch", shm.WireCodec, "encode_task_batch", None),
        ("codec.decode_report", shm.WireCodec, "decode_report", report_counts),
        ("codec.decode_report_batch", shm.WireCodec, "decode_report_batch", None),
        ("reduction.shared_selector", reduction, "shared_selector", None),
        ("obs.emit", recorder.RunRecorder, "emit", None),
    ]
    for cls in (
        backends.SerialBackend,
        backends.MultiprocessingBackend,
        backend_socket.SocketBackend,
    ):
        table.append(("carrier.run_round", cls, "run_round", round_telemetry))
        table.append(("carrier.dispatch", cls, "dispatch", None))
        table.append(("carrier.next_report", cls, "next_report", None))
    return table


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: counts taken at layer boundaries (evaluations, moves, waits)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()  # service solves run in 2 threads
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------- #
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, **amounts: float) -> None:
        with self._counts_lock:
            for key, amount in amounts.items():
                self.counts[key] += amount

    # -- wrappers --------------------------------------------------------- #
    def _wrap(self, owner: Any, attr: str, name: str, after: Callable | None) -> None:
        original = owner.__dict__[attr]
        func = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            span = tracer.begin(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        for name, owner, attr, after in _layer_table():
            self._wrap(owner, attr, name, after)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------- #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[3] is not None:
                child_ns[id(span[3])] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[id(span)]) / 1e9
        return out

    def root_seconds(self) -> float:
        """Summed duration of the outermost spans of every thread.

        Equal to the summed self time of all spans, so divided by the wall
        time of the traced operations it is the share the layers cover.
        """
        return sum(s[2] - s[1] for s in self.spans if s[3] is None) / 1e9

    def write(self, path: Path) -> None:
        """Dump the raw spans as JSON lines (parent as a span index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = -1 if span[3] is None else index[id(span[3])]
                fh.write(json.dumps([span[0], span[1], span[2], parent, span[4]]) + "\n")
