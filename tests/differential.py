"""Reusable differential harness: reference path vs shm/batched path.

The tabu-search reproduction defines correctness as *bit-identical
incumbent trajectories*: two executions of the same (instance, seed,
variant) must agree on every solution, every round statistic, and every
byte charged to the farm clock — regardless of which transport carried
the messages or how many slaves shared a worker.  This module packages
that contract so any test can assert it in one call:

``run_canonical``
    Solve a variant with an optional externally-constructed backend and
    return the **canonical serialization**: the FORMAT_VERSION-2
    ``result_to_dict`` payload with every wall-measured field zeroed
    (wall time is the one thing two runs legitimately disagree on).

``assert_differential``
    Run one case under several backend factories and assert every
    canonical payload is byte-identical to the reference's, reporting
    the first differing JSON path on failure.

``assert_native_matches_numpy``
    Run one case twice in this process — once with the native C kernel,
    once with every state held on the generic Python reference path
    (:func:`numpy_reference`) — and assert the canonical bytes match.

``assert_c_loop_matches_per_move``
    The same, with the reference run holding every search thread on the
    per-move loop (:func:`per_move_reference`): the native compound move
    without the native thread (``ts_thread``).

Wall-measured fields canonicalized away (everything else — virtual
seconds, byte ledgers, value histories, per-slave accounting — must
match exactly):

* top-level ``wall_seconds``;
* per-round ``phase_wall_seconds`` and ``gather_idle_s``;
* the trace's ``wall_phases`` records;
* the async pipeline's ``master_wait_s`` and ``reclaimed_idle_s``.
"""

from __future__ import annotations

import contextlib
import copy
import json
from typing import Any, Callable, Iterator, Mapping

from repro.analysis.serialize import result_to_dict
from repro.core import TabuSearch, native
from repro.core.instance import MKPInstance
from repro.master.result import ParallelRunResult
from repro.parallel.backends import Backend
from repro.variants.runner import solve_cts1, solve_cts2, solve_its, solve_seq

__all__ = [
    "VARIANTS",
    "assert_c_loop_matches_per_move",
    "assert_differential",
    "assert_native_matches_numpy",
    "canonical_bytes",
    "canonicalize",
    "first_difference",
    "numpy_reference",
    "per_move_reference",
    "run_canonical",
]

VARIANTS: Mapping[str, Callable[..., ParallelRunResult]] = {
    "seq": solve_seq,
    "its": solve_its,
    "cts1": solve_cts1,
    "cts2": solve_cts2,
}


def canonicalize(data: dict) -> dict:
    """Strip wall-clock measurements from a ``result_to_dict`` payload."""
    out = copy.deepcopy(data)
    out["wall_seconds"] = 0.0
    for rnd in out.get("rounds", []):
        rnd["phase_wall_seconds"] = {}
        rnd["gather_idle_s"] = {}
    trace = out.get("trace")
    if isinstance(trace, dict):
        trace["wall_phases"] = []
    stats = out.get("pipeline_stats")
    if isinstance(stats, dict):
        for key in ("master_wait_s", "reclaimed_idle_s"):
            if key in stats:
                stats[key] = 0.0
    return out


def canonical_bytes(result: ParallelRunResult) -> bytes:
    """Canonical serialized form of a run, suitable for equality asserts."""
    return json.dumps(
        canonicalize(result_to_dict(result)), sort_keys=True
    ).encode()


def run_canonical(
    instance: MKPInstance,
    *,
    variant: str = "cts2",
    backend_factory: Callable[[], Backend] | None = None,
    n_slaves: int = 4,
    n_rounds: int = 3,
    rng_seed: int = 7,
    max_evaluations: int = 1_500,
    **solver_kwargs: Any,
) -> bytes:
    """Solve ``variant`` once and return its canonical serialization.

    ``backend_factory`` builds the backend to run on (``None`` = the
    runner's default serial backend); the harness owns its shutdown, so
    factories can hand over freshly-constructed multiprocessing backends
    without leaking workers on assertion failure.  ``seq`` is the one
    sequential thread, so it takes no slave count, rounds or backend.
    ``solver_kwargs`` (``pipeline``, ``core_ratio``, ...) pass through.
    """
    solver = VARIANTS[variant]
    backend = backend_factory() if backend_factory is not None else None
    if variant != "seq":
        solver_kwargs.update(n_slaves=n_slaves, n_rounds=n_rounds, backend=backend)
    try:
        result = solver(
            instance,
            rng_seed=rng_seed,
            max_evaluations=max_evaluations,
            **solver_kwargs,
        )
    finally:
        if backend is not None:
            backend.shutdown()
    return canonical_bytes(result)


def first_difference(a: Any, b: Any, path: str = "$") -> str | None:
    """Human-readable JSON path of the first disagreement (None if equal)."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present in only one payload"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def assert_differential(
    instance: MKPInstance,
    factories: Mapping[str, Callable[[], Backend] | None],
    **case_kwargs: Any,
) -> None:
    """Assert every factory's run is byte-identical to the first's.

    ``factories`` maps a label (used in the failure message) to a backend
    factory; the first entry is the reference path.  ``case_kwargs``
    forward to :func:`run_canonical` (variant, seed, budgets, ...).
    """
    if len(factories) < 2:
        raise ValueError("need a reference and at least one candidate")
    labels = list(factories)
    payloads = {
        label: run_canonical(
            instance, backend_factory=factories[label], **case_kwargs
        )
        for label in labels
    }
    reference = payloads[labels[0]]
    for label in labels[1:]:
        if payloads[label] != reference:
            diff = first_difference(
                json.loads(reference), json.loads(payloads[label])
            )
            raise AssertionError(
                f"run {label!r} diverged from reference {labels[0]!r}: {diff}"
            )


@contextlib.contextmanager
def numpy_reference() -> Iterator[None]:
    """Build every search state created inside on the Python reference path.

    A :class:`~repro.core.solution.SearchState` binds the native C kernel at
    construction when ``repro.core.native.available``; holding the flag down
    for the block keeps every search thread, restart and fill of an
    in-process run on the generic numpy scans, and ``repro.rng.task_seed`` /
    ``reseed`` on the numpy expressions they reproduce.  Worker processes
    are not reached, so use in-process backends.
    """
    saved = native.available
    native.available = False
    try:
        yield
    finally:
        native.available = saved


def _no_op(thread: TabuSearch) -> None:
    pass


@contextlib.contextmanager
def per_move_reference() -> Iterator[None]:
    """Run every search thread built inside on the per-move loop.

    Threads get a no-op ``on_move`` hook, which keeps
    ``TabuSearch._intensification_rounds`` (one native compound move per
    Python iteration) instead of the native thread.  Like
    :func:`numpy_reference`, it reaches in-process threads only.
    """
    init = TabuSearch.__init__

    def init_with_hook(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.on_move is None:
            self.on_move = _no_op

    TabuSearch.__init__ = init_with_hook
    try:
        yield
    finally:
        TabuSearch.__init__ = init


def _assert_matches(run: Callable[[], bytes], reference_path, what: str) -> None:
    with reference_path():
        reference = run()
    candidate = run()
    if candidate != reference:
        diff = first_difference(json.loads(reference), json.loads(candidate))
        raise AssertionError(f"{what}: {diff}")


def assert_native_matches_numpy(run: Callable[[], bytes]) -> None:
    """Assert ``run()`` yields the same canonical bytes on both kernel paths.

    ``run`` is any zero-argument case returning canonical bytes (for
    instance a :func:`run_canonical` partial on an in-process backend).
    """
    _assert_matches(run, numpy_reference, "native kernel diverged from the Python path")


def assert_c_loop_matches_per_move(run: Callable[[], bytes]) -> None:
    """Assert ``run()`` yields the same canonical bytes with the native
    thread as on the per-move loop (:func:`per_move_reference`)."""
    _assert_matches(
        run, per_move_reference, "native thread diverged from the per-move loop"
    )
