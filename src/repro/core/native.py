"""The native tabu-search hot path: build, cache and bind ``_native.c``.

``_native.c`` holds the compound move, step 11's §3.2 intensification (the
swap scan, and the strategic oscillation with its repair), the greedy fill,
the state reload, and Figure 1 steps 3–11 of a diversification round
around them (see its header comment for the exactness contract), plus
numpy's seeding chain that :func:`repro.rng.task_seed` and
:func:`repro.rng.reseed` call.  This module compiles it once with cffi's
API mode and the system C compiler; each
:class:`~repro.core.solution.SearchState` of an integer instance binds
it to its own buffers at construction through :class:`NativeKernel`, and
each :class:`~repro.core.tabu_search.TabuSearch` thread binds its memories
once through a :class:`NativeThread`, which runs one ``ts_thread`` call
per diversification round.

Build cache
    The extension is keyed by the SHA-256 of the C source, the cffi
    declarations and the compiler flags, and stored per interpreter
    (``sys.implementation.cache_tag``) under the user cache directory
    (``$XDG_CACHE_HOME`` or ``~/.cache``, then ``repro-native/``), never in
    the source tree.  A build runs in a private temporary directory and is
    published with one ``os.replace``, so concurrent first imports race
    harmlessly.  Loading is eager — importing :mod:`repro.core` builds or
    loads it — so a compile never lands inside a timed solve, and worker
    processes only ``dlopen`` the cached file.

Fallback
    Without cffi, without a compiler, or with an unwritable cache,
    :data:`available` is ``False``, one :class:`RuntimeWarning` names the
    reason, and every state runs the generic Python reference path of
    :class:`~repro.core.solution.SearchState` instead.  A failed build
    leaves a ``.failed`` marker (same key) holding the reason, so later
    imports and worker processes do not compile again; deleting the marker
    retries the build.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import math
import os
import shutil
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["available", "NativeKernel", "NativeThread"]

_SOURCE = Path(__file__).with_name("_native.c")

#: ``-ffp-contract=off`` keeps every load/slack update a separate IEEE-754
#: add or subtract, as numpy performs it.
_FLAGS = ["-O2", "-ffp-contract=off"]

_CDEF = """
typedef struct {
    int64_t n, m, nw;
    double fit_eps;
    const double *capacities;
    const double *profits;
    const double *weightsT;
    const int64_t *weightsT_int;
    const double *ratio;
    const int64_t *flat_sorted;
    const uint64_t *cumbits;
    const double *sorted_profits;
    const uint64_t *suffix;
    const int64_t *q_offsets;
    const double *density;
    const int64_t *density_order;
    int8_t *x;
    uint8_t *free_mask;
    uint64_t *free_words;
    int64_t *q_base;
    double *load;
    double *slack;
    double value;
    int64_t n_packed;
    uint64_t *fit;
    uint64_t *rich;
    int64_t *allowed;
    double *ratios;
    int64_t *dropped;
    int64_t *added;
    int64_t n_dropped, n_added, n_allowed;
    int64_t evaluations;
    int64_t empty_row;
} ts_kernel;

typedef struct {
    int64_t nb_int, nb_local, nb_drop, add_candidates, tenure;
    int64_t swap, oscillate, depth;
    int64_t max_evaluations, max_moves;
    double target_value;
    void *bitgen;
    int64_t *expiry;
    int64_t clock;
    int64_t *counts;
    int64_t iterations;
    int8_t *elite_x;
    double *elite_values;
    int64_t elite_count, elite_capacity;
    int8_t *best_x;
    int8_t *local_x;
    double best_value, local_value;
    int64_t best_moved;
    int64_t move_evaluations, intensify_evaluations;
    int64_t moves, loops, intensifications;
    int64_t int_round, phase, stall;
    double *trace;
    int64_t trace_len, trace_cap;
} ts_search;

uint64_t ts_bounded(void *bitgen, uint64_t k);
int ts_move(ts_kernel *k, const int64_t *expiry, int64_t clock, void *bitgen,
            int64_t nb_drop, double best_value, int64_t add_candidates);
int ts_add_continue(ts_kernel *k, const int64_t *expiry, int64_t clock,
                    void *bitgen, double best_value, int64_t add_candidates,
                    int64_t j);
int64_t ts_swap(ts_kernel *k);
int ts_fill(ts_kernel *k, const int64_t *order, int64_t len);
int64_t ts_repair(ts_kernel *k);
int ts_oscillate(ts_kernel *k, void *bitgen, int64_t depth,
                 const int64_t *order, int64_t n_order);
void ts_reload(ts_kernel *k);
int ts_elite_offer(int8_t *rows, double *values, int64_t *count,
                   int64_t capacity, int64_t n, const int8_t *x, double value);
int ts_thread(ts_kernel *k, ts_search *t, int64_t resume);
void ts_seed_pcg64(const uint32_t *entropy, int64_t n, uint64_t *out);
int64_t ts_task_seed(const uint32_t *entropy, int64_t n);
"""


def _cache_dir() -> Path:
    base = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return base / "repro-native" / sys.implementation.cache_tag


def _build(name: str, source: str, target: Path) -> None:
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(name, source, extra_compile_args=_FLAGS)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".build-", dir=target.parent)
    try:
        os.replace(ffi.compile(tmpdir=tmp), target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _remember_failure(marker: Path, reason: str) -> None:
    """Record a failed build next to where the module would have gone, so
    later imports (worker processes included) skip straight to the Python
    reference path."""
    try:
        tmp = marker.with_name(f".{marker.name}.{os.getpid()}")
        tmp.write_text(reason)
        os.replace(tmp, marker)
    except OSError:  # unwritable cache: the next build fails before compiling
        pass


def _load():
    """The compiled module, or ``(None, reason)`` when it cannot be had."""
    try:
        import cffi  # noqa: F401
    except ImportError:
        return None, "cffi is not installed"
    source = _SOURCE.read_text()
    key = "\0".join([_CDEF, source, *_FLAGS]).encode()
    name = "_repro_native_" + hashlib.sha256(key).hexdigest()[:16]
    target = _cache_dir() / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    failed = target.with_suffix(".failed")
    if failed.exists():
        return None, f"{failed.read_text()}; delete {failed} to retry the build"
    try:
        if not target.exists():
            try:
                _build(name, source, target)
            except Exception as exc:
                _remember_failure(failed, f"{type(exc).__name__}: {exc}")
                raise
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:  # any build or load failure: the Python path runs
        return None, f"{type(exc).__name__}: {exc}"
    return module, None


_module, _reason = _load()
#: Whether the native kernel loaded; when ``False`` the Python reference
#: path runs.
available: bool = _module is not None
if not available:
    warnings.warn(
        f"native tabu-search kernel unavailable ({_reason}); "
        "using the Python reference path",
        RuntimeWarning,
        stacklevel=2,
    )
    ffi = lib = None
else:
    ffi, lib = _module.ffi, _module.lib


_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bitgen(rng: np.random.Generator):
    """``rng``'s numpy ``bitgen_t`` as a C pointer, read off its capsule.

    numpy's ``cffi`` and ``ctypes`` interfaces cost about 2 ms and 13 µs
    per generator.  A warm thread re-seeds one resident generator per task
    (:func:`repro.rng.reseed`), so this runs once per thread there, but
    every caller-supplied generator still needs it.
    """
    return ffi.cast("void *", _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator"))


#: ``ts_move``/``ts_oscillate``'s hand-back status.
_TS_HANDBACK = 1

#: ``repair``'s error when dropping every item leaves the state infeasible
#: (impossible with non-negative weights and capacities).
INFEASIBLE_EMPTY = "empty solution is infeasible: inconsistent instance"

#: The numpy dtype each C element type of ``ts_kernel`` aliases (the free
#: mask is numpy ``bool``, one byte per item).
_DTYPES = {
    "double": np.dtype(np.float64),
    "int64_t": np.dtype(np.int64),
    "uint64_t": np.dtype(np.uint64),
    "int8_t": np.dtype(np.int8),
    "uint8_t": np.dtype(np.bool_),
}


class NativeKernel:
    """The C kernel's view of one integer-instance ``SearchState``.

    Holds a ``ts_kernel`` struct whose pointers alias the state's own
    buffers and the instance's :class:`~repro.core.bitset.HotTables`, plus
    the move scratch.  ``value`` and ``n_packed`` are Python scalars on the
    state; every call copies them in and back out.
    """

    __slots__ = (
        "ptr", "_keep", "dropped", "added", "allowed", "ratios",
        "_tabu", "_expiry", "_rng", "_bitgen",
    )

    def __init__(self, state, fit_eps: float) -> None:
        inst = state.instance
        hot = inst.hot
        tables, profit_order = hot.integer, hot.profit_order
        m, n = inst.shape
        self._keep: list = []
        self.allowed = np.empty(n, np.int64)
        self.ratios = np.empty(n, np.float64)
        self.dropped = np.empty(n, np.int64)
        self.added = np.empty(n, np.int64)
        s = self.ptr = ffi.new("ts_kernel *")
        s.n, s.m, s.nw = n, m, tables.words
        s.fit_eps = fit_eps
        s.capacities = self._bind("double", inst.capacities)
        s.profits = self._bind("double", inst.profits)
        s.weightsT = self._bind("double", hot.weightsT)
        s.weightsT_int = self._bind("int64_t", tables.weightsT_int)
        s.ratio = self._bind("double", hot.ratio_matrix)
        s.flat_sorted = self._bind("int64_t", tables.flat_sorted)
        s.cumbits = self._bind("uint64_t", tables.cumbits)
        s.sorted_profits = self._bind("double", profit_order.sorted_profits)
        s.suffix = self._bind("uint64_t", profit_order.suffix)
        s.q_offsets = self._bind("int64_t", tables.q_offsets)
        s.density = self._bind("double", inst.density)
        s.density_order = self._bind("int64_t", inst.density_order)
        s.x = self._bind("int8_t", state.x)
        s.free_mask = self._bind("uint8_t", state._free)
        s.free_words = self._bind("uint64_t", state.free_words)
        s.q_base = self._bind("int64_t", state._q_base)
        s.load = self._bind("double", state.load)
        s.slack = self._bind("double", state.slack)
        s.fit = self._bind("uint64_t", np.empty(tables.words, np.uint64))
        s.rich = self._bind("uint64_t", np.empty(tables.words, np.uint64))
        s.allowed = self._bind("int64_t", self.allowed)
        s.ratios = self._bind("double", self.ratios)
        s.dropped = self._bind("int64_t", self.dropped)
        s.added = self._bind("int64_t", self.added)
        s.empty_row = 0
        self._tabu = self._expiry = self._rng = self._bitgen = None

    def _bind(self, ctype: str, array: np.ndarray):
        """A C view of ``array`` after checking dtype and contiguity; the
        view (and so the array) lives as long as this object."""
        if array.dtype != _DTYPES[ctype] or not array.flags.c_contiguous:
            raise TypeError(f"native kernel needs a C-contiguous {_DTYPES[ctype]} array")
        buf = ffi.from_buffer(ctype + "[]", array)
        self._keep.append(buf)
        return buf

    def _sync_out(self, state) -> None:
        s = self.ptr
        state.value = s.value
        state.n_packed = s.n_packed
        state._invalidate()

    def _sync_in(self, state, tabu=None, rng=None) -> None:
        if tabu is not None and tabu is not self._tabu:
            self._tabu, self._expiry = tabu, ffi.from_buffer("int64_t[]", tabu._expiry)
        if rng is not None:
            self.bitgen(rng)
        s = self.ptr
        s.value = state.value
        s.n_packed = state.n_packed

    def bitgen(self, rng):
        """``rng``'s ``bitgen_t`` pointer, read once per generator."""
        if rng is not self._rng:
            self._rng, self._bitgen = rng, _bitgen(rng)
        return self._bitgen

    def handback_pick(self, rng) -> int:
        """The Python path's pick from a handed-back Add selection."""
        top = self.ratios[: self.ptr.n_allowed].argpartition(1)[:2]
        return int(self.allowed[top[rng.integers(0, 2)]])

    def handback_order(self, depth: int) -> int:
        """The Python path's forced adds from a handed-back oscillation,
        written into :attr:`dropped`; returns how many."""
        n_free = self.ptr.n_allowed
        order = self.allowed[:n_free][np.argsort(self.ratios[:n_free])][:depth]
        self.dropped[: order.size] = order
        return order.size

    def move(self, state, tabu, rng, nb_drop: int, best_value: float,
             add_candidates: int) -> tuple[list[int], list[int], int]:
        """One Drop/Add compound move: ``(dropped, added, evaluations)``.

        ``add_candidates`` must be 1 or 2.  A handed-back Add selection is
        made here exactly as the Python path makes it.
        """
        self._sync_in(state, tabu, rng)
        s = self.ptr
        clock = tabu.clock
        status = lib.ts_move(
            s, self._expiry, clock, self._bitgen, nb_drop, best_value, add_candidates
        )
        while status:
            status = lib.ts_add_continue(
                s, self._expiry, clock, self._bitgen, best_value, add_candidates,
                self.handback_pick(rng),
            )
        self._sync_out(state)
        return (
            self.dropped[: s.n_dropped].tolist(),
            self.added[: s.n_added].tolist(),
            s.evaluations,
        )

    def swap(self, state) -> tuple[int, int]:
        """Swap intensification in place: ``(swaps applied, evaluations)``."""
        self._sync_in(state)
        swaps = lib.ts_swap(self.ptr)
        self._sync_out(state)
        return swaps, self.ptr.evaluations

    def fill(self, state, order: np.ndarray) -> bool:
        """Greedy fill in ``order``; ``False`` (state untouched) when
        ``order`` is not a 1-D array of in-range integer indices."""
        order = np.asarray(order)
        if order.ndim != 1 or order.dtype.kind not in "iu":
            return False
        order = np.ascontiguousarray(order, dtype=np.int64)
        self._sync_in(state)
        if lib.ts_fill(self.ptr, ffi.from_buffer("int64_t[]", order), order.size) < 0:
            return False
        self._sync_out(state)
        return True

    def repair(self, state) -> int:
        """``construction.repair`` in place: the number of items dropped."""
        self._sync_in(state)
        dropped = lib.ts_repair(self.ptr)
        self._sync_out(state)
        if dropped < 0:
            raise RuntimeError(INFEASIBLE_EMPTY)
        return dropped

    def oscillate(self, state, rng, depth: int) -> int:
        """``strategic_oscillation`` in place; returns the evaluations charged.

        A handed-back forced-add order is sorted here exactly as the Python
        path sorts it.
        """
        self._sync_in(state, rng=rng)
        s = self.ptr
        status = lib.ts_oscillate(s, self._bitgen, depth, ffi.NULL, 0)
        if status == _TS_HANDBACK:
            n_order = self.handback_order(depth)
            status = lib.ts_oscillate(s, self._bitgen, depth, s.dropped, n_order)
        self._sync_out(state)
        if status < 0:
            raise RuntimeError(INFEASIBLE_EMPTY)
        return s.evaluations

    def reload(self, state) -> None:
        """Recompute every buffer but ``value`` from ``state.x`` (see
        ``ts_reload``)."""
        lib.ts_reload(self.ptr)
        state.n_packed = self.ptr.n_packed


#: ``ts_thread``'s exits; every one but ``_TH_DONE`` resumes the same round.
_TH_INFEASIBLE, _TH_DONE, _TH_ADD_HANDBACK, _TH_OSC_HANDBACK = -1, 0, 1, 2
_NO_CAP = 2**63 - 1
#: Per-move trace entries ``ts_thread`` buffers before it returns to have
#: them emptied into the thread's trace list.
_TRACE_CHUNK = 1024


class NativeThread:
    """``ts_thread``'s view of one :class:`~repro.core.tabu_search.TabuSearch`.

    Figure 1 steps 3–11 of a diversification round run as one C call on the
    thread's own ``TabuList._expiry``, ``History.counts`` and elite block,
    bound once here (``rebind`` resets them in place), and on this object's
    ``ts_search`` struct, X*/X_local vectors and per-move trace chunk.
    :meth:`start` sets what a run changes (bitgen, strategy, budget caps);
    :meth:`round` copies in what step 12 changed and copies the rest out.
    """

    __slots__ = ("ptr", "best_x", "_native", "_trace", "_keep")

    def __init__(self, thread) -> None:
        n = thread.instance.n_items
        self._native = thread.state.native()
        self.best_x = np.empty(n, np.int8)
        self._trace = np.empty(_TRACE_CHUNK, np.float64)
        elite = thread.elite
        s = self.ptr = ffi.new("ts_search *")
        self._keep = [
            ffi.from_buffer("int8_t[]", self.best_x),
            ffi.from_buffer("int8_t[]", np.empty(n, np.int8)),  # X_local
            ffi.from_buffer("double[]", self._trace),
            ffi.from_buffer("int64_t[]", thread.tabu._expiry),
            ffi.from_buffer("int64_t[]", thread.history.counts),
            ffi.from_buffer("int8_t[]", elite.rows),
            ffi.from_buffer("double[]", elite.values),
        ]
        (s.best_x, s.local_x, s.trace, s.expiry, s.counts, s.elite_x,
         s.elite_values) = self._keep
        s.elite_capacity = elite.capacity
        s.trace_cap = _TRACE_CHUNK

    def start(self, thread, budget, nb_int: int) -> None:
        """Set up one run of ``thread`` under ``budget`` (no wall clock)."""
        strategy, kind, s = thread.strategy, thread.config.intensification, self.ptr
        s.nb_int = nb_int
        s.nb_local = strategy.nb_local
        s.nb_drop = max(0, int(strategy.nb_drop))
        s.add_candidates = thread.engine.add_candidates
        s.tenure = thread.tabu.tenure
        s.swap, s.oscillate = kind.swaps, kind.oscillates
        s.depth = thread.config.oscillation_depth
        s.max_evaluations = _cap(budget.max_evaluations)
        s.max_moves = _cap(budget.max_moves)
        s.target_value = (
            float("inf") if budget.target_value is None else float(budget.target_value)
        )
        s.bitgen = self._native.bitgen(thread.engine.rng)
        s.moves = s.loops = s.intensifications = 0

    def round(self, thread, result) -> float | None:
        """Figure 1 steps 3–11 of one diversification round of ``thread``.

        Appends one incumbent value per move to ``result.value_trace`` and
        sets its move, loop and intensification counts; the state, every
        memory and the counters change as in the per-move run.  Returns
        F(X*) when :attr:`best_x` holds a newer X* than ``thread.best``,
        else ``None``.
        """
        state, counters, native, s = thread.state, thread.counters, self._native, self.ptr
        if state._n_excluded:
            state.clear_exclusions()
        native._sync_in(state)
        s.clock = thread.tabu.clock
        s.iterations = thread.history.iterations
        s.elite_count = thread.elite.count
        s.best_value = thread.best.value
        s.best_moved = 0
        s.move_evaluations = counters.move_evaluations
        s.intensify_evaluations = counters.intensify_evaluations
        s.int_round = s.phase = 0
        moves, resume = s.moves, -1
        while True:
            status = lib.ts_thread(native.ptr, s, resume)
            result.value_trace.extend(self._trace[: s.trace_len].tolist())
            if status == _TH_DONE:
                break
            if status == _TH_ADD_HANDBACK:
                resume = native.handback_pick(thread.engine.rng)
            elif status == _TH_OSC_HANDBACK:
                resume = native.handback_order(s.depth)
            elif status == _TH_INFEASIBLE:
                native._sync_out(state)
                raise RuntimeError(INFEASIBLE_EMPTY)
            else:  # a full trace chunk
                resume = -1
        native._sync_out(state)
        thread.tabu.advance_to(s.clock)
        thread.history.iterations = s.iterations
        thread.elite.count = s.elite_count
        counters.move_evaluations = s.move_evaluations
        counters.intensify_evaluations = s.intensify_evaluations
        counters.moves += s.moves - moves
        result.moves = s.moves
        result.local_search_loops = s.loops
        result.intensifications = s.intensifications
        return s.best_value if s.best_moved else None


def _cap(limit: float | None) -> int:
    """A budget cap as ``int64``: ``None`` (and anything past it) is no cap.

    The caps bound integer counts, so ``count >= limit`` is
    ``count >= ceil(limit)``.
    """
    return _NO_CAP if limit is None else min(math.ceil(limit), _NO_CAP)
