"""The native tabu-search hot loop: build, cache and bind ``_native.c``.

``_native.c`` holds the bitset-mode compound move, the Figure-1
local-search loop around it, the §3.2 swap intensification and the greedy
fill (see its header comment for the exactness contract).  This module
compiles it once with cffi's API mode and the system C compiler; each
bitset-mode :class:`~repro.core.solution.SearchState` binds it to its own
buffers at construction through :class:`NativeKernel`, and each
:class:`~repro.core.tabu_search.TabuSearch` thread wraps that in a
:class:`NativeLoop`.

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
    reason, and every caller keeps the numpy reference path.  A failed
    build leaves a ``.failed`` marker (same key) holding the reason, so
    later imports and worker processes do not compile again; deleting the
    marker retries the build.
"""

from __future__ import annotations

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

__all__ = ["available", "NativeKernel", "NativeLoop"]

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
} ts_kernel;

typedef struct {
    int64_t nb_drop, nb_local, add_candidates, tenure;
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
    int64_t best_moved, local_moved;
    int64_t evaluations, moves, loop_moves, stall;
    double *trace;
    int64_t trace_len, trace_cap;
} ts_loop;

uint64_t ts_bounded(void *bitgen, uint64_t k);
int ts_move(ts_kernel *k, const int64_t *expiry, int64_t clock, void *bitgen,
            int64_t nb_drop, double best_value, int64_t add_candidates);
int ts_add_continue(ts_kernel *k, const int64_t *expiry, int64_t clock,
                    void *bitgen, double best_value, int64_t add_candidates,
                    int64_t j);
int64_t ts_swap(ts_kernel *k);
int ts_fill(ts_kernel *k, const int64_t *order, int64_t len);
int ts_elite_offer(int8_t *rows, double *values, int64_t *count,
                   int64_t capacity, int64_t n, const int8_t *x, double value);
int ts_local_search(ts_kernel *k, ts_loop *ls, int64_t resume);
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
    later imports (worker processes included) skip straight to numpy."""
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
    except Exception as exc:  # any build or load failure: the numpy path runs
        return None, f"{type(exc).__name__}: {exc}"
    return module, None


_module, _reason = _load()
#: Whether the native kernel loaded; when ``False`` the numpy path runs.
available: bool = _module is not None
if not available:
    warnings.warn(
        f"native tabu-search kernel unavailable ({_reason}); using the numpy path",
        RuntimeWarning,
        stacklevel=2,
    )
    ffi = lib = None
else:
    ffi, lib = _module.ffi, _module.lib


def _bitgen(rng: np.random.Generator):
    """``rng``'s numpy ``bitgen_t`` as a C pointer.

    Read through the ``ctypes`` interface: the ``cffi`` one parses its C
    declarations with a fresh ``FFI`` for every generator (about 2 ms each),
    and each slave task seeds new generators.
    """
    return ffi.cast("void *", rng.bit_generator.ctypes.bit_generator.value)


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
    """The C kernel's view of one bitset-mode ``SearchState``.

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

    def _sync_in(self, state, tabu, rng) -> None:
        if tabu is not self._tabu:
            self._tabu, self._expiry = tabu, ffi.from_buffer("int64_t[]", tabu._expiry)
        if rng is not self._rng:
            self._rng, self._bitgen = rng, _bitgen(rng)
        s = self.ptr
        s.value = state.value
        s.n_packed = state.n_packed

    def handback_pick(self, rng) -> int:
        """The numpy path's pick from a handed-back Add selection."""
        top = self.ratios[: self.ptr.n_allowed].argpartition(1)[:2]
        return int(self.allowed[top[rng.integers(0, 2)]])

    def move(self, state, tabu, rng, nb_drop: int, best_value: float,
             add_candidates: int) -> tuple[list[int], list[int], int]:
        """One Drop/Add compound move: ``(dropped, added, evaluations)``.

        ``add_candidates`` must be 1 or 2.  A handed-back Add selection is
        made here exactly as the numpy path makes it.
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

    def swap(self, state) -> int:
        """Swap intensification in place; returns the evaluations charged."""
        s = self.ptr
        s.value = state.value
        s.n_packed = state.n_packed
        lib.ts_swap(s)
        self._sync_out(state)
        return s.evaluations

    def fill(self, state, order: np.ndarray) -> bool:
        """Greedy fill in ``order``; ``False`` (state untouched) when
        ``order`` is not a 1-D array of in-range integer indices."""
        order = np.asarray(order)
        if order.ndim != 1 or order.dtype.kind not in "iu":
            return False
        order = np.ascontiguousarray(order, dtype=np.int64)
        s = self.ptr
        s.value = state.value
        s.n_packed = state.n_packed
        if lib.ts_fill(s, ffi.from_buffer("int64_t[]", order), order.size) < 0:
            return False
        self._sync_out(state)
        return True


#: ``ts_local_search`` exits after which the same loop continues: an Add
#: selection handed back mid-move, and a full trace chunk.
_LS_HANDBACK, _LS_TRACE_FULL = 3, 4
_NO_CAP = 2**63 - 1
#: Per-move trace entries ``ts_local_search`` buffers before it returns to
#: have them emptied into the thread's trace list.
_TRACE_CHUNK = 1024


class NativeLoop:
    """``ts_local_search``'s view of one :class:`~repro.core.tabu_search.TabuSearch`.

    Figure 1 steps 4-10 run as one C call per local-search loop.  The loop
    works on the thread's own memories: ``TabuList._expiry``,
    ``History.counts`` and the :class:`~repro.core.memory.EliteArray`
    block are bound on every call; the tabu clock, History iterations,
    elite count and the counters are copied in and back out.  This object
    owns the rest: the ``ts_loop`` struct, the X* and X_local vectors the
    loop writes when it improves on them, and a chunk of the per-move
    incumbent trace, which Python empties into the thread's trace list.
    """

    __slots__ = ("ptr", "best_x", "local_x", "_native", "_trace", "_keep")

    def __init__(self, native_kernel: NativeKernel, n: int) -> None:
        self._native = native_kernel
        self.best_x = np.empty(n, np.int8)
        self.local_x = np.empty(n, np.int8)
        self._trace = np.empty(_TRACE_CHUNK, np.float64)
        s = self.ptr = ffi.new("ts_loop *")
        self._keep = [
            ffi.from_buffer("int8_t[]", self.best_x),
            ffi.from_buffer("int8_t[]", self.local_x),
            ffi.from_buffer("double[]", self._trace),
        ]
        s.best_x, s.local_x, s.trace = self._keep
        s.trace_cap = _TRACE_CHUNK

    def run(self, thread, budget, moves_so_far: int, local_value: float,
            trace: list[float]):
        """Run one local-search loop of ``thread`` from its current state.

        ``local_value`` is F(X_local) at step 4.  Appends one incumbent
        value per move to ``trace`` and returns the ``ts_loop`` struct:
        ``loop_moves``, and ``best_moved``/``local_moved`` with
        ``best_value``/``local_value`` when :attr:`best_x`/:attr:`local_x`
        hold a newer X*/X_local (X_local is X* whenever ``best_moved``).
        """
        state, tabu, history, elite = (
            thread.state, thread.tabu, thread.history, thread.elite
        )
        counters, rng, strategy = state.counters, thread.engine.rng, thread.strategy
        native = self._native
        if state._n_excluded:
            state.clear_exclusions()
        native._sync_in(state, tabu, rng)
        s = self.ptr
        s.nb_drop = max(0, int(strategy.nb_drop))
        s.nb_local = strategy.nb_local
        s.add_candidates = thread.engine.add_candidates
        s.tenure = tabu.tenure
        s.max_evaluations = _cap(budget.max_evaluations)
        s.max_moves = _cap(budget.max_moves)
        s.target_value = (
            float("inf") if budget.target_value is None else float(budget.target_value)
        )
        s.bitgen = native._bitgen
        s.expiry = native._expiry
        s.clock = tabu.clock
        s.counts = ffi.from_buffer("int64_t[]", history.counts)
        s.iterations = history.iterations
        s.elite_x = ffi.from_buffer("int8_t[]", elite.rows)
        s.elite_values = ffi.from_buffer("double[]", elite.values)
        s.elite_count = elite.count
        s.elite_capacity = elite.capacity
        s.best_value = thread.best.value
        s.local_value = local_value
        s.best_moved = s.local_moved = 0
        start = counters.total
        s.evaluations = start
        s.moves = moves_so_far
        s.loop_moves = s.stall = 0
        s.trace_len = 0
        k = native.ptr
        status = lib.ts_local_search(k, s, -1)
        while status in (_LS_HANDBACK, _LS_TRACE_FULL):
            if status == _LS_HANDBACK:
                status = lib.ts_local_search(k, s, native.handback_pick(rng))
            else:
                trace.extend(self._trace.tolist())
                s.trace_len = 0
                status = lib.ts_local_search(k, s, -1)
        trace.extend(self._trace[: s.trace_len].tolist())
        native._sync_out(state)
        tabu.advance_to(s.clock)
        history.iterations = s.iterations
        elite.count = s.elite_count
        counters.move_evaluations += s.evaluations - start
        counters.moves += s.loop_moves
        return s


def _cap(limit: float | None) -> int:
    """A budget cap as ``int64``: ``None`` (and anything past it) is no cap.

    The caps bound integer counts, so ``count >= limit`` is
    ``count >= ceil(limit)``.
    """
    return _NO_CAP if limit is None else min(math.ceil(limit), _NO_CAP)
