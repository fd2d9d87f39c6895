"""Preallocated flat-array evaluation kernel for the tabu-search hot path.

Every layer of the search — the mutable :class:`~repro.core.solution.SearchState`,
the Drop/Add :class:`~repro.core.moves.MoveEngine`, the §3.2 intensification
procedures, and the low-level parallel evaluators — ultimately needs the same
handful of O(m)/O(m·k) primitives: incremental load/slack maintenance, the
most-saturated constraint ``i*``, the "which free items still fit" scan, and
the drop-rule ratio ``a_{i*,j} / c_j``.  Before this module each of them
reimplemented a piece of that, allocating fresh arrays per move.

:class:`EvalKernel` owns the per-thread buffers once — the 0/1 vector ``x``,
the load and slack vectors, the exclusion bitmask, and a ratio scratch — and
keeps two incrementally-invalidated caches:

``i*`` (:meth:`most_saturated_constraint`)
    ``argmin`` of the slack vector, recomputed at most once per state change
    instead of once per candidate scan.

the fitting pool (:meth:`fitting_items`)
    Within a run of :meth:`add` calls the slack vector only decreases
    (IEEE-754 rounding is monotone, so this holds bit-for-bit in floats, not
    just in exact arithmetic), hence the set of fitting items only shrinks.
    The kernel therefore rescans *only the previous survivors* on each query
    of an Add pass, turning the per-add cost from O(m·n_free) into O(m·k)
    for a rapidly shrinking k.  Any :meth:`drop`, :meth:`reset`, or change
    of the exclusion mask invalidates the pool and forces a full rescan.
    Re-installing an exclusion mask identical to the current one is a no-op
    and keeps the pool warm.

the bitset scan (integer-valued instances)
    When :class:`~repro.core.bitset.HotTables` detects integral weights and
    capacities (every GK / FP / Chu–Beasley benchmark), the fitting query
    drops the elementwise compare entirely: per constraint the fitting set
    is a prefix of the weight-sorted item order, found by one vectorized
    ``searchsorted``, and the prefix *bitsets* are precomputed — so the scan
    is an AND-reduction over ``m + 1`` rows of ``uint64`` words (the extra
    row is the incrementally-maintained free-item bitset).  Exact by the
    integer gate documented in :mod:`repro.core.bitset`; :attr:`use_bitset`
    switches the path at runtime so tests can pin the equivalence.

Exactness contract: every result the kernel returns is bit-identical to the
naive recomputation it replaces (same elementwise comparisons, same
ascending candidate order, same division) — the Figure-1/Figure-2
conformance tests and ``tests/test_golden_trajectory.py`` pin this.

:class:`KernelCounters` is the unified evaluation ledger.  The farm's
virtual-time cost model charges CPU seconds per candidate evaluation, so
the counter flow must be exact: the move engine counts into
``move_evaluations``, the intensification procedures into
``intensify_evaluations``, and budget checks read :attr:`KernelCounters.total`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitset import WORD_BITS
from .instance import MKPInstance

__all__ = ["EvalKernel", "KernelCounters", "drop_ratios", "FIT_EPS"]

#: Single-bit uint64 masks for the free-word maintenance, and their
#: complements (precomputed: ``~_BIT[k]`` per call costs a numpy scalar op).
_BIT = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)).copy()
_NOT_BIT = np.bitwise_not(_BIT)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

try:  # single-ufunc clamp (the public np.clip wrapper costs ~2x per call)
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - numpy < 2
    try:
        from numpy.core.umath import clip as _clip  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - future numpy layout changes

        def _clip(a, lo, hi, out):  # type: ignore[misc]
            np.maximum(a, lo, out=out)
            return np.minimum(out, hi, out=out)

#: Feasibility tolerance of the fitting scan (matches the historical
#: ``SearchState.fitting_items`` comparison).
FIT_EPS = 1e-9


@dataclass
class KernelCounters:
    """Unified candidate-evaluation ledger for one search thread.

    Replaces the ad-hoc ``MoveEngine.evaluations`` field, the
    ``IntensificationStats.evaluations`` field, and the
    ``total_evaluations()`` closure the tabu-search loop used to sum them.
    ``total`` is what the farm cost model and evaluation budgets consume.
    """

    move_evaluations: int = 0
    intensify_evaluations: int = 0
    moves: int = 0
    snapshots: int = 0

    @property
    def total(self) -> int:
        """All candidate evaluations charged to this thread so far."""
        return self.move_evaluations + self.intensify_evaluations

    def reset(self) -> None:
        self.move_evaluations = 0
        self.intensify_evaluations = 0
        self.moves = 0
        self.snapshots = 0


def drop_ratios(
    weights_row: np.ndarray,
    profits: np.ndarray,
    candidates: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The drop-rule score ``a_{i*,j} / c_j`` over ``candidates``.

    This is the one scoring formula shared by the Drop rule, the Add rule
    (argmin instead of argmax), and the low-level parallel evaluators of
    benchmark A10 (``benchmarks/neighborhood_eval.py``).
    """
    return np.divide(weights_row[candidates], profits[candidates], out=out)


class EvalKernel:
    """Flat-array evaluation state for one search thread.

    Maintains the invariants ``load == A @ x``, ``slack == b - load`` and
    ``value == c @ x`` under O(m) :meth:`add`/:meth:`drop` updates.  All
    buffers are preallocated at construction; the hot path allocates only
    the (small) candidate index arrays it returns.
    """

    __slots__ = (
        "instance",
        "counters",
        "x",
        "load",
        "slack",
        "value",
        "n_packed",
        "use_bitset",
        "_i_star",
        "_ratio",
        "_excluded",
        "_n_excluded",
        "_pool",
        "_pool_w",
        "_hot",
        "_int",
        "_weightsT",
        "_ratio_matrix",
        "_ratio_rows",
        "_free",
        "_le_buf",
        "_fits_buf",
        "_excl_idx",
        "_excl_keep",
        "_profits_list",
        "_and_buf",
        "_and_rows",
        "_free_words",
        "_fit_words",
        "_fit_words_u8",
        "_q_buf",
        "_q_base",
    )

    def __init__(self, instance: MKPInstance, counters: KernelCounters | None = None) -> None:
        m, n = instance.shape
        self.instance = instance
        self.counters = counters if counters is not None else KernelCounters()
        self.x = np.zeros(n, dtype=np.int8)
        self.load = np.zeros(m, dtype=np.float64)
        self.slack = instance.capacities.copy()
        self.value: float = 0.0
        #: number of packed items (``x.sum()``), maintained incrementally so
        #: the masked drop scan never materializes ``packed_items()``
        self.n_packed = 0
        #: cached argmin of slack; -1 = invalid
        self._i_star = -1
        #: scratch for candidate score vectors (views of length k are handed out)
        self._ratio = np.empty(n, dtype=np.float64)
        #: per-move exclusion bitmask (items barred from the Add scan)
        self._excluded = np.zeros(n, dtype=bool)
        self._n_excluded = 0
        #: surviving fitting candidates of the current Add pass; None = invalid
        self._pool: np.ndarray | None = None
        #: weight rows (one contiguous length-m row per pool candidate)
        self._pool_w: np.ndarray | None = None
        #: per-instance shared hot tables (transpose, ratios, bitset tables)
        hot = instance.hot
        self._hot = hot
        self._int = hot.integer
        #: C-contiguous (n, m) transpose: gathering an item's weight column
        #: becomes a contiguous row read instead of an n-strided one
        self._weightsT = hot.weightsT
        #: precomputed drop-rule ratios ``a_{i,j} / c_j`` — scoring a scan is
        #: then a single row gather instead of two gathers plus a divide
        self._ratio_matrix = hot.ratio_matrix
        self._ratio_rows = hot.ratio_rows
        #: ``x == 0`` maintained incrementally (one bool write per add/drop)
        self._free = np.ones(n, dtype=bool)
        #: full-scan scratch: elementwise <= over (n, m), and its row-AND
        self._le_buf = np.empty((n, m), dtype=bool)
        self._fits_buf = np.empty(n, dtype=bool)
        #: indices currently excluded (mirror of the bitmask, for cheap unset)
        self._excl_idx: np.ndarray | None = None
        #: packed keep-mask (~excluded) applied to the bitset fitting scan
        self._excl_keep: np.ndarray | None = None
        #: python-float profits: scalar reads in add/drop skip numpy boxing
        self._profits_list = hot.profits_list
        #: whether the fitting scan takes the prefix-bitmask path; flip off to
        #: force the generic elementwise scan (tests pin path equivalence)
        self.use_bitset = self._int is not None
        if self._int is not None:
            nw = self._int.words
            #: AND-reduction workspace: rows 0..m-1 receive the per-constraint
            #: prefix bitsets; row m *is* the free-item bitset (maintained
            #: incrementally, one scalar XOR per add/drop)
            self._and_buf = np.empty((m + 1, nw), dtype=np.uint64)
            self._and_rows = self._and_buf[:m]
            self._free_words = self._and_buf[m]
            self._free_words[:] = ~np.uint64(0)
            tail = n % WORD_BITS
            if tail:
                self._free_words[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self._fit_words = np.empty(nw, dtype=np.uint64)
            self._fit_words_u8 = self._fit_words.view(np.uint8)
            self._q_buf = np.empty(m, dtype=np.int64)
            #: unclamped searchsorted queries ``slack + i * OFF``, maintained
            #: incrementally in exact int64 arithmetic by add/drop/reset
            self._q_base = self._int.q_offsets + self.slack.astype(np.int64)
        else:
            self._and_buf = None
            self._and_rows = None
            self._free_words = None
            self._fit_words = None
            self._fit_words_u8 = None
            self._q_buf = None
            self._q_base = None

    # ------------------------------------------------------------------ #
    # State loading
    # ------------------------------------------------------------------ #
    def reset(self, x: np.ndarray | None = None) -> None:
        """Load a 0/1 vector (all-zero when ``None``); recomputes from scratch.

        Uses the same ``A @ x`` matmul as the historical ``SearchState``
        constructor so the float results are bit-identical.  Any exclusion
        mask is cleared: a reset kernel must be indistinguishable from a
        freshly-constructed one (the warm-runtime reuse contract), and every
        scan path already assumes an empty mask after a state reload.
        """
        if self._n_excluded:
            self.set_exclusions(None)
        if x is None:
            self.x[:] = 0
            self.load[:] = 0.0
            self.value = 0.0
        else:
            self.x[:] = x
            self.load[:] = self.instance.weights @ self.x.astype(np.float64)
            self.value = float(self.instance.profits @ self.x.astype(np.float64))
        np.equal(self.x, 0, out=self._free)
        self.n_packed = int(self.x.shape[0] - np.count_nonzero(self._free))
        np.subtract(self.instance.capacities, self.load, out=self.slack)
        if self._free_words is not None:
            packed_free = np.packbits(self._free, bitorder="little")
            self._free_words[:] = 0
            self._free_words.view(np.uint8)[: packed_free.size] = packed_free
            np.add(
                self._int.q_offsets, self.slack, out=self._q_base, casting="unsafe"
            )
        self._invalidate()

    def _invalidate(self) -> None:
        self._i_star = -1
        self._pool = None
        self._pool_w = None

    # ------------------------------------------------------------------ #
    # Incremental moves
    # ------------------------------------------------------------------ #
    def add(self, j: int) -> None:
        """Set ``x_j = 1``; O(m).  The fitting pool stays valid (it can only
        shrink while slack decreases); the rescan's ``_free`` filter drops
        ``j`` itself."""
        if self.x[j]:
            raise ValueError(f"item {j} is already in the knapsack")
        self.x[j] = 1
        self._free[j] = False
        if self._free_words is not None:
            self._free_words[j >> 6] ^= _BIT[j & 63]
            self._q_base -= self._int.weightsT_int[j]
        self.n_packed += 1
        self.load += self._weightsT[j]
        np.subtract(self.instance.capacities, self.load, out=self.slack)
        self.value += self._profits_list[j]
        self._i_star = -1

    def drop(self, j: int) -> None:
        """Set ``x_j = 0``; O(m).  Invalidates the fitting pool (slack grew)."""
        if not self.x[j]:
            raise ValueError(f"item {j} is not in the knapsack")
        self.x[j] = 0
        self._free[j] = True
        if self._free_words is not None:
            self._free_words[j >> 6] ^= _BIT[j & 63]
            self._q_base += self._int.weightsT_int[j]
        self.n_packed -= 1
        self.load -= self._weightsT[j]
        np.subtract(self.instance.capacities, self.load, out=self.slack)
        self.value -= self._profits_list[j]
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Cached queries
    # ------------------------------------------------------------------ #
    def most_saturated_constraint(self) -> int:
        """``i* = argmin_i slack_i``, cached until the next add/drop/reset."""
        if self._i_star < 0:
            self._i_star = int(self.slack.argmin())
        return self._i_star

    def packed_items(self) -> np.ndarray:
        return self.x.nonzero()[0]

    def free_items(self) -> np.ndarray:
        return (self.x == 0).nonzero()[0]

    @property
    def is_feasible(self) -> bool:
        return bool(np.all(self.load <= self.instance.capacities + FIT_EPS))

    # ------------------------------------------------------------------ #
    # Exclusion mask (one write per compound move, not one np.isin per add)
    # ------------------------------------------------------------------ #
    def set_exclusions(self, items) -> None:
        """Bar ``items`` from the fitting scan (``None``/empty clears).

        Changing the mask invalidates the fitting pool; the Add pass sets it
        once per compound move, so the hot path pays this O(1) + O(|items|).
        Re-installing a mask identical to the current one (including the
        empty mask when nothing is excluded) is a no-op: the pool stays warm
        instead of forcing a full rescan on the next query.
        """
        if items is None:
            idx = None
        else:
            idx = (
                items.astype(np.intp, copy=False)
                if isinstance(items, np.ndarray)
                else np.fromiter(items, dtype=np.intp)
            )
            if idx.size == 0:
                idx = None
        if idx is None:
            if self._n_excluded == 0:
                return
        elif self._excl_idx is not None and np.array_equal(idx, self._excl_idx):
            return
        if self._n_excluded:
            self._excluded[self._excl_idx] = False
            self._excl_idx = None
            self._n_excluded = 0
        if idx is not None:
            self._excluded[idx] = True
            self._excl_idx = idx
            self._n_excluded = int(idx.size)
            if self._fit_words is not None:
                # precompute the packed ~excluded mask: the fitting scan then
                # applies all exclusions with one word-level AND
                keep = self._excl_keep
                if keep is None:
                    keep = np.empty_like(self._fit_words)
                keep.fill(_ALL_ONES)
                for j in idx:
                    keep[j >> 6] &= _NOT_BIT[j & 63]
                self._excl_keep = keep
        self._pool = None
        self._pool_w = None

    def clear_exclusions(self) -> None:
        self.set_exclusions(None)

    # ------------------------------------------------------------------ #
    # The fitting scan
    # ------------------------------------------------------------------ #
    def fitting_items(self) -> np.ndarray:
        """Free, non-excluded items that fit the current slack, ascending.

        On the bitset path (integer-valued instances) every query is a fresh
        whole-neighborhood scan: one vectorized ``searchsorted`` for the m
        per-constraint prefix lengths, one AND-reduction over ``m + 1`` word
        rows, one decode — cheap enough that no pool is needed.  The generic
        path is pool-accelerated: inside an Add pass only the previous
        survivors are rescanned, and their weight rows stay gathered in
        ``_pool_w`` so the rescan is one contiguous (k, m) broadcast with no
        re-gather.  Both paths return the identical ascending index array
        (pinned by ``tests/test_bitset.py``); the result must not be mutated
        by callers.
        """
        if self.use_bitset:
            return self._fitting_items_bitset()
        if self._pool is not None:
            # Rescan only the previous survivors: one fused mask drops both
            # the just-packed item and anything the shrunken slack rejects.
            cand = self._pool
            w = self._pool_w
            if cand.size:
                fits = (w <= self.slack + FIT_EPS).all(axis=1)
                fits &= self._free[cand]
                if not fits.all():
                    cand = cand[fits]
                    w = w[fits]
        else:
            # Full scan without gathering: compare every item's row against
            # slack in the preallocated (n, m) scratch, AND the rows, then
            # mask out packed/excluded items.  Only survivors get gathered
            # (they seed the pool for the rest of the Add pass).
            np.less_equal(self._weightsT, self.slack + FIT_EPS, out=self._le_buf)
            fits = np.logical_and.reduce(self._le_buf, axis=1, out=self._fits_buf)
            fits &= self._free
            if self._n_excluded:
                fits[self._excl_idx] = False
            cand = fits.nonzero()[0]
            w = self._weightsT[cand]
        self._pool = cand
        self._pool_w = w
        return cand

    def _fitting_items_bitset(self) -> np.ndarray:
        """Prefix-bitmask fitting scan, decoded to ascending indices."""
        self.fitting_words()
        return self.decode_words_u8(self._fit_words_u8)

    def fitting_words(self) -> np.ndarray:
        """Packed bitset of the free, non-excluded items fitting the slack.

        ``w <= slack + FIT_EPS`` over integral data is the int64 comparison
        ``w <= slack``, so per constraint the fitting set is the prefix of
        the weight-sorted order whose length ``searchsorted`` returns; the
        precomputed prefix bitsets turn the m-way intersection (plus the
        free-item filter) into one word-level AND-reduction.  The returned
        array is the kernel's scratch — consume it before the next call and
        do not mutate it.  Bitset-mode instances only.
        """
        tables = self._int
        q = self._q_buf
        # _q_base is the exact int64 mirror of slack + i * OFF; the clamps
        # route out-of-range slacks to the nothing-fits / everything-fits
        # prefix rows.
        _clip(self._q_base, tables.q_lo, tables.q_hi, out=q)
        pos = tables.flat_sorted.searchsorted(q, side="right")
        tables.cumbits.take(pos, axis=0, out=self._and_rows)
        words = np.bitwise_and.reduce(self._and_buf, axis=0, out=self._fit_words)
        if self._n_excluded:
            words &= self._excl_keep
        return words

    def fitting_words_without(self, i: int, mask_words: np.ndarray) -> np.ndarray:
        """Packed subset of ``mask_words`` fitting the slack with item ``i`` out.

        The §3.2 swap scan asks, per packed item ``i``, which candidates fit
        the hypothetical slack ``b - load + a_{·,i}`` — one extra int64 add
        on the query vector reuses the same prefix-bitmask machinery as
        :meth:`fitting_words`.  ``mask_words`` must already encode the
        free-item filter (it replaces the resident free row in the AND);
        exclusions are deliberately not applied.  Returns kernel scratch —
        consume before the next fitting scan.  Bitset-mode instances only.
        """
        tables = self._int
        q = self._q_buf
        np.add(self._q_base, tables.weightsT_int[i], out=q)
        _clip(q, tables.q_lo, tables.q_hi, out=q)
        pos = tables.flat_sorted.searchsorted(q, side="right")
        tables.cumbits.take(pos, axis=0, out=self._and_rows)
        words = np.bitwise_and.reduce(self._and_rows, axis=0, out=self._fit_words)
        words &= mask_words
        return words

    def decode_words_u8(self, words_u8: np.ndarray) -> np.ndarray:
        """Ascending set-bit indices of a packed vector viewed as ``uint8``."""
        bits = np.unpackbits(words_u8, count=self.x.shape[0], bitorder="little")
        return bits.nonzero()[0]

    @property
    def free_words(self) -> np.ndarray:
        """Packed free-item bitset (bitset-mode instances only; do not mutate)."""
        return self._free_words

    @property
    def hot(self):
        """The instance's shared :class:`~repro.core.bitset.HotTables`."""
        return self._hot

    def ratio_row(self, i: int) -> np.ndarray:
        """Full precomputed drop-rule ratio row ``a_{i,·} / c`` (do not mutate)."""
        return self._ratio_rows[i]

    # ------------------------------------------------------------------ #
    # Candidate scoring
    # ------------------------------------------------------------------ #
    def scores(self, i_star: int, candidates: np.ndarray) -> np.ndarray:
        """Drop-rule ratios for ``candidates``, written into the scratch buffer.

        The returned array is a view of the kernel's scratch: consume it
        before the next :meth:`scores` call.  The division was precomputed
        into ``_ratio_matrix`` at construction (identical IEEE-754 results),
        so a scan costs a single row gather.
        """
        return self._ratio_rows[i_star].take(
            candidates, out=self._ratio[: candidates.size]
        )

    # ------------------------------------------------------------------ #
    # Batched (K, n) evaluation
    # ------------------------------------------------------------------ #
    def batch_values(self, X: np.ndarray) -> np.ndarray:
        """Objective values of ``K`` solution rows in one matmul.

        ``X`` is a ``(K, n)`` 0/1 array (any numeric dtype).  For integer
        instances the products are exact in float64 well past GK scale, so
        the result equals ``K`` scalar :meth:`~repro.core.instance.MKPInstance.objective`
        calls bit-for-bit — which is what lets the batched transport path
        audit a whole round's decoded ``x_init`` frames in one pass.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return X @ self.instance.profits

    def batch_loads(self, X: np.ndarray) -> np.ndarray:
        """Per-constraint loads ``X a^T`` of ``K`` solution rows: ``(K, m)``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return X @ self._weightsT

    def batch_feasible(self, X: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Feasibility mask of ``K`` solution rows against the capacities."""
        loads = self.batch_loads(X)
        return np.all(loads <= self.instance.capacities + atol, axis=1)
