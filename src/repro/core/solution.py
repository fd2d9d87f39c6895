"""Solution representations for the 0–1 MKP.

Two classes share the work:

:class:`Solution`
    An immutable snapshot — a 0/1 vector plus its cached objective value.
    These are what gets stored in elite (``BestSol``) arrays, shipped between
    master and slaves, and compared by Hamming distance in the SGP.

:class:`SearchState`
    The *mutable* working state of one tabu-search thread, and the flat-array
    evaluation kernel of the hot path.  It owns the thread's buffers once —
    the 0/1 vector ``x``, the load and slack vectors, the exclusion bitmask,
    a ratio scratch — and its :class:`~repro.core.kernels.KernelCounters`
    ledger.  ``load == A @ x`` and ``value == c @ x`` are maintained under
    O(m) incremental ``add``/``drop`` updates (never recompute ``A @ x`` per
    move), and the Drop/Add rules, the §3.2 intensification procedures and
    the greedy fill all read the same buffers.

The state keeps two incrementally invalidated shortcuts:

``i*`` (:meth:`SearchState.most_saturated_constraint`)
    ``argmin`` of the slack vector, recomputed at most once per state change
    instead of once per candidate scan.

the fitting pool (:meth:`SearchState.fitting_items`)
    Within a run of ``add`` calls the slack vector only decreases (IEEE-754
    rounding is monotone, so this holds bit-for-bit in floats), hence the
    set of fitting items only shrinks.  The scan therefore rescans *only the
    previous survivors* on each query of an Add pass, turning the per-add
    cost from O(m·n_free) into O(m·k) for a rapidly shrinking k.  Any
    ``drop``, ``reset``, or change of the exclusion mask invalidates the
    pool; re-installing an identical exclusion mask keeps it warm.

Two implementations run the moves.  When :mod:`repro.core.native` loaded
and :class:`~repro.core.bitset.HotTables` found integral weights and
capacities (every GK / FP / Chu–Beasley benchmark), the state binds the C
kernel to its own buffers at construction (:meth:`SearchState.native`):
the compound move, the §3.2 intensification, the greedy fill and the tabu
search's Figure 1 steps 3–11 around them then run as C over those buffers,
scanning with the prefix-bitset tables.  Every other state — float
instances, or any state built while ``native.available`` is ``False`` —
runs the generic elementwise scans in this module, which are also the
reference the C kernel is tested against.  Integer states keep the free-item
bitset :attr:`SearchState.free_words` and the searchsorted query base
current on both paths, so the two can be compared buffer for buffer.

Exactness contract: every result is bit-identical to the naive
recomputation it replaces (same elementwise comparisons, same ascending
candidate order, same division) — the Figure-1/Figure-2 conformance tests
and ``tests/test_golden_trajectory.py`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import native
from .bitset import (
    WORD_BITS,
    bytes_to_words,
    hamming_words,
    mean_pairwise_hamming,
    pack_bits,
    unpack_bits,
    words_to_bytes,
)
from .instance import MKPInstance
from .kernels import FIT_EPS, KernelCounters

__all__ = [
    "Solution",
    "SearchState",
    "hamming_distance",
    "mean_pairwise_distance",
]

#: Single-bit uint64 masks for the free-word maintenance.
_BIT = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)).copy()


def _solution_from_wire(payload: bytes, n_items: int, value: float) -> "Solution":
    """Rebuild a :class:`Solution` from its packed wire frame (codec hook)."""
    words = bytes_to_words(payload, n_items)
    x = unpack_bits(words, n_items)
    sol = Solution.trusted(x, value)
    # Seed the packing memo: the receiver's first dedup key / Hamming query
    # should not re-pack what just arrived packed.
    words.setflags(write=False)
    object.__setattr__(sol, "_packed_words", words)
    return sol


@dataclass(frozen=True)
class Solution:
    """An immutable 0/1 solution with its objective value.

    ``value`` is trusted (it is produced by :class:`SearchState`, whose
    invariant is property-tested); :meth:`verified` recomputes it for audits.
    """

    x: np.ndarray
    value: float

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.x, dtype=np.int8)
        if x.ndim != 1:
            raise ValueError(f"solution vector must be 1-D; got shape {x.shape}")
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def trusted(cls, x: np.ndarray, value: float) -> "Solution":
        """No-copy, no-validation constructor for the hot path.

        ``x`` must already be a contiguous 1-D 0/1 ``int8`` array owned by
        the caller (e.g. a fresh ``SearchState`` snapshot copy); it is
        frozen in place.  The per-move snapshot path uses this to skip the
        ``__post_init__`` re-validation and re-copy, which dominates the
        cost of cheap moves on large instances.
        """
        self = object.__new__(cls)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", float(value))
        return self

    @property
    def n_items(self) -> int:
        return self.x.shape[0]

    @property
    def items(self) -> np.ndarray:
        """Indices of items packed in the knapsack (``x_j == 1``)."""
        return np.flatnonzero(self.x)

    def verified(self, instance: MKPInstance) -> "Solution":
        """Return a copy with ``value`` recomputed from ``instance``."""
        return Solution(self.x, instance.objective(self.x))

    def is_feasible(self, instance: MKPInstance) -> bool:
        return instance.is_feasible(self.x)

    def packed_words(self) -> np.ndarray:
        """Packed little-endian ``uint64`` codec of ``x`` (memoized).

        Solutions are immutable, so the packing is done at most once and
        shared by every Hamming-distance query, dedup key, and wire frame
        that touches this solution afterwards.
        """
        words = self.__dict__.get("_packed_words")
        if words is None:
            words = pack_bits(self.x)
            words.setflags(write=False)
            object.__setattr__(self, "_packed_words", words)
        return words

    def packed_bytes(self) -> bytes:
        """Minimal ``ceil(n/8)``-byte frame of ``x`` (wire/dedup format)."""
        return words_to_bytes(self.packed_words(), self.n_items)

    def distance(self, other: "Solution") -> int:
        """Hamming distance to another solution (SGP dispersion metric).

        Runs on the memoized packed words — XOR + popcount over ``n/64``
        words instead of an elementwise compare over ``n`` bytes.
        """
        if self.x.shape != other.x.shape:
            raise ValueError(f"shape mismatch: {self.x.shape} vs {other.x.shape}")
        return hamming_words(self.packed_words(), other.packed_words())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return self.value == other.value and np.array_equal(self.x, other.x)

    def __hash__(self) -> int:
        return hash((self.value, self.x.tobytes()))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Solution(value={self.value:g}, packed={int(self.x.sum())}/{self.n_items})"


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two 0/1 vectors.

    §4.2: "The hamming distance is used to compute the distance between
    solutions" when the SGP decides whether a slave's elite solutions are
    clustered (⇒ diversify) or dispersed (⇒ intensify).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def mean_pairwise_distance(solutions: Iterable[Solution]) -> float:
    """Mean pairwise Hamming distance of a set of solutions.

    Returns 0.0 for fewer than two solutions.  This is the dispersion
    statistic the master's SGP thresholds against ``n`` to pick between
    intensifying and diversifying parameter updates.
    """
    sols = list(solutions)
    if len(sols) < 2:
        return 0.0
    # Broadcast XOR + popcount over the memoized packed words — the integer
    # ordered-pair total is the same number the historical Gram-matrix
    # formula produced, so the dispersion statistic (and every SGP decision
    # thresholded against it) is bit-identical.  This runs every SGP round
    # over P×B elite vectors.
    packed = np.stack([s.packed_words() for s in sols])
    return mean_pairwise_hamming(packed)


class SearchState:
    """Mutable working state of one tabu-search thread.

    Maintains ``load == A @ x``, ``slack == b - load`` and ``value == c @ x``
    under O(m) :meth:`add`/:meth:`drop` updates (property-tested in
    ``tests/test_solution_properties.py``).  Every buffer is allocated once
    at construction; the hot path allocates only the (small) candidate index
    arrays it returns, and :meth:`reset` reloads the same buffers.  The
    state may be temporarily *infeasible* during strategic oscillation;
    :attr:`is_feasible` and :attr:`slack` expose the current standing.

    :attr:`x`, :attr:`load` and :attr:`slack` are the live buffers: read
    them, but change the state only through :meth:`add`, :meth:`drop`,
    :meth:`flip`, :meth:`reset` and :meth:`restore`.  :attr:`counters` is
    the thread's evaluation ledger.
    """

    __slots__ = (
        "instance",
        "counters",
        "x",
        "load",
        "slack",
        "value",
        "n_packed",
        "free_words",
        "_native",
        "_i_star",
        "_ratio",
        "_excluded",
        "_n_excluded",
        "_pool",
        "_pool_w",
        "_int",
        "_weightsT",
        "_ratio_rows",
        "_free",
        "_le_buf",
        "_fits_buf",
        "_excl_idx",
        "_profits_list",
        "_q_base",
    )

    def __init__(self, instance: MKPInstance, x: np.ndarray) -> None:
        x = np.ascontiguousarray(x, dtype=np.int8)
        if x.shape != (instance.n_items,):
            raise ValueError(
                f"solution vector must have shape ({instance.n_items},); got {x.shape}"
            )
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")
        m, n = instance.shape
        self.instance = instance
        self.counters = KernelCounters()
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
        self._int = hot.integer
        #: C-contiguous (n, m) transpose: gathering an item's weight column
        #: becomes a contiguous row read instead of an n-strided one
        self._weightsT = hot.weightsT
        #: precomputed drop-rule ratio rows ``a_{i,·} / c`` — scoring a scan
        #: is then a single row gather instead of two gathers plus a divide
        self._ratio_rows = hot.ratio_rows
        #: ``x == 0`` maintained incrementally (one bool write per add/drop)
        self._free = np.ones(n, dtype=bool)
        #: full-scan scratch: elementwise <= over (n, m), and its row-AND
        self._le_buf = np.empty((n, m), dtype=bool)
        self._fits_buf = np.empty(n, dtype=bool)
        #: indices currently excluded (mirror of the bitmask, for cheap unset)
        self._excl_idx: np.ndarray | None = None
        #: python-float profits: scalar reads in add/drop skip numpy boxing
        self._profits_list = hot.profits_list
        if self._int is not None:
            #: free-item bitset (``x == 0`` packed little-endian), maintained
            #: incrementally, one scalar XOR per add/drop (do not mutate)
            self.free_words = np.empty(self._int.words, dtype=np.uint64)
            #: searchsorted queries ``slack + i * OFF``, maintained
            #: incrementally in exact int64 arithmetic by add/drop/reset
            self._q_base = self._int.q_offsets + self.slack.astype(np.int64)
        else:
            self.free_words = None
            self._q_base = None
        #: the C kernel bound to these buffers (integer instances only)
        self._native = (
            native.NativeKernel(self, FIT_EPS)
            if native.available and self._int is not None
            else None
        )
        self.reset(x)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, instance: MKPInstance) -> "SearchState":
        """All-zero state (always feasible since weights are non-negative)."""
        return cls(instance, np.zeros(instance.n_items, dtype=np.int8))

    @classmethod
    def from_solution(cls, instance: MKPInstance, solution: Solution) -> "SearchState":
        return cls(instance, solution.x.copy())

    def copy(self) -> "SearchState":
        return SearchState(self.instance, self.x.copy())

    # ------------------------------------------------------------------ #
    # State loading
    # ------------------------------------------------------------------ #
    def reset(self, x: np.ndarray | None = None, value: float | None = None) -> None:
        """Load a 0/1 vector (all-zero when ``None``); recomputes from scratch.

        Any exclusion mask is cleared: a reset state must be
        indistinguishable from a freshly constructed one (the warm-runtime
        reuse contract), and every scan path already assumes an empty mask
        after a state reload.  The buffers are reused, not reallocated.
        With the native kernel the buffers are reloaded in C without the
        ``A @ x`` matmul (exact on integral weights, see ``ts_reload``).
        ``value`` is ``c @ x`` on both paths unless the caller passes the
        value it recorded for ``x``.
        """
        if self._n_excluded:
            self.set_exclusions(None)
        if x is None:
            self.x[:] = 0
            self.value = 0.0
        else:
            self.x[:] = x
            if value is None:
                value = self.instance.profits @ self.x.astype(np.float64)
            self.value = float(value)
        native = self.native()
        if native is not None:
            native.reload(self)
        else:
            if x is None:
                self.load[:] = 0.0
            else:
                self.load[:] = self.instance.weights @ self.x.astype(np.float64)
            np.equal(self.x, 0, out=self._free)
            self.n_packed = int(self.x.shape[0] - np.count_nonzero(self._free))
            np.subtract(self.instance.capacities, self.load, out=self.slack)
            if self.free_words is not None:
                packed_free = np.packbits(self._free, bitorder="little")
                self.free_words[:] = 0
                self.free_words.view(np.uint8)[: packed_free.size] = packed_free
                np.add(
                    self._int.q_offsets, self.slack, out=self._q_base, casting="unsafe"
                )
        self._invalidate()

    def restore(self, solution: Solution) -> None:
        """Reset the state to ``solution`` (see :meth:`reset`)."""
        if solution.x.shape != (self.instance.n_items,):
            raise ValueError("solution shape does not match instance")
        self.reset(solution.x)

    def snapshot(self) -> Solution:
        """Freeze the current state into an immutable :class:`Solution`.

        Uses the trusted fast-constructor: the state's invariant makes the
        copy already-validated, so re-checking it per move would only burn
        the cycles this layer exists to save.
        """
        return Solution.trusted(self.x.copy(), self.value)

    def _invalidate(self) -> None:
        self._i_star = -1
        self._pool = None
        self._pool_w = None

    # ------------------------------------------------------------------ #
    # Incremental moves (the vectorized hot path)
    # ------------------------------------------------------------------ #
    def add(self, j: int) -> None:
        """Set ``x_j = 1``; O(m).  The fitting pool stays valid (it can only
        shrink while slack decreases); the rescan's ``_free`` filter drops
        ``j`` itself."""
        if self.x[j]:
            raise ValueError(f"item {j} is already in the knapsack")
        self.x[j] = 1
        self._free[j] = False
        if self.free_words is not None:
            self.free_words[j >> 6] ^= _BIT[j & 63]
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
        if self.free_words is not None:
            self.free_words[j >> 6] ^= _BIT[j & 63]
            self._q_base += self._int.weightsT_int[j]
        self.n_packed -= 1
        self.load -= self._weightsT[j]
        np.subtract(self.instance.capacities, self.load, out=self.slack)
        self.value -= self._profits_list[j]
        self._invalidate()

    def flip(self, j: int) -> None:
        """Toggle ``x_j`` (convenience for swap intensification)."""
        if self.x[j]:
            self.drop(j)
        else:
            self.add(j)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def most_saturated_constraint(self) -> int:
        """Index of the constraint with minimum slack, cached until the next
        add/drop/reset.

        §3.1 drop rule, step 1: ``i* = ArgMin_i (sum_j a_ij x_j - b_i)`` —
        the paper writes load − capacity, but the intended heuristic (and
        the one used in the cited technical report) is the *most saturated*
        constraint, the one with the least remaining slack ``b_i - load_i``;
        we implement argmin of slack.
        """
        if self._i_star < 0:
            self._i_star = int(self.slack.argmin())
        return self._i_star

    def packed_items(self) -> np.ndarray:
        """Indices with ``x_j == 1``."""
        return self.x.nonzero()[0]

    def free_items(self) -> np.ndarray:
        """Indices with ``x_j == 0``."""
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
        self._pool = None
        self._pool_w = None

    def clear_exclusions(self) -> None:
        self.set_exclusions(None)

    # ------------------------------------------------------------------ #
    # The fitting scan
    # ------------------------------------------------------------------ #
    def fitting_items(self) -> np.ndarray:
        """Free, non-excluded items that fit the current slack, ascending.

        Pool-accelerated: inside an Add pass only the previous survivors are
        rescanned, and their weight rows stay gathered in ``_pool_w`` so the
        rescan is one contiguous (k, m) broadcast with no re-gather.  The
        result must not be mutated by callers.
        """
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

    def native(self) -> "native.NativeKernel | None":
        """The C kernel bound to this state, or ``None`` when the generic
        path runs (no native kernel at construction, or float data).  The
        two paths are bit-identical (pinned by ``tests/test_bitset.py`` and
        the differential suite)."""
        return self._native

    # ------------------------------------------------------------------ #
    # Candidate scoring
    # ------------------------------------------------------------------ #
    def ratio_row(self, i: int) -> np.ndarray:
        """Full precomputed drop-rule ratio row ``a_{i,·} / c`` (do not mutate)."""
        return self._ratio_rows[i]

    def scores(self, i_star: int, candidates: np.ndarray) -> np.ndarray:
        """Drop-rule ratios for ``candidates``, written into the scratch buffer.

        The returned array is a view of the state's scratch: consume it
        before the next :meth:`scores` call.  The division was precomputed
        into the instance's ratio matrix (identical IEEE-754 results), so a
        scan costs a single row gather.
        """
        return self._ratio_rows[i_star].take(
            candidates, out=self._ratio[: candidates.size]
        )
