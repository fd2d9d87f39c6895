"""Solution representations for the 0–1 MKP.

Three classes share the work:

:class:`Solution`
    An immutable snapshot — a 0/1 vector plus its cached objective value,
    held as its packed bit frame; the ``int8`` vector is unpacked only when
    read.  These are what gets shipped between master and slaves and handed
    out by the ISP.

:class:`SolutionBlock`
    ``k`` solutions as one array of wire records.  A slave's elite
    (``BestSol``) array leaves in that form, and the master merges it and
    measures its Hamming dispersion without unpacking.

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

import functools
from typing import Iterable

import numpy as np

from . import native
from .bitset import (
    WORD_BITS,
    bytes_to_words,
    hamming_words,
    mean_pairwise_hamming,
)
from .instance import MKPInstance
from .kernels import FIT_EPS, KernelCounters

__all__ = [
    "Solution",
    "SolutionBlock",
    "SearchState",
    "hamming_distance",
    "mean_pairwise_distance",
]

#: Single-bit uint64 masks for the free-word maintenance.
_BIT = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)).copy()


@functools.lru_cache(maxsize=None)
def record_dtype(n_items: int) -> np.dtype:
    """One solution's wire record: its ``<f8`` value, then its packed bits."""
    return np.dtype([("value", "<f8"), ("bits", np.uint8, ((n_items + 7) // 8,))])


class Solution:
    """An immutable 0/1 solution with its objective value.

    A solution is held packed: :meth:`packed_bytes` is its ``ceil(n/8)``-byte
    little-endian bit frame (padding bits zero), the one form the wire, the
    elite blocks and every dedup key use.  The ``int8`` vector :attr:`x` is
    unpacked only when something reads it, and then kept.

    ``value`` is trusted (it is produced by :class:`SearchState`, whose
    invariant is property-tested); :meth:`verified` recomputes it for audits.
    """

    __slots__ = ("_bits", "_n", "_value", "_x", "_words")

    def __init__(self, x: np.ndarray, value: float) -> None:
        x = np.ascontiguousarray(x, dtype=np.int8)
        if x.ndim != 1:
            raise ValueError(f"solution vector must be 1-D; got shape {x.shape}")
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")
        self._pack(x, value)

    def _pack(self, x: np.ndarray, value: float) -> None:
        x.setflags(write=False)
        self._bits = np.packbits(x, bitorder="little").tobytes()
        self._n = x.shape[0]
        self._value = float(value)
        self._x = x
        self._words = None

    @classmethod
    def trusted(cls, x: np.ndarray, value: float) -> "Solution":
        """No-copy, no-validation constructor for the hot path.

        ``x`` must already be a contiguous 1-D 0/1 ``int8`` array owned by
        the caller (e.g. a fresh ``SearchState`` snapshot copy); it is
        frozen in place and kept as :attr:`x`.  The per-move snapshot path
        uses this to skip the constructor's re-validation and re-copy, which
        dominates the cost of cheap moves on large instances.
        """
        self = object.__new__(cls)
        self._pack(x, value)
        return self

    @classmethod
    def from_packed(cls, bits: bytes, n_items: int, value: float) -> "Solution":
        """A solution from its packed frame (padding bits zero); ``x`` stays unread."""
        if len(bits) != (n_items + 7) // 8:
            raise ValueError(f"expected {(n_items + 7) // 8} packed bytes; got {len(bits)}")
        self = object.__new__(cls)
        self._bits = bits
        self._n = n_items
        self._value = float(value)
        self._x = None
        self._words = None
        return self

    @property
    def x(self) -> np.ndarray:
        """The read-only ``int8`` 0/1 vector, unpacked on first read."""
        if self._x is None:
            bits = np.frombuffer(self._bits, dtype=np.uint8)
            x = np.unpackbits(bits, count=self._n, bitorder="little").view(np.int8)
            x.setflags(write=False)
            self._x = x  # published read-only: another thread may read it at once
        return self._x

    @property
    def value(self) -> float:
        return self._value

    @property
    def n_items(self) -> int:
        return self._n

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
        """Packed little-endian ``uint64`` words of ``x`` (memoized)."""
        if self._words is None:
            self._words = bytes_to_words(self._bits, self._n)
            self._words.setflags(write=False)
        return self._words

    def packed_bytes(self) -> bytes:
        """Minimal ``ceil(n/8)``-byte frame of ``x`` (wire/dedup format)."""
        return self._bits

    def distance(self, other: "Solution") -> int:
        """Hamming distance to another solution (SGP dispersion metric)."""
        if self._n != other._n:
            raise ValueError(f"shape mismatch: ({self._n},) vs ({other._n},)")
        return hamming_words(self.packed_words(), other.packed_words())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return (
            self._value == other._value
            and self._n == other._n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._value, self._bits))

    def __reduce__(self):
        return Solution.from_packed, (self._bits, self._n, self._value)

    def __repr__(self) -> str:
        return f"Solution(value={self._value!r}, n_items={self._n})"


class SolutionBlock:
    """``k`` solutions as one array of wire records (:func:`record_dtype`).

    The bytes of :attr:`records` are the solution frames
    :class:`~repro.parallel.wire.WireCodec` sends, so a block crosses the
    wire in one copy each way.  Indexing and iterating yield packed
    :class:`Solution` objects (``x`` still unread).
    """

    __slots__ = ("records", "n_items")

    def __init__(self, records: np.ndarray, n_items: int) -> None:
        self.records = records
        self.n_items = n_items

    @classmethod
    def pack(cls, rows: np.ndarray, values: np.ndarray) -> "SolutionBlock":
        """Pack a ``(k, n)`` 0/1 block and its values with one ``packbits``."""
        records = np.empty(rows.shape[0], dtype=record_dtype(rows.shape[1]))
        records["value"] = values
        records["bits"] = np.packbits(rows, axis=1, bitorder="little")
        return cls(records, rows.shape[1])

    @classmethod
    def of(cls, solutions: Iterable[Solution], n_items: int) -> "SolutionBlock":
        """A block holding ``solutions`` (each of ``n_items`` items), in order."""
        sols = list(solutions)
        records = np.empty(len(sols), dtype=record_dtype(n_items))
        records["value"] = [s.value for s in sols]
        bits = b"".join(s.packed_bytes() for s in sols)
        records["bits"] = np.frombuffer(bits, np.uint8).reshape(records["bits"].shape)
        return cls(records, n_items)

    def pairs(self) -> list[tuple[float, bytes]]:
        """``(value, packed bits)`` of every member, in block order."""
        size = self.records.itemsize
        raw = self.records.tobytes()  # per record: 8 value bytes, then the bits
        return [
            (value, raw[i * size + 8 : i * size + size])
            for i, value in enumerate(self.records["value"].tolist())
        ]

    def __len__(self) -> int:
        return self.records.shape[0]

    def __getitem__(self, idx: int) -> Solution:
        record = self.records[idx]
        return Solution.from_packed(record["bits"].tobytes(), self.n_items, record["value"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SolutionBlock, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


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
    if any(s.n_items != sols[0].n_items for s in sols):
        raise ValueError("shape mismatch: solutions of different lengths")
    return mean_pairwise_hamming([s.packed_bytes() for s in sols])


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
