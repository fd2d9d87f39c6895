"""Solution representations for the 0–1 MKP.

Two classes share the work:

:class:`Solution`
    An immutable snapshot — a 0/1 vector plus its cached objective value.
    These are what gets stored in elite (``BestSol``) arrays, shipped between
    master and slaves, and compared by Hamming distance in the SGP.

:class:`SearchState`
    The *mutable* working state of one tabu-search thread.  It maintains the
    invariant ``load == A @ x`` and ``value == c @ x`` under O(m) incremental
    ``add``/``drop`` updates, which is the vectorized hot path the
    hpc-parallel guides call for (never recompute ``A @ x`` per move).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitset import (
    bytes_to_words,
    hamming_words,
    mean_pairwise_hamming,
    pack_bits,
    unpack_bits,
    words_to_bytes,
)
from .instance import MKPInstance
from .kernels import EvalKernel

__all__ = [
    "Solution",
    "SearchState",
    "hamming_distance",
    "mean_pairwise_distance",
]

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
    """Mutable working state of a tabu-search thread.

    Invariants (property-tested in ``tests/test_solution_properties.py``):

    * ``load == instance.weights @ x`` (within float tolerance),
    * ``value == instance.profits @ x``,
    * both are maintained under :meth:`add` / :meth:`drop` in O(m) time.

    The state may be temporarily *infeasible* during strategic oscillation;
    :attr:`is_feasible` and :attr:`slack` expose the current standing.

    All array state lives in a :class:`~repro.core.kernels.EvalKernel`,
    which preallocates the buffers once and caches the most-saturated
    constraint and the Add-pass fitting pool; this class is the validated
    public face of that kernel.
    """

    __slots__ = ("instance", "kernel")

    def __init__(self, instance: MKPInstance, x: np.ndarray) -> None:
        x = np.ascontiguousarray(x, dtype=np.int8)
        if x.shape != (instance.n_items,):
            raise ValueError(
                f"solution vector must have shape ({instance.n_items},); got {x.shape}"
            )
        if not np.all((x == 0) | (x == 1)):
            raise ValueError("solution vector must be 0/1")
        self.instance = instance
        self.kernel = EvalKernel(instance)
        self.kernel.reset(x)

    @property
    def x(self) -> np.ndarray:
        """The working 0/1 vector (the kernel's buffer; mutate via add/drop)."""
        return self.kernel.x

    @property
    def load(self) -> np.ndarray:
        """Current resource consumption ``A @ x`` (the kernel's buffer)."""
        return self.kernel.load

    @property
    def value(self) -> float:
        """Current objective value ``c @ x``."""
        return self.kernel.value

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

    # ------------------------------------------------------------------ #
    # Incremental moves (the vectorized hot path)
    # ------------------------------------------------------------------ #
    def add(self, j: int) -> None:
        """Set ``x_j = 1``; O(m) incremental update of load and value."""
        self.kernel.add(j)

    def drop(self, j: int) -> None:
        """Set ``x_j = 0``; O(m) incremental update of load and value."""
        self.kernel.drop(j)

    def flip(self, j: int) -> None:
        """Toggle ``x_j`` (convenience for swap intensification)."""
        if self.x[j]:
            self.drop(j)
        else:
            self.add(j)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def slack(self) -> np.ndarray:
        """Remaining capacity per constraint ``b - load`` (may be negative).

        Returns a copy of the kernel's incrementally-maintained buffer so
        callers can scribble on it without corrupting the search state.
        """
        return self.kernel.slack.copy()

    @property
    def is_feasible(self) -> bool:
        return self.kernel.is_feasible

    @property
    def violation(self) -> float:
        """Total positive constraint excess (0.0 iff feasible)."""
        excess = self.load - self.instance.capacities
        return float(np.clip(excess, 0.0, None).sum())

    def packed_items(self) -> np.ndarray:
        """Indices with ``x_j == 1``."""
        return self.kernel.packed_items()

    def free_items(self) -> np.ndarray:
        """Indices with ``x_j == 0``."""
        return self.kernel.free_items()

    def fitting_items(self) -> np.ndarray:
        """Free items that fit in the *current* residual capacity.

        Delegates to the kernel's pool-accelerated scan (exclusion-free at
        this level; the move engine layers its per-move exclusions on top).
        """
        if self.kernel._n_excluded:  # pragma: no cover - engine clears after use
            self.kernel.clear_exclusions()
        return self.kernel.fitting_items()

    def most_saturated_constraint(self) -> int:
        """Index of the constraint with minimum slack.

        §3.1 drop rule, step 1: ``i* = ArgMin_i (sum_j a_ij x_j - b_i)`` —
        note the paper writes load − capacity, whose argmin over i is the
        constraint closest to (or deepest into) its capacity... The intended
        heuristic (and the one used in the cited technical report) is the
        *most saturated* constraint, i.e. the one with the least remaining
        slack ``b_i - load_i``; we implement argmin of slack (cached by the
        kernel between state changes).
        """
        return self.kernel.most_saturated_constraint()

    def snapshot(self) -> Solution:
        """Freeze the current state into an immutable :class:`Solution`.

        Uses the trusted fast-constructor: the kernel's invariant makes the
        copy already-validated, so re-checking it per move would only burn
        the cycles this layer exists to save.
        """
        self.kernel.counters.snapshots += 1
        return Solution.trusted(self.x.copy(), self.value)

    def restore(self, solution: Solution) -> None:
        """Reset the state to ``solution`` (recomputes load/value, O(mn))."""
        if solution.x.shape != (self.instance.n_items,):
            raise ValueError("solution shape does not match instance")
        self.kernel.reset(solution.x)

    def reset(self) -> None:
        """Return to the all-zero state in place (warm-runtime reuse path).

        Equivalent to constructing :meth:`empty` afresh — same exact zeros
        for load and value, same invalidated caches — but reuses every
        preallocated kernel buffer instead of reallocating the arena.
        """
        self.kernel.reset(None)

    def recompute(self) -> None:
        """Recompute load/value from scratch (defensive audit helper)."""
        self.kernel.reset(self.x.copy())

    def copy(self) -> "SearchState":
        return SearchState(self.instance, self.x.copy())
