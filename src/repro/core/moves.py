"""The paper's compound *move*: a sequence of ``Nb_drop`` Drops then Adds.

§3.1 (following [3]) defines a move from the current solution ``X`` to its
successor ``X'`` as two steps:

1. **Drop** — repeated ``Nb_drop`` times: let ``i*`` be the index of the most
   saturated constraint; drop the packed, non-tabu item ``j*`` maximizing
   ``a_{i*,j} / c_j`` (the least profit per unit of the scarce resource).
2. **Add** — add non-tabu items (tabu allowed under aspiration) "until no
   object can be added".

The :class:`MoveEngine` also counts *candidate evaluations*: the virtual-time
farm model charges slave CPU time proportional to this counter, which is how
the reproduction gets deterministic "execution times" out of a single host
core (see ``repro.farm``).  The counts flow into the state's
:class:`~repro.core.kernels.KernelCounters` (``move_evaluations``), and all
candidate scoring and fitting scans run on the state's preallocated buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelCounters
from .solution import SearchState
from .tabu_list import TabuList

__all__ = ["MoveEngine", "MoveRecord"]


@dataclass
class MoveRecord:
    """What one compound move changed (for tabu updates and diagnostics)."""

    dropped: list[int] = field(default_factory=list)
    added: list[int] = field(default_factory=list)

    @property
    def touched(self) -> list[int]:
        return self.dropped + self.added

    @property
    def hamming_step(self) -> int:
        """Hamming distance between the pre- and post-move solutions."""
        return len(self.dropped) + len(self.added)


class MoveEngine:
    """Applies Drop/Add compound moves to a :class:`SearchState`.

    Parameters
    ----------
    state:
        The mutable search state the engine operates on; it scores the
        candidates, runs the fitting scan and holds the evaluation ledger.
    tabu:
        Short-term memory consulted for both steps.
    rng:
        Tie-breaking source.  The paper's argmax/argmin rules frequently tie
        on integer data; random tie-breaking keeps parallel threads with
        different seeds on different trajectories.
    """

    def __init__(
        self,
        state: SearchState,
        tabu: TabuList,
        rng: np.random.Generator,
        add_candidates: int = 2,
    ) -> None:
        if add_candidates < 1:
            raise ValueError(f"add_candidates must be >= 1; got {add_candidates}")
        self.state = state
        self.tabu = tabu
        self.rng = rng
        #: Add-step selection breadth: the item is drawn uniformly from the
        #: ``add_candidates`` best-ratio admissible items.  The paper leaves
        #: the Add selection rule unspecified ("one or several components
        #: fixed at 0 are chosen"); breadth > 1 lets parallel threads reach
        #: different maximal completions of the same partial solution, which
        #: measurably improves the FP-57 optimum-hit rate (see DESIGN.md).
        #: 1 recovers the fully greedy deterministic rule.
        self.add_candidates = int(add_candidates)
        #: The thread's evaluation ledger (owned by the state).
        self.counters: KernelCounters = state.counters
        n = state.instance.n_items
        #: whole-neighborhood drop-scan scratch: candidate mask and the
        #: masked score vector (-inf on non-candidates)
        self._drop_mask = np.empty(n, dtype=bool)
        self._drop_scores = np.empty(n, dtype=np.float64)
        #: zero-copy bool view of the state's 0/1 vector (0/1 int8 is a
        #: valid bool buffer) — the packed-item mask without a compare
        self._x_bool = state.x.view(np.bool_)
        #: admissible-add word scratch (bitset-mode states only)
        if state.free_words is not None:
            self._allowed_words = np.empty_like(state.free_words)
            self._allowed_words_u8 = self._allowed_words.view(np.uint8)
        else:
            self._allowed_words = None
            self._allowed_words_u8 = None

    # ------------------------------------------------------------------ #
    # Drop step
    # ------------------------------------------------------------------ #
    def select_drop(self) -> int | None:
        """Pick the item to drop per the saturated-constraint rule.

        Returns ``None`` when the knapsack is empty.  When every packed item
        is tabu the rule would deadlock; the paper does not specify this
        case, so we fall back to ignoring tabu status (a standard TS escape
        that keeps the thread moving; documented in DESIGN.md §6 notes).

        One whole-neighborhood masked pass: packed-and-non-tabu is a single
        boolean expression over all n items, the precomputed ratio row is
        masked to -inf off-candidates, and the argmax ties are read off the
        full score vector.  The tie set (ascending item indices) and the
        number of ``rng`` draws are exactly those of the historical
        candidate-list scan, so trajectories are bit-identical (pinned by
        ``tests/test_golden_trajectory.py``).
        """
        state = self.state
        if state.n_packed == 0:
            return None
        i_star = state.most_saturated_constraint()
        mask = self._drop_mask
        np.logical_and(self._x_bool, self.tabu.nontabu_mask(), out=mask)
        count = int(np.count_nonzero(mask))
        if count == 0:
            np.copyto(mask, self._x_bool)
            count = state.n_packed
        scores = self._drop_scores
        scores.fill(-np.inf)
        np.copyto(scores, state.ratio_row(i_star), where=mask)
        self.counters.move_evaluations += count
        np.equal(scores, scores.max(), out=mask)
        ties = mask.nonzero()[0]
        if ties.size == 1:
            return int(ties[0])
        return int(ties[self.rng.integers(0, ties.size)])

    def drop_step(self, nb_drop: int) -> list[int]:
        """Perform up to ``nb_drop`` drops; returns the dropped indices."""
        dropped: list[int] = []
        for _ in range(max(0, int(nb_drop))):
            j = self.select_drop()
            if j is None:
                break
            self.state.drop(j)
            dropped.append(j)
        return dropped

    # ------------------------------------------------------------------ #
    # Add step
    # ------------------------------------------------------------------ #
    def select_add(
        self, best_value: float, exclude: set[int] | None = None
    ) -> int | None:
        """Pick the item to add, honouring tabu status and aspiration.

        Among free items that fit the residual capacities, prefer non-tabu
        ones; a tabu item is admissible only if adding it would beat the
        incumbent ``best_value`` (aspiration).  The selection rule mirrors
        the drop rule: minimize ``a_{i*,j} / c_j`` against the currently
        most saturated constraint, i.e. grab the best payoff per unit of
        the scarcest resource.

        ``exclude`` bars items unconditionally — the compound move passes
        the indices it just dropped, since the tabu list is only updated
        *after* the move (Fig. 1 step 9) and re-adding a just-dropped item
        would turn the move into a no-op.  (:meth:`add_step` installs the
        exclusion mask once for the whole pass; this entry point re-installs
        it per call for standalone use.)
        """
        self.state.set_exclusions(exclude)
        return self._select_add(best_value)

    def _select_add(self, best_value: float) -> int | None:
        """The Add selection rule against the state's current exclusions.

        On bitset-mode states the tabu filter happens at the word level —
        fitting words AND non-tabu words — and only the admissible set is
        ever decoded to indices; the generic path filters the decoded
        fitting array with the boolean mask.  Both produce the identical
        ascending ``allowed`` array (and charge the identical fitting-set
        size), so the scoring and tie-breaking below are path-independent.
        """
        state = self.state
        if state.use_bitset:
            fit_words = state.fitting_words()
            # popcount via one arbitrary-precision int: cheaper than a numpy
            # reduction at word counts this small
            n_fitting = int.from_bytes(fit_words.tobytes(), "little").bit_count()
            if n_fitting == 0:
                return None
            self.counters.move_evaluations += n_fitting
            nontabu_words = self.tabu.nontabu_words()
            np.bitwise_and(fit_words, nontabu_words, out=self._allowed_words)
            allowed = state.decode_words_u8(self._allowed_words_u8)
            if allowed.size == 0:
                # Aspiration: a tabu add is allowed if it beats the incumbent.
                tabu_items = state.decode_words_u8(
                    np.bitwise_and(fit_words, ~nontabu_words).view(np.uint8)
                )
                gains = state.value + state.instance.profits[tabu_items]
                aspire = tabu_items[gains > best_value]
                if aspire.size == 0:
                    return None
                allowed = aspire
        else:
            fitting = state.fitting_items()
            if fitting.size == 0:
                return None
            self.counters.move_evaluations += fitting.size
            nontabu = self.tabu.nontabu_mask()[fitting]
            allowed = fitting[nontabu]
            if allowed.size == 0:
                tabu_items = fitting[~nontabu]
                gains = state.value + state.instance.profits[tabu_items]
                aspire = tabu_items[gains > best_value]
                if aspire.size == 0:
                    return None
                allowed = aspire
        i_star = state.most_saturated_constraint()
        ratios = state.scores(i_star, allowed)
        if self.add_candidates == 1 or allowed.size == 1:
            return int(allowed[_argmin_random_tie(ratios, self.rng)])
        k = min(self.add_candidates, allowed.size)
        top = ratios.argpartition(k - 1)[:k]
        return int(allowed[top[self.rng.integers(0, k)]])

    def add_step(
        self, best_value: float, exclude: set[int] | None = None
    ) -> list[int]:
        """Add items until none can be added; returns the added indices.

        The exclusion mask is written once for the whole pass, and the
        state's fitting pool shrinks monotonically across the adds — the
        two properties that make the Add loop cheap on large instances.
        """
        state = self.state
        state.set_exclusions(exclude)
        added: list[int] = []
        while True:
            j = self._select_add(best_value)
            if j is None:
                break
            state.add(j)
            added.append(j)
        state.clear_exclusions()
        return added

    # ------------------------------------------------------------------ #
    # Compound move
    # ------------------------------------------------------------------ #
    def apply(self, nb_drop: int, best_value: float) -> MoveRecord:
        """One full Drop^``nb_drop``/Add move (Fig. 1, step 5).

        The caller is responsible for marking ``record.touched`` tabu and
        ticking the tabu clock (Fig. 1, steps 8–9), because intensification
        phases reuse the engine without touching the short-term memory.

        On a state with the native path (:meth:`SearchState.native`) and an
        Add breadth of at most 2, the whole move runs in C with the same
        candidate sets, evaluation counts and draws from :attr:`rng`.
        """
        state = self.state
        native = state.native()
        if native is not None and self.add_candidates <= 2:
            if state._n_excluded:
                state.clear_exclusions()
            dropped, added, evaluations = native.move(
                state, self.tabu, self.rng, max(0, int(nb_drop)),
                float(best_value), self.add_candidates,
            )
            self.counters.move_evaluations += evaluations
            self.counters.moves += 1
            return MoveRecord(dropped, added)
        record = MoveRecord()
        record.dropped = self.drop_step(nb_drop)
        record.added = self.add_step(best_value, exclude=record.dropped)
        self.counters.moves += 1
        return record


def _argmin_random_tie(values: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the minimum, breaking exact ties uniformly at random."""
    ties = (values == values.min()).nonzero()[0]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(0, ties.size)])
