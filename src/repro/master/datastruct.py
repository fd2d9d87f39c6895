"""The master's per-slave data structure (§4.2).

"The data structure used by the master process is an array of P entries.
The entry i corresponds to informations given to or by the slave processor i
and contains four items: the search strategy (three values) (St_i), the
initial solution used by the slave (S_i), the B best solutions found by the
slave i (best_i), and the score of the slave i (score_i)."

:class:`SlaveEntry` is that entry, plus the two counters the ISP/SGP rules
need (rounds since the slave's best last changed, and the round the score
was last reset) — bookkeeping the paper implies but does not name.  It keeps
its B best as packed rows plus values, so merging a report and measuring the
SGP dispersion never unpack a solution vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from ..core.bitset import mean_pairwise_hamming
from ..core.solution import Solution, SolutionBlock
from ..core.strategy import Strategy

__all__ = ["SlaveEntry", "INITIAL_SCORE"]

#: "Initially, the parameter score_i is set to a predetermined value (four
#: in the actual version)."
INITIAL_SCORE = 4


@dataclass
class SlaveEntry:
    """Master-side record for one slave processor."""

    slave_id: int
    strategy: Strategy
    init_solution: Solution
    score: int = INITIAL_SCORE
    #: rounds since this slave's best solution last changed (ISP rule 2)
    stagnant_rounds: int = 0
    #: total strategy regenerations (diagnostics for the A3/A6 ablations)
    regenerations: int = 0

    def __post_init__(self) -> None:
        #: the B best distinct solutions, best first, as ``(value, packed bits)``
        self._members: list[tuple[float, bytes]] = []
        self._best: Solution | None = None  # ``_members[0]`` as a solution
        self._dispersion: float | None = None  # until the members change

    @property
    def best(self) -> Solution | None:
        """The slave's best solution so far."""
        if self._best is None and self._members:
            value, bits = self._members[0]
            self._best = Solution.from_packed(bits, self.init_solution.n_items, value)
        return self._best

    @property
    def best_solutions(self) -> list[Solution]:
        """The B best as solutions, best first (a new list on every read)."""
        n = self.init_solution.n_items
        rest = [Solution.from_packed(bits, n, value) for value, bits in self._members[1:]]
        return [self.best, *rest] if self._members else []

    def dispersion(self) -> float:
        """Mean pairwise Hamming distance of the B best (the SGP statistic):
        one popcount pass over the packed rows, kept until
        :meth:`absorb_elite` changes them."""
        if self._dispersion is None:
            frames = [bits for _, bits in self._members]
            self._dispersion = mean_pairwise_hamming(frames)
        return self._dispersion

    def absorb_elite(
        self, elite: Iterable[Solution | SolutionBlock], capacity: int
    ) -> bool:
        """Merge a round's solutions into the entry; True if best improved.

        ``elite`` holds solutions and solution blocks, taken in order after
        the existing members; a row already present is skipped.  A stable
        sort by decreasing value then keeps the top ``capacity``, so the
        SGP's dispersion statistic reflects the slave's recent history.
        """
        members = self._members
        previous_best = members[0][0] if members else float("-inf")
        merged = list(members)
        seen = {bits for _, bits in members}
        for part in elite:
            if isinstance(part, SolutionBlock):
                pairs = part.pairs()
            else:
                pairs = [(part.value, part.packed_bytes())]
            for pair in pairs:
                if pair[1] not in seen:
                    seen.add(pair[1])
                    merged.append(pair)
        merged.sort(key=itemgetter(0), reverse=True)  # stable: ties keep order
        del merged[capacity:]
        if merged != members:
            if not members or merged[0] is not members[0]:
                self._best = None
            self._members = merged
            self._dispersion = None
        return bool(merged) and merged[0][0] > previous_best
