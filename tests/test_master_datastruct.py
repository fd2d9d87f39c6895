"""Unit tests for the master's per-slave data structure."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Solution, Strategy, hamming_distance, mean_pairwise_distance
from repro.core.solution import SolutionBlock
from repro.master import INITIAL_SCORE, SlaveEntry


def sol(bits: list[int], value: float) -> Solution:
    return Solution(np.array(bits, dtype=np.int8), value)


def make_entry() -> SlaveEntry:
    return SlaveEntry(
        slave_id=0,
        strategy=Strategy(10, 2, 20),
        init_solution=sol([1, 0, 0], 5.0),
    )


class TestEntry:
    def test_initial_score_is_four(self):
        """§4.2: 'a predetermined value (four in the actual version)'."""
        assert INITIAL_SCORE == 4
        assert make_entry().score == 4

    def test_best_none_initially(self):
        assert make_entry().best is None

    def test_absorb_sorts_and_reports_improvement(self):
        entry = make_entry()
        changed = entry.absorb_elite([sol([1, 0, 0], 5), sol([0, 1, 0], 9)], capacity=4)
        assert changed
        assert entry.best.value == 9

    def test_absorb_no_improvement(self):
        entry = make_entry()
        entry.absorb_elite([sol([0, 1, 0], 9)], capacity=4)
        changed = entry.absorb_elite([sol([1, 0, 0], 5)], capacity=4)
        assert not changed

    def test_absorb_deduplicates(self):
        entry = make_entry()
        entry.absorb_elite([sol([0, 1, 0], 9)], capacity=4)
        entry.absorb_elite([sol([0, 1, 0], 9)], capacity=4)
        assert len(entry.best_solutions) == 1

    def test_absorb_caps_capacity(self):
        entry = make_entry()
        sols = [sol([1 if i == j else 0 for i in range(6)], float(j)) for j in range(6)]
        entry.absorb_elite(sols, capacity=3)
        assert len(entry.best_solutions) == 3
        assert [s.value for s in entry.best_solutions] == [5.0, 4.0, 3.0]

    def test_absorb_keeps_cross_round_memory(self):
        entry = make_entry()
        entry.absorb_elite([sol([0, 1, 0], 9)], capacity=3)
        entry.absorb_elite([sol([0, 0, 1], 7)], capacity=3)
        values = [s.value for s in entry.best_solutions]
        assert values == [9.0, 7.0]


# ---------------------------------------------------------------------- #
# The packed merge and dispersion against list-based references
# ---------------------------------------------------------------------- #


def reference_absorb(
    members: list[Solution], elite: list[Solution], capacity: int
) -> tuple[list[Solution], bool]:
    """The list merge the entry reproduces: existing members first, a vector
    already present skipped, a stable sort by decreasing value, the top
    ``capacity`` kept; True when the best value rose."""
    previous = members[0].value if members else float("-inf")
    merged = list(members)
    seen = {s.x.tobytes() for s in members}
    for s in elite:
        if s.x.tobytes() not in seen:
            seen.add(s.x.tobytes())
            merged.append(s)
    merged.sort(key=lambda s: -s.value)
    del merged[capacity:]
    return merged, bool(merged) and merged[0].value > previous


def reference_dispersion(members: list[Solution]) -> float:
    k = len(members)
    if k < 2:
        return 0.0
    total = sum(
        hamming_distance(a.x, b.x)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
        if i != j
    )
    return total / (k * (k - 1))


@st.composite
def merge_rounds(draw):
    """``(n, capacity, rounds)``: each round a best and an elite list drawn
    from a small pool of vectors and values, so duplicates and ties occur."""
    n = draw(st.sampled_from([1, 3, 7, 8, 9, 13, 63, 64, 65, 100]))
    capacity = draw(st.integers(1, 8))
    pool = draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=6)
    )
    member = st.tuples(st.sampled_from(range(len(pool))), st.sampled_from([1.0, 2.0, 3.0]))
    rounds = draw(
        st.lists(
            st.tuples(member, st.lists(member, max_size=8)), min_size=1, max_size=4
        )
    )

    def make(pick):
        return Solution(np.array(pool[pick[0]], dtype=np.int8), pick[1])

    return n, capacity, [(make(b), [make(e) for e in elite]) for b, elite in rounds]


class TestPackedMerge:
    @given(merge_rounds())
    @settings(max_examples=200, deadline=None)
    def test_block_merge_matches_list_merge(self, case):
        n, capacity, rounds = case
        entry = SlaveEntry(
            slave_id=0,
            strategy=Strategy(10, 2, 20),
            init_solution=Solution(np.zeros(n, dtype=np.int8), 0.0),
        )
        expected: list[Solution] = []
        for best, elite in rounds:
            expected, want_improved = reference_absorb(expected, [best, *elite], capacity)
            improved = entry.absorb_elite(
                [best, SolutionBlock.of(elite, n)], capacity
            )
            assert improved == want_improved
            got = entry.best_solutions
            assert [(s.value, s.packed_bytes()) for s in got] == [
                (s.value, s.packed_bytes()) for s in expected
            ]
            assert entry.best == expected[0]
            assert entry.dispersion() == reference_dispersion(expected)
            assert entry.dispersion() == mean_pairwise_distance(expected)

    def test_dispersion_is_recomputed_after_a_change(self):
        entry = make_entry()
        entry.absorb_elite([sol([1, 0, 0], 5), sol([0, 1, 0], 4)], capacity=4)
        assert entry.dispersion() == 2.0
        entry.absorb_elite([sol([1, 0, 0], 5)], capacity=4)  # nothing new
        assert entry.dispersion() == 2.0
        entry.absorb_elite([sol([1, 1, 0], 3)], capacity=4)
        assert entry.dispersion() == 2 * (2 + 1 + 1) / 6
