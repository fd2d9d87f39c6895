"""Unit tests for :mod:`repro.core.memory` (History + EliteArray)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EliteArray, History, Solution


def sol(bits: list[int], value: float) -> Solution:
    return Solution(np.array(bits, dtype=np.int8), value)


class TestHistory:
    def test_counts_accumulate(self):
        h = History(3)
        h.record(np.array([1, 0, 1]))
        h.record(np.array([1, 0, 0]))
        np.testing.assert_array_equal(h.counts, [2, 0, 1])
        assert h.iterations == 2

    def test_frequency(self):
        h = History(3)
        h.record(np.array([1, 0, 1]))
        h.record(np.array([1, 0, 0]))
        np.testing.assert_allclose(h.frequency(), [1.0, 0.0, 0.5])

    def test_frequency_empty(self):
        h = History(3)
        np.testing.assert_array_equal(h.frequency(), [0.0, 0.0, 0.0])

    def test_thresholds(self):
        h = History(3)
        h.record(np.array([1, 0, 1]))
        h.record(np.array([1, 0, 0]))
        assert list(h.overused(0.8)) == [0]
        assert list(h.underused(0.2)) == [1]

    def test_reset(self):
        h = History(2)
        h.record(np.array([1, 1]))
        h.reset()
        assert h.iterations == 0
        np.testing.assert_array_equal(h.counts, [0, 0])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            History(0)


class TestEliteArray:
    def test_keeps_best_sorted(self):
        elite = EliteArray(3, 3)
        for v, bits in [(5, [1, 0, 0]), (9, [0, 1, 0]), (7, [0, 0, 1])]:
            assert elite.offer(sol(bits, v))
        assert [s.value for s in elite] == [9, 7, 5]
        assert elite.best.value == 9

    def test_eviction_at_capacity(self):
        elite = EliteArray(2, 3)
        elite.offer(sol([1, 0, 0], 5))
        elite.offer(sol([0, 1, 0], 9))
        assert elite.offer(sol([0, 0, 1], 7))  # evicts 5
        assert [s.value for s in elite] == [9, 7]

    def test_rejects_below_worst_when_full(self):
        elite = EliteArray(2, 3)
        elite.offer(sol([1, 0, 0], 5))
        elite.offer(sol([0, 1, 0], 9))
        assert not elite.offer(sol([0, 0, 1], 4))

    def test_distinctness_by_vector(self):
        elite = EliteArray(3, 2)
        assert elite.offer(sol([1, 0], 5))
        assert not elite.offer(sol([1, 0], 5))
        assert len(elite) == 1

    def test_plateau_distinct_vectors_accepted(self):
        elite = EliteArray(3, 2)
        assert elite.offer(sol([1, 0], 5))
        assert elite.offer(sol([0, 1], 5))
        assert len(elite) == 2

    def test_qualifies(self):
        elite = EliteArray(2, 2)
        assert elite.qualifies(0.0)  # not yet full
        elite.offer(sol([1, 0], 5))
        elite.offer(sol([0, 1], 9))
        assert elite.qualifies(6.0)
        assert not elite.qualifies(5.0)

    def test_worst_value(self):
        elite = EliteArray(2, 2)
        assert elite.worst_value == float("-inf")
        elite.offer(sol([1, 0], 5))
        assert elite.worst_value == float("-inf")  # still not full
        elite.offer(sol([0, 1], 9))
        assert elite.worst_value == 5

    def test_to_list_is_copy(self):
        elite = EliteArray(2, 2)
        elite.offer(sol([1, 0], 5))
        listed = list(elite)
        listed.clear()
        assert len(elite) == 1

    def test_clear(self):
        elite = EliteArray(2, 2)
        elite.offer(sol([1, 0], 5))
        elite.clear()
        assert len(elite) == 0
        assert elite.best is None
        # after clear the same vector can re-enter
        assert elite.offer(sol([1, 0], 5))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EliteArray(0, 3)


def _list_elite_offer(members: list[Solution], capacity: int, solution: Solution) -> bool:
    """The list-of-Solutions ``offer`` the array block replaced: dedup by
    vector, then the qualification test, then a stable sort of the appended
    member by decreasing value and eviction of the last."""
    if any(np.array_equal(m.x, solution.x) for m in members):
        return False
    if len(members) >= capacity and not solution.value > members[-1].value:
        return False
    members.append(solution)
    members.sort(key=lambda s: -s.value)
    if len(members) > capacity:
        members.pop()
    return True


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1.0, 2.0, 2.0, 5.0, 5.0, 8.0])),
             max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_array_block_keeps_list_offer_semantics(capacity, offers):
    elite = EliteArray(capacity, 3)
    members: list[Solution] = []
    for code, value in offers:
        s = sol([(code >> b) & 1 for b in range(3)], value)
        assert elite.offer(s) == _list_elite_offer(members, capacity, s)
        assert list(elite) == members
        assert elite.worst_value == (members[-1].value if len(members) == capacity
                                     else float("-inf"))
