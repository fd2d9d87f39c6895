"""Unit tests for :mod:`repro.core.tabu_list`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TabuList


class TestBasics:
    def test_initially_free(self):
        tl = TabuList(5, tenure=3)
        assert not any(tl.is_tabu(j) for j in range(5))
        assert tl.active_count() == 0

    def test_tabu_for_exactly_tenure_ticks(self):
        tl = TabuList(5, tenure=3)
        tl.make_tabu(2)
        for _ in range(3):
            assert tl.is_tabu(2)
            tl.tick()
        assert not tl.is_tabu(2)

    def test_zero_tenure_disables(self):
        tl = TabuList(5, tenure=0)
        tl.make_tabu(1)
        assert not tl.is_tabu(1)

    def test_extra_tenure(self):
        tl = TabuList(5, tenure=2)
        tl.make_tabu(0, extra_tenure=3)
        for _ in range(5):
            assert tl.is_tabu(0)
            tl.tick()
        assert not tl.is_tabu(0)

    def test_remaining(self):
        tl = TabuList(5, tenure=4)
        tl.make_tabu(3)
        assert tl.remaining(3) == 4
        tl.tick()
        assert tl.remaining(3) == 3
        assert tl.remaining(0) == 0

    def test_re_tabu_does_not_shorten(self):
        tl = TabuList(5, tenure=5)
        tl.make_tabu(1, extra_tenure=10)
        tl.tick()
        tl.make_tabu(1)  # plain tenure would expire earlier
        assert tl.remaining(1) == 14  # 15 from start, one tick passed

    def test_clear(self):
        tl = TabuList(5, tenure=3)
        tl.make_tabu(np.array([0, 1, 2]))
        tl.clear()
        assert tl.active_count() == 0


class TestVectorized:
    def test_mask_all_items(self):
        tl = TabuList(4, tenure=2)
        tl.make_tabu(np.array([1, 3]))
        np.testing.assert_array_equal(
            tl.tabu_mask(), [False, True, False, True]
        )

    def test_mask_subset(self):
        tl = TabuList(4, tenure=2)
        tl.make_tabu(np.array([1, 3]))
        np.testing.assert_array_equal(
            tl.tabu_mask(np.array([3, 0])), [True, False]
        )

    def test_admissible(self):
        tl = TabuList(6, tenure=2)
        tl.make_tabu(np.array([0, 2, 4]))
        np.testing.assert_array_equal(
            tl.admissible(np.arange(6)), [1, 3, 5]
        )

    def test_advance_to_drops_the_mask_caches(self):
        # The native loop writes the expiry array in place, then sets the
        # clock; even an unchanged clock must not serve a stale mask.
        tl = TabuList(70, tenure=2)
        tl.nontabu_mask()
        tl._expiry[[3, 66]] = 5
        tl.advance_to(0)
        assert tl.clock == 0
        assert not tl.nontabu_mask()[[3, 66]].any()
        tl.advance_to(5)
        assert tl.clock == 5 and tl.active_count() == 0


class TestDynamicTenure:
    def test_set_tenure_applies_to_new_entries_only(self):
        tl = TabuList(5, tenure=2)
        tl.make_tabu(0)
        tl.set_tenure(10)
        tl.make_tabu(1)
        tl.tick()
        tl.tick()
        assert not tl.is_tabu(0)  # old entry expired on old tenure
        assert tl.is_tabu(1)

    def test_invalid_tenure(self):
        with pytest.raises(ValueError):
            TabuList(5, tenure=-1)
        tl = TabuList(5, tenure=2)
        with pytest.raises(ValueError):
            tl.set_tenure(-3)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            TabuList(0, tenure=1)

