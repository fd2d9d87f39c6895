"""Unit tests for the Strategy Generation Procedure (SGP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Solution, Strategy, StrategyBounds
from repro.master import SGPConfig, SlaveEntry, classify_dispersion, update_strategies
from repro.parallel import SlaveReport


def sol(bits: list[int], value: float) -> Solution:
    return Solution(np.array(bits, dtype=np.int8), value)


def make_entry(slave_id=0, score=4, elite=None) -> SlaveEntry:
    e = SlaveEntry(
        slave_id=slave_id,
        strategy=Strategy(20, 4, 50),
        init_solution=sol([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1.0),
        score=score,
    )
    e.absorb_elite(elite or [], capacity=8)
    return e


def report(slave_id=0, improved=True) -> SlaveReport:
    best = sol([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], 10.0 if improved else 1.0)
    return SlaveReport(slave_id=slave_id, best=best, initial_value=5.0)


N_ITEMS = 10
BOUNDS = StrategyBounds()
RNG = np.random.default_rng(0)


class TestScoring:
    def test_increment_on_improvement(self):
        entry = make_entry(score=4)
        update_strategies([entry], [report(improved=True)], BOUNDS, SGPConfig(), N_ITEMS, RNG)
        assert entry.score == 5

    def test_decrement_on_failure(self):
        entry = make_entry(score=4)
        update_strategies([entry], [report(improved=False)], BOUNDS, SGPConfig(), N_ITEMS, RNG)
        assert entry.score == 3

    def test_keep_decision_while_score_positive(self):
        entry = make_entry(score=4)
        decisions = update_strategies(
            [entry], [report(improved=False)], BOUNDS, SGPConfig(), N_ITEMS, RNG
        )
        assert decisions[0].action == "keep"
        assert entry.strategy == Strategy(20, 4, 50)

    def test_regeneration_at_zero_resets_score(self):
        entry = make_entry(score=1)
        decisions = update_strategies(
            [entry], [report(improved=False)], BOUNDS, SGPConfig(), N_ITEMS, RNG
        )
        assert decisions[0].action != "keep"
        assert entry.score == SGPConfig().initial_score
        assert entry.regenerations == 1


class TestRegenerationDirection:
    def test_clustered_elite_diversifies(self):
        """B best solutions in close areas => raise lt/nb_drop (§4.2)."""
        clustered = [
            sol([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], 5.0),
            sol([1, 1, 0, 1, 0, 0, 0, 0, 0, 0], 4.0),  # distance 2 < 10%*10... use close
        ]
        # make them distance 0.. hamming 2 / 10 items = 0.2 -> need < close_fraction
        config = SGPConfig(close_fraction=0.3, far_fraction=0.6)
        entry = make_entry(score=1, elite=clustered)
        old = entry.strategy
        decisions = update_strategies(
            [entry], [report(improved=False)], BOUNDS, config, N_ITEMS, RNG
        )
        assert decisions[0].action == "diversify"
        assert entry.strategy.lt_length > old.lt_length
        assert entry.strategy.nb_drop > old.nb_drop

    def test_dispersed_elite_intensifies(self):
        dispersed = [
            sol([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], 5.0),
            sol([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 4.0),  # distance 10
        ]
        config = SGPConfig(close_fraction=0.1, far_fraction=0.5)
        entry = make_entry(score=1, elite=dispersed)
        old = entry.strategy
        decisions = update_strategies(
            [entry], [report(improved=False)], BOUNDS, config, N_ITEMS, RNG
        )
        assert decisions[0].action == "intensify"
        assert entry.strategy.lt_length < old.lt_length
        assert entry.strategy.nb_drop < old.nb_drop

    def test_insufficient_elite_goes_random(self):
        entry = make_entry(score=1, elite=[sol([1] + [0] * 9, 5.0)])
        decisions = update_strategies(
            [entry], [report(improved=False)], BOUNDS, SGPConfig(), N_ITEMS, RNG
        )
        assert decisions[0].action == "random"

    def test_middle_dispersion_goes_random(self):
        assert classify_dispersion(2.0, 10, SGPConfig(close_fraction=0.1, far_fraction=0.5)) == "random"

    def test_classify_edges(self):
        config = SGPConfig(close_fraction=0.1, far_fraction=0.5)
        assert classify_dispersion(0.5, 10, config) == "diversify"
        assert classify_dispersion(6.0, 10, config) == "intensify"
        with pytest.raises(ValueError):
            classify_dispersion(1.0, 0, config)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            update_strategies([make_entry()], [], BOUNDS, SGPConfig(), N_ITEMS, RNG)

    def test_misaligned_ids(self):
        with pytest.raises(ValueError, match="misaligned"):
            update_strategies(
                [make_entry(slave_id=0)],
                [report(slave_id=1)],
                BOUNDS,
                SGPConfig(),
                N_ITEMS,
                RNG,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SGPConfig(initial_score=0)
        with pytest.raises(ValueError):
            SGPConfig(close_fraction=0.5, far_fraction=0.2)
        with pytest.raises(ValueError):
            SGPConfig(mutation_intensity=0.0)
