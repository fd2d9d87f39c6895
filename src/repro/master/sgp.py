"""SGP — the Strategy Generation Procedure (§4.2).

Scoring: "Initially, the parameter score_i is set to a predetermined value
(four in the actual version).  At each search iteration, score_i is
incremented if the final solution cost returned by the slave i (C'_i) is
higher than the initial solution cost (C_i).  Otherwise score_i is
decremented.  Once score_i reaches the value 0, st_i is removed and new
values are affected to each parameter."

Regeneration: "These new values may be chosen randomly or in a clever manner
by using the B best solutions returned by the slave i.  If the B best
solutions found by a slave are in close areas [small Hamming dispersion]
... it is interesting to increment lt_size and nb_drop and to reduce the
nb_it parameter [diversify].  In the opposite, if the B best solutions are
very far ones another, the master will force slave processors to do
intensification ... by reducing the values of lt_size and nb_drop and
incrementing nb_it."

The dispersion statistic is the mean pairwise Hamming distance over each
entry's elite set, one XOR + popcount pass over the entry's packed rows
(:meth:`repro.master.datastruct.SlaveEntry.dispersion`) — the number is
bit-identical to the dense elementwise version, so every ``close``/``far``
classification below is unaffected by the packed representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.strategy import Strategy, StrategyBounds
from ..parallel.message import SlaveReport
from .datastruct import INITIAL_SCORE, SlaveEntry

__all__ = ["SGPConfig", "update_strategies", "SGPDecision", "classify_dispersion"]


@dataclass(frozen=True)
class SGPConfig:
    """Tunables of the SGP.

    Dispersion classification: elite sets with mean pairwise Hamming
    distance below ``close_fraction * n`` count as "close areas", above
    ``far_fraction * n`` as "very far"; in between the regeneration falls
    back to the paper's random option.
    """

    initial_score: int = INITIAL_SCORE
    close_fraction: float = 0.10
    far_fraction: float = 0.30
    mutation_intensity: float = 0.5

    def __post_init__(self) -> None:
        if self.initial_score < 1:
            raise ValueError("initial_score must be >= 1")
        if not 0.0 < self.close_fraction <= self.far_fraction <= 1.0:
            raise ValueError(
                "require 0 < close_fraction <= far_fraction <= 1; got "
                f"{self.close_fraction}, {self.far_fraction}"
            )
        if not 0.0 < self.mutation_intensity <= 1.0:
            raise ValueError("mutation_intensity must be in (0, 1]")


@dataclass(frozen=True)
class SGPDecision:
    """Audit record of one slave's SGP outcome."""

    slave_id: int
    action: str  # "keep" | "diversify" | "intensify" | "random"
    score_after: int
    strategy: Strategy
    dispersion: float


def classify_dispersion(dispersion: float, n_items: int, config: SGPConfig) -> str:
    """Map an elite-set dispersion to the SGP's three regeneration modes."""
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    fraction = dispersion / n_items
    if fraction < config.close_fraction:
        return "diversify"
    if fraction > config.far_fraction:
        return "intensify"
    return "random"


def regenerate_strategy(
    strategy: Strategy,
    n_elite: int,
    dispersion: float,
    bounds: StrategyBounds,
    config: SGPConfig,
    n_items: int,
    rng: np.random.Generator,
) -> tuple[str, Strategy]:
    """The regenerate step for an exhausted score: ``(action, new strategy)``.

    An elite of two or more solutions is classified by its ``dispersion``;
    a smaller one leaves only the paper's random option.  The master's SGP
    and the CTS-async peers both regenerate through here.
    """
    action = classify_dispersion(dispersion, n_items, config) if n_elite >= 2 else "random"
    if action == "diversify":
        return action, strategy.diversified(bounds, config.mutation_intensity)
    if action == "intensify":
        return action, strategy.intensified(bounds, config.mutation_intensity)
    return action, bounds.random(rng)


def update_strategies(
    entries: list[SlaveEntry],
    reports: list[SlaveReport],
    bounds: StrategyBounds,
    config: SGPConfig,
    n_items: int,
    rng: np.random.Generator,
    *,
    allow_missing: bool = False,
) -> list[SGPDecision]:
    """Score every slave and regenerate exhausted strategies; in place.

    By default ``reports`` must cover every entry (one report per slave).
    Degraded mode (``allow_missing=True``, used by the hardened master when
    slaves crash or reports are lost) scores only the slaves that actually
    reported; absent slaves keep their score and strategy untouched and are
    recorded with action ``"absent"``.
    """
    by_id = {report.slave_id: report for report in reports}
    known = {entry.slave_id for entry in entries}
    orphans = [sid for sid in by_id if sid not in known]
    if orphans:
        raise ValueError(f"misaligned report: no entry for slave id(s) {orphans}")
    if not allow_missing and len(by_id) != len(entries):
        raise ValueError(
            f"entries/reports length mismatch: {len(entries)} vs {len(reports)}"
        )
    decisions: list[SGPDecision] = []
    for entry in entries:
        report = by_id.get(entry.slave_id)
        if report is None:
            # Degraded round: the slave produced nothing to score.
            decisions.append(
                SGPDecision(entry.slave_id, "absent", entry.score, entry.strategy, 0.0)
            )
            continue
        entry.score += 1 if report.improved else -1
        dispersion = entry.dispersion()
        if entry.score > 0:
            decisions.append(
                SGPDecision(entry.slave_id, "keep", entry.score, entry.strategy, dispersion)
            )
            continue
        # Score exhausted: regenerate the strategy.
        action, new_strategy = regenerate_strategy(
            entry.strategy, len(entry.best_solutions), dispersion, bounds, config, n_items, rng
        )
        entry.strategy = new_strategy
        entry.score = config.initial_score
        entry.regenerations += 1
        decisions.append(
            SGPDecision(entry.slave_id, action, entry.score, new_strategy, dispersion)
        )
    return decisions
