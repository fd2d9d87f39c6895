"""Search *strategies*: the parameter sets the master tunes dynamically.

§4.2: "a strategy is characterized by three parameters: the Tabu list size
(Lt_length), the maximum number of consecutive drops (Nb_drop), [and] the
number of iterations in local search before starting an intensification
(Nb_local)."  Each slave additionally receives an iteration budget ``Nb_it``
chosen *inversely proportional to Nb_drop* so that slaves with heavier moves
run fewer of them and all reach the synchronization barrier at roughly the
same time (§4.2, load-balancing remark).

:class:`StrategyBounds` encodes the admissible ranges; :class:`Strategy`
provides random generation plus the two directed mutations the SGP applies:

* :meth:`Strategy.diversified` — raise ``Lt_length`` and ``Nb_drop``, cut the
  local budget (used when a slave's elite solutions are clustered);
* :meth:`Strategy.intensified` — the reverse (elite solutions dispersed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Strategy", "StrategyBounds"]


@dataclass(frozen=True)
class StrategyBounds:
    """Inclusive admissible ranges for each strategy parameter."""

    lt_length: tuple[int, int] = (5, 50)
    nb_drop: tuple[int, int] = (1, 8)
    nb_local: tuple[int, int] = (10, 100)
    #: admissible LP-core fraction (ISSUE-8): the share of variables a
    #: slave's search leaves *free* (the rest are pinned to their
    #: LP-rounded values; see :mod:`repro.core.reduction`).  The default is
    #: the degenerate ``(1.0, 1.0)`` — full-space search, no extra RNG
    #: draw, bit-identical to the pre-core-fixing trajectories.
    core_ratio: tuple[float, float] = (1.0, 1.0)
    #: total drop budget used to derive ``nb_it = base_iterations / nb_drop``
    base_iterations: int = 600
    #: apply the §4.2 load-balancing rule ``Nb_it ∝ 1/Nb_drop``.  When
    #: False every strategy receives the same ``Nb_it`` regardless of its
    #: move weight, so heavy-drop slaves do more work per round — the
    #: unbalanced baseline of experiment A8.
    load_balanced: bool = True

    def __post_init__(self) -> None:
        for name in ("lt_length", "nb_drop", "nb_local"):
            lo, hi = getattr(self, name)
            if lo < (1 if name != "lt_length" else 0) or hi < lo:
                raise ValueError(f"invalid bounds for {name}: ({lo}, {hi})")
        if self.base_iterations < 1:
            raise ValueError("base_iterations must be >= 1")
        lo, hi = self.core_ratio
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"invalid bounds for core_ratio: ({lo}, {hi})")

    def clip(self, strategy: "Strategy") -> "Strategy":
        """Project a strategy onto the admissible box."""
        return Strategy(
            lt_length=int(np.clip(strategy.lt_length, *self.lt_length)),
            nb_drop=int(np.clip(strategy.nb_drop, *self.nb_drop)),
            nb_local=int(np.clip(strategy.nb_local, *self.nb_local)),
            core_ratio=float(np.clip(strategy.core_ratio, *self.core_ratio)),
        )

    def random(self, rng: np.random.Generator) -> "Strategy":
        """Uniform random strategy within the bounds (SGP fallback: 'these
        new values may be chosen randomly')."""
        lo, hi = self.core_ratio
        # Degenerate core bounds (the default) draw nothing: the RNG stream
        # — and therefore every pinned golden trajectory — is unchanged
        # unless a run explicitly opts into adaptive core sizing.
        core = lo if lo == hi else float(rng.uniform(lo, hi))
        return Strategy(
            lt_length=int(rng.integers(self.lt_length[0], self.lt_length[1] + 1)),
            nb_drop=int(rng.integers(self.nb_drop[0], self.nb_drop[1] + 1)),
            nb_local=int(rng.integers(self.nb_local[0], self.nb_local[1] + 1)),
            core_ratio=core,
        )

    def nb_it(self, strategy: "Strategy") -> int:
        """Iteration budget ``Nb_it`` ∝ 1/``Nb_drop`` (load balancing).

        "one way to balance the execution times of the different slave
        processors is to give a value to Nb_it which is proportional to
        Nb_drop conversely" (§4.2).

        With ``load_balanced=False`` the budget is divided by the *mean*
        ``Nb_drop`` of the admissible range instead, so every strategy gets
        the same iteration count and per-round work varies with its move
        weight (the unbalanced baseline of experiment A8).
        """
        if self.load_balanced:
            return max(1, self.base_iterations // max(1, strategy.nb_drop))
        mean_drop = max(1, (self.nb_drop[0] + self.nb_drop[1]) // 2)
        return max(1, self.base_iterations // mean_drop)


@dataclass(frozen=True)
class Strategy:
    """One slave's search parameter set ``St_k`` (three values, §4.2)."""

    lt_length: int
    nb_drop: int
    nb_local: int
    #: fraction of variables the slave's search leaves free (ISSUE-8 core
    #: sizing knob); 1.0 = full-space search, the historical behaviour
    core_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.lt_length < 0:
            raise ValueError(f"lt_length must be >= 0; got {self.lt_length}")
        if self.nb_drop < 1:
            raise ValueError(f"nb_drop must be >= 1; got {self.nb_drop}")
        if self.nb_local < 1:
            raise ValueError(f"nb_local must be >= 1; got {self.nb_local}")
        if not 0.0 < self.core_ratio <= 1.0:
            raise ValueError(f"core_ratio must be in (0, 1]; got {self.core_ratio}")

    # ------------------------------------------------------------------ #
    # Directed mutations used by the SGP
    # ------------------------------------------------------------------ #
    def diversified(self, bounds: StrategyBounds, intensity: float = 0.5) -> "Strategy":
        """Push the strategy toward exploration.

        "it is interesting to increment lt_size and nb_drop and to reduce
        the nb_it parameter" (§4.2).  ``intensity`` in (0, 1] scales the
        step as a fraction of the remaining headroom in each range.
        """
        if not 0 < intensity <= 1:
            raise ValueError("intensity must be in (0, 1]")
        lt_step = max(1, round((bounds.lt_length[1] - self.lt_length) * intensity))
        drop_step = max(1, round((bounds.nb_drop[1] - self.nb_drop) * intensity))
        local_step = max(1, round((self.nb_local - bounds.nb_local[0]) * intensity))
        # Clustered elites ⇒ widen the core toward the upper bound: freeing
        # more variables is the reduction layer's diversification move
        # (degenerate default bounds leave the ratio pinned at 1.0).
        core_step = (bounds.core_ratio[1] - self.core_ratio) * intensity
        return Strategy(
            lt_length=int(np.clip(self.lt_length + lt_step, *bounds.lt_length)),
            nb_drop=int(np.clip(self.nb_drop + drop_step, *bounds.nb_drop)),
            nb_local=int(np.clip(self.nb_local - local_step, *bounds.nb_local)),
            core_ratio=float(
                np.clip(self.core_ratio + max(core_step, 0.0), *bounds.core_ratio)
            ),
        )

    def intensified(self, bounds: StrategyBounds, intensity: float = 0.5) -> "Strategy":
        """Push the strategy toward exploitation (the reverse mutation).

        "reducing the values of the lt_size and nb_drop parameters and
        incrementing the value of nb_it" (§4.2).
        """
        if not 0 < intensity <= 1:
            raise ValueError("intensity must be in (0, 1]")
        lt_step = max(1, round((self.lt_length - bounds.lt_length[0]) * intensity))
        drop_step = max(1, round((self.nb_drop - bounds.nb_drop[0]) * intensity))
        local_step = max(1, round((bounds.nb_local[1] - self.nb_local) * intensity))
        # Dispersed elites ⇒ narrow the core toward the lower bound: fewer
        # free variables concentrates the search on the LP-ambiguous set.
        core_step = (self.core_ratio - bounds.core_ratio[0]) * intensity
        return Strategy(
            lt_length=int(np.clip(self.lt_length - lt_step, *bounds.lt_length)),
            nb_drop=int(np.clip(self.nb_drop - drop_step, *bounds.nb_drop)),
            nb_local=int(np.clip(self.nb_local + local_step, *bounds.nb_local)),
            core_ratio=float(
                np.clip(self.core_ratio - max(core_step, 0.0), *bounds.core_ratio)
            ),
        )

    def as_tuple(self) -> tuple[int, int, int]:
        """``(Lt_length, Nb_drop, Nb_local)`` — "three values" per §4.2."""
        return (self.lt_length, self.nb_drop, self.nb_local)
