"""Core sequential tabu search for the 0–1 MKP (the paper's Figure 1).

Public surface:

* :class:`~repro.core.instance.MKPInstance` — the problem.
* :class:`~repro.core.solution.Solution` / :class:`~repro.core.solution.SearchState`
  — immutable snapshots and the incremental working state.
* :class:`~repro.core.strategy.Strategy` / :class:`~repro.core.strategy.StrategyBounds`
  — the parameter sets the master retunes.
* :class:`~repro.core.tabu_search.TabuSearch` — one search thread.
"""

from .construction import fill_greedily, greedy_solution, random_solution, repair
from .diversification import DiversificationConfig, diversify
from .instance import MKPInstance
from .kernels import KernelCounters, drop_ratios
from .intensification import strategic_oscillation
from .memory import EliteArray, History
from .moves import MoveEngine, MoveRecord
from .solution import (
    SearchState,
    Solution,
    hamming_distance,
    mean_pairwise_distance,
)
from .strategy import Strategy, StrategyBounds
from .tabu_list import TabuList
from .tabu_search import (
    IntensificationKind,
    TabuSearch,
    TabuSearchConfig,
    TSResult,
)
from .termination import Budget, CancelToken

__all__ = [
    "MKPInstance",
    "KernelCounters",
    "drop_ratios",
    "Solution",
    "SearchState",
    "hamming_distance",
    "mean_pairwise_distance",
    "greedy_solution",
    "random_solution",
    "repair",
    "fill_greedily",
    "TabuList",
    "History",
    "EliteArray",
    "MoveEngine",
    "MoveRecord",
    "Strategy",
    "StrategyBounds",
    "DiversificationConfig",
    "diversify",
    "strategic_oscillation",
    "IntensificationKind",
    "TabuSearch",
    "TabuSearchConfig",
    "TSResult",
    "Budget",
    "CancelToken",
]
