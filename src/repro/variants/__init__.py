"""The four evaluated approaches (Table 2) plus the future-work extension."""

from ..master.result import ParallelRunResult, RoundStats
from .cts_async import AsyncConfig, solve_cts_async
from .decomposition import partition_items, solve_decomposition
from .runner import (
    budget_for_virtual_seconds,
    solve_cts1,
    solve_cts2,
    solve_its,
    solve_master,
    solve_seq,
)

__all__ = [
    "ParallelRunResult",
    "RoundStats",
    "solve_seq",
    "solve_master",
    "solve_its",
    "solve_cts1",
    "solve_cts2",
    "solve_cts_async",
    "AsyncConfig",
    "solve_decomposition",
    "partition_items",
    "budget_for_virtual_seconds",
]
