"""Master process: per-slave data structure, ISP, SGP, Figure-2 loop."""

from .datastruct import INITIAL_SCORE, SlaveEntry
from .isp import AlphaController, ISPConfig, ISPDecision, generate_initial_solutions
from .master import VARIANTS, MasterConfig, MasterProcess
from .result import ParallelRunResult, RoundStats
from .sgp import SGPConfig, SGPDecision, classify_dispersion, update_strategies

__all__ = [
    "SlaveEntry",
    "INITIAL_SCORE",
    "ISPConfig",
    "ISPDecision",
    "AlphaController",
    "generate_initial_solutions",
    "SGPConfig",
    "SGPDecision",
    "classify_dispersion",
    "update_strategies",
    "MasterConfig",
    "MasterProcess",
    "VARIANTS",
    "ParallelRunResult",
    "RoundStats",
]
