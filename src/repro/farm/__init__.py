"""Deterministic model of the paper's 16-Alpha PVM farm (DESIGN.md §3).

Converts algorithmic work (candidate evaluations) and message traffic into
virtual seconds, so that "for a fixed execution time" experiments replay
bit-for-bit on any host.  A sync master run keeps only the facts the farm
charges; :func:`project` turns them into virtual times when they are read.
"""

from .machine import ALPHA_FARM, CrossbarModel, FarmModel, ProcessorModel
from .projection import project
from .trace import EventKind, FarmEvent, FarmTrace

__all__ = [
    "FarmModel",
    "ProcessorModel",
    "CrossbarModel",
    "ALPHA_FARM",
    "FarmTrace",
    "FarmEvent",
    "EventKind",
    "project",
]
