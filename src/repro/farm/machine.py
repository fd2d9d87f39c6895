"""Machine model of the paper's parallel testbed.

§5: "The parallel architecture used during tests is the Farm of 16 Alpha
processors.  These processors have a pick performance of 500 MIPS and are
connected by a high speed optic fiber crossbar (16X16 links of 200Mb/sec
each).  Communication between processors are realized by using the PVM
library."

We do not have that hardware (DESIGN.md §3), so this module provides the
calibrated cost model that converts *algorithmic work* (candidate
evaluations, message bytes) into deterministic **virtual seconds**:

* a candidate evaluation of an ``m``-constraint instance costs
  ``EVAL_BASE_OPS + EVAL_OPS_PER_CONSTRAINT · m`` machine operations
  (one slack comparison per constraint plus fixed move-bookkeeping);
* a processor retires ``mips · 10^6`` operations per second;
* a message of ``B`` bytes on a crossbar link takes
  ``latency + 8·B / bandwidth_bps`` seconds; the 16×16 crossbar is
  non-blocking, so simultaneous transfers to distinct destinations do not
  queue.

Absolute constants only set the time *scale*; every comparison the
benchmarks make (who wins at equal time, load-balance ratios, speedups) is
invariant to them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProcessorModel", "CrossbarModel", "FarmModel", "ALPHA_FARM"]

#: Operations charged per candidate evaluation, independent of m.
EVAL_BASE_OPS = 200.0
#: Additional operations per constraint per candidate evaluation.
EVAL_OPS_PER_CONSTRAINT = 50.0


@dataclass(frozen=True)
class ProcessorModel:
    """One compute node (default: a 500 MIPS DEC Alpha)."""

    mips: float = 500.0

    def __post_init__(self) -> None:
        if self.mips <= 0:
            raise ValueError(f"mips must be positive; got {self.mips}")

    @property
    def ops_per_second(self) -> float:
        return self.mips * 1e6

    def compute_seconds(self, evaluations: int, n_constraints: int) -> float:
        """Virtual seconds to perform ``evaluations`` candidate evaluations."""
        if evaluations < 0:
            raise ValueError("evaluations must be >= 0")
        ops = evaluations * (EVAL_BASE_OPS + EVAL_OPS_PER_CONSTRAINT * n_constraints)
        return ops / self.ops_per_second

    def evaluations_for_seconds(self, seconds: float, n_constraints: int) -> int:
        """Inverse of :meth:`compute_seconds` (budget sizing helper)."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        per_eval = EVAL_BASE_OPS + EVAL_OPS_PER_CONSTRAINT * n_constraints
        return int(seconds * self.ops_per_second / per_eval)


@dataclass(frozen=True)
class CrossbarModel:
    """The 16×16 optic-fiber crossbar (200 Mb/s per link, non-blocking)."""

    link_bandwidth_mbps: float = 200.0
    latency_seconds: float = 50e-6
    #: fixed per-message protocol overhead in bytes (PVM packing headers)
    overhead_bytes: int = 64

    def __post_init__(self) -> None:
        if self.link_bandwidth_mbps <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency_seconds < 0:
            raise ValueError("latency must be >= 0")
        if self.overhead_bytes < 0:
            raise ValueError("overhead_bytes must be >= 0")

    def transfer_seconds(self, payload_bytes: int) -> float:
        """Time for one point-to-point message of ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        bits = 8 * (payload_bytes + self.overhead_bytes)
        return self.latency_seconds + bits / (self.link_bandwidth_mbps * 1e6)


@dataclass(frozen=True)
class FarmModel:
    """A farm of ``n_processors`` nodes on one crossbar.

    Homogeneous by default (the paper's testbed).  ``speed_factors`` makes
    the farm heterogeneous: processor ``k`` runs at
    ``speed_factors[k] × processor.mips`` — the substrate for the A12
    experiment (how the §4.2 load-balancing rule degrades when node speeds,
    which the rule cannot see, differ).
    """

    n_processors: int = 16
    processor: ProcessorModel = ProcessorModel()
    network: CrossbarModel = CrossbarModel()
    speed_factors: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        if self.speed_factors is not None:
            if len(self.speed_factors) < self.n_processors:
                raise ValueError(
                    f"need >= {self.n_processors} speed factors; "
                    f"got {len(self.speed_factors)}"
                )
            if any(f <= 0 for f in self.speed_factors):
                raise ValueError("speed factors must be positive")

    def compute_seconds(self, evaluations: int, n_constraints: int) -> float:
        """Compute time on a reference (factor-1.0) processor."""
        return self.processor.compute_seconds(evaluations, n_constraints)

    def compute_seconds_on(
        self, proc: int, evaluations: int, n_constraints: int
    ) -> float:
        """Compute time on processor ``proc`` (honours ``speed_factors``)."""
        base = self.processor.compute_seconds(evaluations, n_constraints)
        if self.speed_factors is None:
            return base
        return base / self.speed_factors[proc]

    def transfer_seconds(self, payload_bytes: int) -> float:
        return self.network.transfer_seconds(payload_bytes)


#: The paper's testbed.
ALPHA_FARM = FarmModel()
