"""Benchmark A10's evaluators: distributed neighborhood evaluation (§2, source 2).

The paper lists four sources of parallelism in tabu search and dismisses
the first two — cost-function and neighborhood evaluation — as "low level
approaches" whose fine granularity suits only specialized hardware
(Chakrapani & Skorin-Kapov's massively parallel QAP machine, ref. [2]).
It then builds on source 4 (parallel search threads) because coarse grain
"minimiz[es] the communication overhead".

This module implements source 2 anyway, so the claim is *measurable* in
this reproduction rather than taken on faith: a candidate-scoring kernel
that can run serially, chunked in-process (the vectorization baseline), or
fanned out over worker processes.  Benchmark A10 compares the three and
shows the process fan-out losing by orders of magnitude at MKP
neighborhood sizes — the quantitative version of the paper's §2 argument.

The scoring function is the Drop rule's: ``a_{i*, j} / c_j`` over a set of
candidate items, where ``i*`` is the most saturated constraint.  All three
evaluators are thin views over :func:`repro.core.kernels.drop_ratios` — the
same flat-array kernel the in-thread :class:`~repro.core.moves.MoveEngine`
scores through — so benchmark A10's serial/chunked/process comparison
measures transport and partitioning overhead against *identical* scoring
code, not three divergent implementations.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass

import numpy as np

from repro.core.instance import MKPInstance
from repro.core.kernels import drop_ratios
from repro.core.solution import SearchState

__all__ = [
    "score_candidates",
    "score_candidates_chunked",
    "ProcessPoolNeighborhoodEvaluator",
]


def score_candidates(
    instance: MKPInstance, i_star: int, candidates: np.ndarray
) -> np.ndarray:
    """Vectorized reference kernel: drop-rule ratios for ``candidates``."""
    candidates = np.asarray(candidates, dtype=np.intp)
    return drop_ratios(instance.weights[i_star], instance.profits, candidates)


def score_candidates_chunked(
    instance: MKPInstance,
    i_star: int,
    candidates: np.ndarray,
    n_chunks: int,
) -> np.ndarray:
    """The same kernel computed in ``n_chunks`` pieces (in-process).

    Models the partitioning a parallel evaluator would do, without any
    transport cost — the best case for fine-grain parallelism.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    candidates = np.asarray(candidates, dtype=np.intp)
    if candidates.size == 0:
        return np.empty(0)
    pieces = np.array_split(candidates, min(n_chunks, candidates.size))
    return np.concatenate(
        [score_candidates(instance, i_star, piece) for piece in pieces]
    )


def _worker_score(args: tuple) -> np.ndarray:  # pragma: no cover - subprocess
    weights_row, profits, candidates = args
    return drop_ratios(weights_row, profits, candidates)


@dataclass
class ProcessPoolNeighborhoodEvaluator:
    """Source-2 parallelism over real worker processes.

    Each ``evaluate`` call ships candidate chunks to a process pool and
    gathers the partial score vectors.  This is deliberately the naive
    design the paper warns about: per-move communication of O(neighborhood)
    data.  Use :meth:`close` (or a ``with`` block) to release the pool.
    """

    instance: MKPInstance
    n_workers: int = 2

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._pool = mp.get_context("fork").Pool(self.n_workers)

    def evaluate(self, i_star: int, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates, dtype=np.intp)
        if candidates.size == 0:
            return np.empty(0)
        chunks = np.array_split(candidates, min(self.n_workers, candidates.size))
        weights_row = self.instance.weights[i_star]
        jobs = [(weights_row, self.instance.profits, chunk) for chunk in chunks]
        return np.concatenate(self._pool.map(_worker_score, jobs))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "ProcessPoolNeighborhoodEvaluator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def drop_candidates_of(state: SearchState) -> tuple[int, np.ndarray]:
    """Convenience: the (i*, packed items) pair the Drop rule scores."""
    return state.most_saturated_constraint(), state.packed_items()

