"""CTS-async — the paper's announced future work, implemented.

§6: "In future work, we project to replace the centralized synchronous
communication scheme (master slave model) by a decentralized asynchronous
communication scheme."

Design (discrete-event simulation on the farm's virtual clocks):

* ``P`` peer threads, no master.  Each runs tabu-search *segments* of a
  fixed evaluation budget; between segments it communicates — at moments
  "determined by the internal state of the thread" (§2's definition of
  asynchronous), here: whenever its own segment ends, with no barrier.
* A shared *blackboard* holds every thread's published best solution,
  stamped with its publication virtual time.  A reading thread only sees
  entries published **at or before its own clock** — information propagates
  with the same delay pattern a real asynchronous message fabric exhibits.
* Cooperation rules mirror the synchronous ISP/SGP, but decentralized:
  a thread adopts the visible global best when its own best falls below
  ``alpha`` × that value, restarts randomly when stagnant, and self-scores
  (±1 per segment) to retune its own strategy at score 0.
* The event loop always advances the thread with the *smallest* clock, so
  the interleaving is exactly time-ordered and deterministic.

No barrier means no barrier idle time: experiment A6 compares the idle
ratios and solution quality of CTS2 versus CTS-async.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field


from ..core.construction import random_solution
from ..core.instance import MKPInstance
from ..core.solution import Solution, mean_pairwise_distance
from ..core.strategy import StrategyBounds
from ..core.tabu_search import TabuSearch, TabuSearchConfig
from ..core.termination import Budget
from ..farm.machine import ALPHA_FARM, FarmModel
from ..farm.trace import EventKind, FarmTrace
from ..master.result import ParallelRunResult, RoundStats
from ..master.sgp import SGPConfig, classify_dispersion
from ..parallel.faults import FaultPlan
from ..parallel.shm import WireCodec
from ..rng import derive_rng, random_seed_from

__all__ = ["AsyncConfig", "solve_cts_async"]


@dataclass(frozen=True)
class AsyncConfig:
    """Tunables of the decentralized asynchronous scheme."""

    n_threads: int = 16
    #: evaluations per search segment (between communication points)
    segment_evaluations: int = 20_000
    alpha: float = 0.98
    stagnation_segments: int = 3
    initial_score: int = 4
    sgp: SGPConfig = field(default_factory=SGPConfig)
    bounds: StrategyBounds = field(default_factory=StrategyBounds)
    ts_config: TabuSearchConfig | None = None

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.segment_evaluations < 1:
            raise ValueError("segment_evaluations must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.stagnation_segments < 1:
            raise ValueError("stagnation_segments must be >= 1")
        if self.initial_score < 1:
            raise ValueError("initial_score must be >= 1")


@dataclass
class _Peer:
    """State of one asynchronous search thread."""

    peer_id: int
    strategy: object
    current: Solution
    clock: float = 0.0
    score: int = 4
    stagnant: int = 0
    best: Solution | None = None
    elite: list[Solution] = field(default_factory=list)
    evaluations: int = 0
    segments: int = 0


@dataclass(frozen=True)
class _Posting:
    """A blackboard entry: who published what, when."""

    t: float
    peer_id: int
    solution: Solution


def solve_cts_async(
    instance: MKPInstance,
    *,
    n_threads: int = 16,
    rng_seed: int = 0,
    max_evaluations: int | None = None,
    virtual_seconds: float | None = None,
    farm: FarmModel = ALPHA_FARM,
    config: AsyncConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> ParallelRunResult:
    """Run the decentralized asynchronous cooperative TS.

    ``max_evaluations`` / ``virtual_seconds`` budget each peer, exactly as
    for the synchronous variants (one peer per simulated processor).

    ``fault_plan`` (addressed by ``(segment_index, peer_id)``) injects peer
    crashes (the peer is never scheduled again), dropped publications (the
    segment's best never reaches the blackboard), and straggler slowdowns
    (the segment costs ``factor``× the virtual compute time).  The
    surviving peers keep cooperating and the global best stays monotone —
    the asynchronous scheme's natural degraded mode.
    """
    if config is None:
        config = AsyncConfig(n_threads=n_threads)
    elif config.n_threads != n_threads:
        raise ValueError("n_threads argument conflicts with config.n_threads")
    if (max_evaluations is None) == (virtual_seconds is None):
        raise ValueError("specify exactly one of max_evaluations / virtual_seconds")
    if max_evaluations is None:
        max_evaluations = farm.processor.evaluations_for_seconds(
            float(virtual_seconds), instance.n_constraints
        )
    if max_evaluations < 1:
        raise ValueError("per-peer budget must be >= 1 evaluation")

    t_wall0 = time.perf_counter()
    plan = fault_plan or FaultPlan.none()
    ts_config = config.ts_config or TabuSearchConfig(nb_div=1_000_000)
    trace = FarmTrace()
    rng = derive_rng(rng_seed, 0)

    peers: list[_Peer] = []
    for k in range(config.n_threads):
        peers.append(
            _Peer(
                peer_id=k,
                strategy=config.bounds.random(rng),
                current=random_solution(instance, derive_rng(rng_seed, 0, k)),
                score=config.initial_score,
            )
        )

    blackboard: list[_Posting] = []
    global_best: Solution = max((p.current for p in peers), key=lambda s: s.value)
    value_history: list[float] = [global_best.value]
    total_evaluations = 0
    bytes_sent = 0
    #: one publication is one solution frame on the wire
    publication_nbytes = WireCodec(instance.n_items).solution_nbytes
    segment_counter = 0
    rounds: list[RoundStats] = []

    # Event queue keyed by (clock, peer_id): always run the earliest peer.
    heap: list[tuple[float, int]] = [(p.clock, p.peer_id) for p in peers]
    heapq.heapify(heap)

    def visible_best(at_time: float) -> Solution | None:
        """Best blackboard entry published at or before ``at_time``."""
        best: Solution | None = None
        for posting in blackboard:
            if posting.t <= at_time and (best is None or posting.solution.value > best.value):
                best = posting.solution
        return best

    dead_peers: set[int] = set()
    dropped_publications = 0

    while heap:
        _, pid = heapq.heappop(heap)
        peer = peers[pid]
        remaining = max_evaluations - peer.evaluations
        if remaining <= 0:
            continue
        if plan.crashes(peer.segments, pid):
            # The peer's host dies at this communication point; it is never
            # rescheduled.  No barrier exists, so nobody waits for it — the
            # survivors simply stop seeing its publications.
            dead_peers.add(pid)
            continue

        # --- run one search segment ------------------------------------
        seg_budget = Budget(
            max_evaluations=min(config.segment_evaluations, remaining)
        )
        seed = random_seed_from(derive_rng(rng_seed, 1 + peer.segments, pid))
        thread = TabuSearch(instance, peer.strategy, config=ts_config, rng=seed)
        result = thread.run(x_init=peer.current, budget=seg_budget)
        dt = farm.compute_seconds_on(pid, result.evaluations, instance.n_constraints)
        dt *= plan.straggle_factor(peer.segments, pid)
        t0 = peer.clock
        peer.clock += dt
        trace.record(pid, EventKind.COMPUTE, t0, peer.clock, f"segment-{peer.segments}")
        peer.evaluations += result.evaluations
        peer.segments += 1
        total_evaluations += result.evaluations
        segment_counter += 1

        # --- fold segment results ---------------------------------------
        seg_best = result.best
        improved = peer.best is None or seg_best.value > peer.best.value
        if improved:
            peer.best = seg_best
            peer.stagnant = 0
        else:
            peer.stagnant += 1
        seen = {s.x.tobytes() for s in peer.elite}
        for sol in [result.best, *result.elite]:
            if sol.x.tobytes() not in seen:
                peer.elite.append(sol)
                seen.add(sol.x.tobytes())
        peer.elite.sort(key=lambda s: -s.value)
        del peer.elite[8:]

        # --- publish to the blackboard (asynchronous send) --------------
        # A dropped publication is lost in flight: the peer still pays the
        # send time, but no other peer (nor the blackboard) ever sees it.
        # The peer's own incumbent and the returned global best still count
        # it — local knowledge survives message loss.
        published = not plan.drops_report(peer.segments - 1, pid)
        send_dt = farm.transfer_seconds(publication_nbytes)
        trace.record(pid, EventKind.SEND, peer.clock, peer.clock + send_dt, "publish")
        peer.clock += send_dt
        if published:
            bytes_sent += publication_nbytes
            blackboard.append(_Posting(peer.clock, pid, seg_best))
        else:
            dropped_publications += 1
        if seg_best.value > global_best.value:
            global_best = seg_best
        value_history.append(global_best.value)

        # --- decentralized cooperation rules -----------------------------
        peer.score += 1 if result.improved else -1
        sgp_action = "keep"
        if peer.score <= 0:
            dispersion = mean_pairwise_distance(peer.elite)
            if len(peer.elite) >= 2:
                sgp_action = classify_dispersion(
                    dispersion, instance.n_items, config.sgp
                )
            else:
                sgp_action = "random"
            if sgp_action == "diversify":
                peer.strategy = peer.strategy.diversified(config.bounds)
            elif sgp_action == "intensify":
                peer.strategy = peer.strategy.intensified(config.bounds)
            else:
                peer.strategy = config.bounds.random(rng)
            peer.score = config.initial_score

        # Decentralized ISP: restart / adopt-from-blackboard / keep.
        if peer.stagnant >= config.stagnation_segments:
            peer.current = random_solution(instance, derive_rng(rng_seed, 2, pid, peer.segments))
            peer.stagnant = 0
            isp_rule = "restart"
        else:
            assert peer.best is not None
            peer.current = peer.best
            isp_rule = "keep"
            pool = visible_best(peer.clock)
            if pool is not None and peer.best.value < config.alpha * pool.value:
                peer.current = pool
                isp_rule = "pool"

        rounds.append(
            RoundStats(
                round_index=segment_counter - 1,
                best_value=global_best.value,
                round_virtual_seconds=dt + send_dt,
                slave_virtual_seconds={pid: dt},
                communication_seconds=send_dt,
                evaluations=result.evaluations,
                improved_slaves=int(improved),
                isp_rules={isp_rule: 1},
                sgp_actions={sgp_action: 1},
            )
        )
        if peer.evaluations < max_evaluations:
            heapq.heappush(heap, (peer.clock, pid))

    fault_summary: dict[str, int] = {}
    if dead_peers:
        fault_summary["crashed_peers"] = len(dead_peers)
    if dropped_publications:
        fault_summary["dropped_publications"] = dropped_publications
    return ParallelRunResult(
        variant="CTS-async",
        best=global_best,
        rounds=rounds,
        total_evaluations=total_evaluations,
        virtual_seconds=max((p.clock for p in peers), default=0.0),
        wall_seconds=time.perf_counter() - t_wall0,
        n_slaves=config.n_threads,
        trace=trace,
        bytes_sent=bytes_sent,
        value_history=value_history,
        fault_summary=fault_summary,
    )
