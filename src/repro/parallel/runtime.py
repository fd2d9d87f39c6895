"""Per-slave warm search runtime: build the arena once, reset it per task.

Before this module every round rebuilt a slave's entire search runtime from
scratch — a fresh :class:`~repro.core.solution.SearchState` (a dozen
preallocated buffers plus the bitset scan workspace), a fresh
:class:`~repro.core.tabu_list.TabuList`, history and elite arrays — only to
throw it all away a few thousand evaluations later.  With the short
per-round budgets the Fig. 2 master hands out, that setup cost rivals the
search itself (the "setup-dominated regime" that layerbench's
gk10-shm-short workload tracks).

:class:`SlaveRuntime` owns one :class:`~repro.core.tabu_search.TabuSearch`
thread per slave for the life of the process.  Each task *rebinds* the
thread in place (:meth:`~repro.core.tabu_search.TabuSearch.rebind`): the RNG
is re-seeded, the tabu clock rewound, history/elite/counters zeroed and the
search state reloaded — all without reallocating a single arena buffer — so the
resulting trajectory is bit-identical to a cold construction (pinned by
``tests/test_runtime.py`` and, transitively, by every golden-trajectory
test, since every backend runs warm).

Reset contract (DESIGN.md §5.4) — what may persist across tasks:

* the instance-bound immutables: the :class:`~repro.core.instance.MKPInstance`
  itself, its shared :class:`~repro.core.bitset.HotTables`, and the
  structural :class:`~repro.core.tabu_search.TabuSearchConfig`;
* preallocated *storage* (search-state buffers, tabu expiry arrays, history
  counts, scratch vectors) — reused, never trusted for content.

Everything with per-run *content* must be cleared: RNG state, the 0/1
vector and its load/slack/value mirrors, fitting-pool and ``i*`` caches,
exclusion masks, tabu clock and expiries, history counts, elite members,
every evaluation counter, and the incumbent snapshot.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from ..core.instance import MKPInstance
from ..core.reduction import FixationPattern
from ..core.solution import Solution
from ..core.strategy import Strategy
from ..core.tabu_search import TabuSearch, TabuSearchConfig
from .message import SlaveReport, SlaveTask

__all__ = ["SlaveRuntime"]

#: Resident reduced-arena bound: each entry holds a reduced instance (with
#: its own HotTables) plus a reduced TabuSearch thread.  The SGP revisits a
#: handful of core sizes and a batched worker serves a few per-slave
#: variants, so a small LRU captures the working set.
_CORE_CACHE_ENTRIES = 8

#: Placeholder strategy used to build the arena before the first task
#: arrives (its values never influence a run: every task rebinds first).
_BOOT_STRATEGY = Strategy(lt_length=1, nb_drop=1, nb_local=1)


class SlaveRuntime:
    """One slave's reusable search runtime (arena + rebind-per-task loop).

    Constructed once per (process, slave) — eagerly, so workers pay the
    arena allocation at spawn rather than inside the first round — and then
    driven by :meth:`execute` for every task that slave serves.
    """

    def __init__(
        self,
        instance: MKPInstance,
        config: TabuSearchConfig,
        slave_id: int,
    ) -> None:
        self.instance = instance
        self.config = config
        self.slave_id = int(slave_id)
        #: tasks served since spawn (telemetry; 0 = arena never reused yet)
        self.tasks_served = 0
        #: wall seconds of the most recent :meth:`execute` (telemetry)
        self.last_execute_s = 0.0
        #: cumulative wall seconds spent inside :meth:`execute` since spawn
        self.total_execute_s = 0.0
        #: wall seconds the arena sat starved before the most recent task —
        #: the gap between one :meth:`execute` returning and the next
        #: starting.  Under the Fig. 2 barrier this gap contains the whole
        #: round-trip to the master; the pipelined mode (DESIGN.md §5.9)
        #: exists to drive it toward zero by keeping a queued task ready.
        self.last_idle_s = 0.0
        #: cumulative starvation seconds since spawn (telemetry)
        self.total_idle_s = 0.0
        self._last_done_t: float | None = None
        self._thread = TabuSearch(instance, _BOOT_STRATEGY, config=config)
        #: reduced arenas keyed by pattern signature (ISSUE-8 re-core path);
        #: values are ``(Reduction, TabuSearch)`` pairs over the reduced
        #: instance.  Rebuilt lazily after a respawn or REBIND — the pattern
        #: rides in every task, so re-coring needs no extra protocol.
        self._core_arenas: OrderedDict[bytes, tuple] = OrderedDict()
        #: reduced arenas built since spawn (cache misses; telemetry)
        self.recores = 0
        #: tasks served on a reduced arena since spawn (telemetry)
        self.core_tasks = 0

    @property
    def thread(self) -> TabuSearch:
        """The resident search thread (tests inspect its reset state)."""
        return self._thread

    def execute(self, task: SlaveTask, slave_id: int | None = None) -> SlaveReport:
        """Run one tabu-search round on the warm arena and package the report.

        Bit-identical to a fresh runtime's first :meth:`execute` of the
        same task: ``rebind`` re-seeds the RNG from ``task.seed`` and
        clears every per-run memory before the run starts.

        ``slave_id`` overrides the report's identity without rebuilding the
        runtime — how one batched worker serves a whole slave group (the
        trajectory depends only on the task contents, never on which arena
        executed it; ``tests/test_backends.py`` pins that).

        Tasks carrying a non-trivial :class:`~repro.core.reduction.FixationPattern`
        run on a *reduced* arena instead (ISSUE-8 core fixing): the initial
        solution is projected onto the core, the search scans only the free
        columns, and the report is lifted back to full space — the master
        never sees reduced coordinates.

        Every task's ``x_init`` is audited first, before either branch: on
        integer instances, where recomputation is exact, a frame whose
        claimed value disagrees with ``profits @ x`` raises ``ValueError``
        instead of silently seeding a wrong trajectory.
        """
        t0 = time.perf_counter()
        if self._last_done_t is not None:
            self.last_idle_s = t0 - self._last_done_t
            self.total_idle_s += self.last_idle_s
        x_init = task.x_init
        exact = self._thread.state.use_bitset  # integer data
        if exact and float(self.instance.profits @ x_init.x) != x_init.value:
            raise ValueError(
                f"corrupt x_init frame for slave "
                f"{self.slave_id if slave_id is None else slave_id}: claimed value "
                f"{x_init.value} disagrees with recomputation"
            )
        pattern = task.pattern
        if pattern is not None and not pattern.is_trivial:
            report = self._execute_reduced(task, pattern, slave_id)
        else:
            thread = self._thread.rebind(task.strategy, task.seed)
            result = thread.run(x_init=task.x_init, budget=task.budget)
            report = SlaveReport(
                slave_id=self.slave_id if slave_id is None else int(slave_id),
                best=result.best,
                elite=result.elite,
                initial_value=result.initial_value,
                evaluations=result.evaluations,
                moves=result.moves,
                round_index=task.round_index,
                seq_id=task.seq_id,
            )
        self.tasks_served += 1
        self._last_done_t = time.perf_counter()
        self.last_execute_s = self._last_done_t - t0
        self.total_execute_s += self.last_execute_s
        return report

    # ------------------------------------------------------------------ #
    # LP-core reduced execution (ISSUE-8)
    # ------------------------------------------------------------------ #
    def _core_arena(self, pattern: FixationPattern):
        """The ``(Reduction, TabuSearch)`` pair for a pattern (LRU-cached).

        A cache miss builds the reduced instance (pure array slicing — the
        LP behind the pattern was solved master-side) plus a warm reduced
        thread whose search state, fitting tables and batched matmuls all span
        ``n_core`` columns.  Misses count as ``recores``: a respawned or
        freshly rebound worker re-cores from the task's pattern alone.
        """
        key = pattern.signature()
        cached = self._core_arenas.get(key)
        if cached is not None:
            self._core_arenas.move_to_end(key)
            return cached
        from ..exact.preprocess import reduce_to_core  # lazy: exact layer

        reduction = reduce_to_core(self.instance, pattern)
        thread = TabuSearch(reduction.reduced, _BOOT_STRATEGY, config=self.config)
        self._core_arenas[key] = (reduction, thread)
        while len(self._core_arenas) > _CORE_CACHE_ENTRIES:
            self._core_arenas.popitem(last=False)
        self.recores += 1
        return reduction, thread

    @staticmethod
    def _project(reduction, x_init: Solution) -> Solution:
        """Project a full-space solution onto the core, repaired feasible.

        Keeps the core coordinates of ``x_init`` and drops the rest; if the
        pattern pins items to 1 that ``x_init`` left out, the reduced
        capacities may be exceeded — the repair then deterministically
        drops, from the most violated constraint, the packed item with the
        largest weight there (ties to the lowest index) until feasible.
        The all-zero vector is always feasible (capacities are clipped
        non-negative), so the loop terminates.
        """
        red = reduction.reduced
        x = x_init.x[reduction.kept_items].astype(np.int8, copy=True)
        load = red.weights.astype(np.float64) @ x
        excess = load - red.capacities
        while np.any(excess > 1e-9):
            i = int(np.argmax(excess))
            packed = np.flatnonzero(x)
            j = int(packed[np.argmax(red.weights[i, packed])])
            x[j] = 0
            load -= red.weights[:, j]
            excess = load - red.capacities
        return Solution.trusted(x, float(red.profits @ x))

    @staticmethod
    def _lift(reduction, sol: Solution) -> Solution:
        """Lift a reduced-space solution back to full-space coordinates."""
        return Solution.trusted(
            reduction.lift(sol.x), reduction.lift_value(sol.value)
        )

    def _execute_reduced(
        self, task: SlaveTask, pattern: FixationPattern, slave_id: int | None
    ) -> SlaveReport:
        """Run one round on the pattern's reduced arena and lift the report."""
        reduction, thread = self._core_arena(pattern)
        self.core_tasks += 1
        thread.rebind(task.strategy, task.seed)
        x_red = self._project(reduction, task.x_init)
        result = thread.run(x_init=x_red, budget=task.budget)
        return SlaveReport(
            slave_id=self.slave_id if slave_id is None else int(slave_id),
            best=self._lift(reduction, result.best),
            elite=[self._lift(reduction, s) for s in result.elite],
            initial_value=reduction.lift_value(result.initial_value),
            evaluations=result.evaluations,
            moves=result.moves,
            round_index=task.round_index,
            seq_id=task.seq_id,
        )
