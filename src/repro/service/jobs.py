"""Asyncio job manager: many concurrent solve jobs over one warm pool.

The inverse of the blocking ``solve_cts2`` call: :class:`JobManager`
accepts any number of concurrent solve requests and multiplexes them onto
a :class:`~repro.service.pool.SolverPool` of long-lived backends, with

``submit``
    admission (optionally bounded by ``max_pending`` — backpressure rather
    than unbounded queueing), instance canonicalization through the
    :class:`~repro.service.cache.InstanceCache`, and an asyncio task per job;
``status``
    a cheap snapshot (state, rounds completed, incumbent so far) fed by the
    run's live event stream, not by polling files;
``stream``
    an async iterator of the job's observability events — the
    :class:`~repro.obs.recorder.RunRecorder` subscriber fan-out pushes each
    record onto the loop via ``call_soon_threadsafe`` as the master emits
    it, so consumers see round events the moment they happen;
``cancel``
    cooperative cancellation: a queued job aborts its lease wait
    immediately, a running job's :class:`~repro.core.termination.CancelToken`
    is observed by the master at the next round boundary (sub-second for
    service-sized rounds), and either way the leased backend comes back
    warm and immediately reusable.

The blocking solve itself runs in a worker thread
(``loop.run_in_executor``); everything else — leasing, snapshots, stream
fan-out — stays on the event loop.  A job's trajectory is bit-identical to
the same seed/config solved through the direct blocking API
(``tests/test_service.py`` pins this for both backend kinds): the service
changes *who owns the backend*, never what the search does.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from ..core.instance import MKPInstance
from ..core.termination import CancelToken
from ..master.master import VARIANTS
from ..master.result import ParallelRunResult
from ..obs.clock import monotonic_s
from ..obs.recorder import RunRecorder
from ..variants.runner import solve_master
from .cache import InstanceCache
from .pool import LeaseCancelled, SolverPool

__all__ = ["JobManager", "JobRequest", "JobState", "JobStatus"]

#: Sentinel closing a stream queue (events themselves are always dicts).
_STREAM_END = None


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.CANCELLED, JobState.FAILED)


@dataclass(frozen=True)
class JobRequest:
    """One solve request, mirroring the direct ``solve_*`` contract.

    ``n_slaves`` is fixed by the pool, not the request; exactly one of
    ``max_evaluations``/``virtual_seconds`` applies (both ``None`` defaults
    to a 1.0 virtual-second budget, like the CLI).
    """

    instance: MKPInstance
    variant: str = "cts2"
    n_rounds: int = 8
    rng_seed: int = 0
    max_evaluations: int | None = None
    virtual_seconds: float | None = None
    target_value: float | None = None
    #: master execution mode passed through to the solver: ``"sync"`` (the
    #: barrier loop) or ``"async"`` (bounded-staleness pipelining,
    #: DESIGN.md §5.9).  Cancellation of an async job takes effect at the
    #: next burst boundary and still returns the leased backend clean.
    pipeline: str = "sync"

    def __post_init__(self) -> None:
        names = sorted(v.lower() for v in VARIANTS)
        if self.variant not in names:
            raise ValueError(
                f"unknown variant {self.variant!r}; service variants are "
                f"{names} (seq/async need no farm of slaves)"
            )
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.max_evaluations is not None and self.virtual_seconds is not None:
            raise ValueError("give at most one of max_evaluations/virtual_seconds")
        if self.pipeline not in ("sync", "async"):
            raise ValueError(
                f"pipeline must be 'sync' or 'async'; got {self.pipeline!r}"
            )

    def budget_kwargs(self) -> dict[str, object]:
        if self.max_evaluations is not None:
            return {"max_evaluations": self.max_evaluations}
        return {"virtual_seconds": self.virtual_seconds or 1.0}


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time public snapshot of a job."""

    job_id: str
    state: JobState
    variant: str
    instance: str
    n_rounds: int
    rounds_completed: int
    best_value: float | None
    submitted_s: float
    started_s: float | None
    finished_s: float | None
    cancel_requested: bool
    error: str | None

    def to_dict(self) -> dict:
        data = dict(self.__dict__)
        data["state"] = self.state.value
        return data


@dataclass
class _Job:
    """Internal mutable job record (snapshots go out as :class:`JobStatus`)."""

    job_id: str
    request: JobRequest
    canonical: MKPInstance
    state: JobState = JobState.QUEUED
    token: CancelToken = field(default_factory=CancelToken)
    #: set alongside ``token`` so a queued job's lease wait can be aborted
    cancel_event: asyncio.Event = field(default_factory=asyncio.Event)
    events: list[dict] = field(default_factory=list)
    streams: list[asyncio.Queue] = field(default_factory=list)
    result: ParallelRunResult | None = None
    error: str | None = None
    rounds_completed: int = 0
    best_value: float | None = None
    submitted_s: float = field(default_factory=monotonic_s)
    started_s: float | None = None
    finished_s: float | None = None
    task: "asyncio.Task | None" = None
    done: asyncio.Event = field(default_factory=asyncio.Event)


class JobManager:
    """Submit / status / stream / cancel over a shared warm backend pool."""

    def __init__(
        self,
        pool: SolverPool,
        *,
        cache: InstanceCache | None = None,
        max_pending: int | None = None,
    ) -> None:
        self.pool = pool
        self.cache = cache if cache is not None else InstanceCache()
        self.max_pending = max_pending
        self._jobs: dict[str, _Job] = {}
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submit
    # ------------------------------------------------------------------ #
    def submit(self, request: JobRequest) -> str:
        """Admit one job; returns its id immediately (the job runs async).

        Raises ``RuntimeError`` when the manager is closed or the pending
        backlog is at ``max_pending`` (the caller's backpressure signal).
        """
        if self._closed:
            raise RuntimeError("job manager is closed")
        if self.max_pending is not None:
            backlog = sum(1 for j in self._jobs.values() if not j.state.finished)
            if backlog >= self.max_pending:
                raise RuntimeError(
                    f"backlog at max_pending={self.max_pending}; retry later"
                )
        job = _Job(
            job_id=f"job-{next(self._ids):06d}",
            request=request,
            canonical=self.cache.canonical(request.instance),
        )
        self._jobs[job.job_id] = job
        job.task = asyncio.get_running_loop().create_task(self._run(job))
        return job.job_id

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _get(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> JobStatus:
        job = self._get(job_id)
        return JobStatus(
            job_id=job.job_id,
            state=job.state,
            variant=job.request.variant,
            instance=str(getattr(job.canonical, "name", "") or ""),
            n_rounds=job.request.n_rounds,
            rounds_completed=job.rounds_completed,
            best_value=job.best_value,
            submitted_s=job.submitted_s,
            started_s=job.started_s,
            finished_s=job.finished_s,
            cancel_requested=job.token.cancelled,
            error=job.error,
        )

    def job_ids(self) -> list[str]:
        return list(self._jobs)

    def result(self, job_id: str) -> ParallelRunResult | None:
        """The finished job's result (partial rounds for a cancelled job)."""
        return self._get(job_id).result

    async def wait(self, job_id: str) -> JobStatus:
        """Block until the job reaches a terminal state; returns the status."""
        job = self._get(job_id)
        await job.done.wait()
        return self.status(job_id)

    # ------------------------------------------------------------------ #
    # Stream
    # ------------------------------------------------------------------ #
    async def stream(self, job_id: str):
        """Async-iterate the job's observability events, live.

        Events already emitted are replayed first (registration and replay
        happen atomically on the loop, so nothing is missed or duplicated);
        the iterator ends when the job reaches a terminal state.
        """
        job = self._get(job_id)
        queue: asyncio.Queue = asyncio.Queue()
        for event in job.events:
            queue.put_nowait(event)
        if job.state.finished:
            queue.put_nowait(_STREAM_END)
        else:
            job.streams.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is _STREAM_END:
                    return
                yield event
        finally:
            if queue in job.streams:
                job.streams.remove(queue)

    # ------------------------------------------------------------------ #
    # Cancel
    # ------------------------------------------------------------------ #
    async def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False if the job already finished.

        Queued jobs abandon their lease wait immediately; running jobs stop
        at the next round boundary (the master's cooperative check).
        """
        job = self._get(job_id)
        if job.state.finished:
            return False
        job.token.cancel()
        job.cancel_event.set()
        await self.pool.kick()
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def close(self, *, cancel_running: bool = True) -> None:
        """Cancel outstanding jobs, wait for them, shut the pool down."""
        self._closed = True
        if cancel_running:
            for job_id, job in list(self._jobs.items()):
                if not job.state.finished:
                    await self.cancel(job_id)
        for job in list(self._jobs.values()):
            if job.task is not None:
                await job.done.wait()
        # Backend shutdown can block (worker joins); keep the loop live.
        await asyncio.get_running_loop().run_in_executor(None, self.pool.shutdown)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _dispatch(self, job: _Job, record: dict) -> None:
        """Fold one recorder event into the job snapshot and its streams.

        Runs on the event loop (scheduled via ``call_soon_threadsafe`` from
        the solver thread), so snapshot updates and stream registration
        never race.
        """
        job.events.append(record)
        if record.get("event") == "round_end":
            job.rounds_completed = int(record["round_index"]) + 1
            job.best_value = float(record["best_value"])
        for queue in job.streams:
            queue.put_nowait(record)

    def _finish(self, job: _Job, state: JobState) -> None:
        job.state = state
        job.finished_s = monotonic_s()
        for queue in job.streams:
            queue.put_nowait(_STREAM_END)
        job.streams.clear()
        job.done.set()

    async def _run(self, job: _Job) -> None:
        request = job.request
        instance_hash = job.canonical.content_hash()
        try:
            lease = await self.pool.acquire(
                instance_hash, cancelled=job.cancel_event
            )
        except LeaseCancelled:
            self._finish(job, JobState.CANCELLED)
            return
        except Exception as exc:  # pool shut down under us
            job.error = str(exc)
            self._finish(job, JobState.FAILED)
            return
        loop = asyncio.get_running_loop()
        try:
            if job.token.cancelled:
                self._finish(job, JobState.CANCELLED)
                return
            job.state = JobState.RUNNING
            job.started_s = monotonic_s()
            recorder = RunRecorder()
            recorder.subscribe(
                lambda record: loop.call_soon_threadsafe(
                    self._dispatch, job, record
                )
            )
            run = partial(
                solve_master,
                job.canonical,
                request.variant.upper(),
                n_slaves=self.pool.n_slaves,
                n_rounds=request.n_rounds,
                rng_seed=request.rng_seed,
                target_value=request.target_value,
                pipeline=request.pipeline,
                backend=lease.backend,
                recorder=recorder,
                cancel=job.token,
                **request.budget_kwargs(),
            )
            try:
                job.result = await loop.run_in_executor(None, run)
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, JobState.FAILED)
                return
            self._finish(
                job,
                JobState.CANCELLED if job.token.cancelled else JobState.DONE,
            )
        finally:
            if job.state is JobState.FAILED:
                # A failed solve may have left the backend mid-round; shut
                # it down (idempotent) so the next lease cold-starts it.
                await loop.run_in_executor(None, lease.backend.shutdown)
                await self.pool.release(lease, bound_hash=None)
            else:
                await self.pool.release(lease, bound_hash=instance_hash)
