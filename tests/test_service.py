"""Tests for the solver service layer (pool, cache, job manager, server).

The load-bearing guarantees pinned here:

* a job solved on a warm leased backend is **bit-identical** to the same
  seed/config through the direct blocking API, for both backend kinds;
* cancellation is observed at a round boundary well under a second, and a
  cancelled job hands its backend back warm and immediately reusable;
* 16+ concurrent submits multiplex correctly onto a 2-slot pool.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import (
    DEFAULT_PORT,
    InstanceCache,
    JobManager,
    JobRequest,
    JobState,
    LeaseCancelled,
    ServiceServer,
    SolverPool,
    request,
    stream_events,
)
from repro.variants import solve_cts2, solve_its


def run(coro):
    """Drive one async scenario to completion (no pytest-asyncio needed)."""
    return asyncio.run(coro)


def assert_same_run(service_result, direct_result):
    """Bit-identical trajectory: incumbent, history, per-round aggregates."""
    assert service_result.best.value == direct_result.best.value
    assert service_result.best.items.tolist() == direct_result.best.items.tolist()
    assert service_result.value_history == direct_result.value_history
    assert service_result.total_evaluations == direct_result.total_evaluations
    for ours, theirs in zip(service_result.rounds, direct_result.rounds):
        assert ours.best_value == theirs.best_value
        assert ours.evaluations == theirs.evaluations


# ---------------------------------------------------------------------- #
# InstanceCache
# ---------------------------------------------------------------------- #
class TestInstanceCache:
    def test_canonicalizes_equal_content(self, small_instance, tiny_instance):
        from repro.core import MKPInstance

        cache = InstanceCache()
        copy = MKPInstance(
            weights=small_instance.weights.copy(),
            capacities=small_instance.capacities.copy(),
            profits=small_instance.profits.copy(),
            name="a different label",
        )
        first = cache.canonical(small_instance)
        second = cache.canonical(copy)
        assert first is small_instance
        assert second is small_instance  # same content -> same object
        assert cache.canonical(tiny_instance) is tiny_instance
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 2

    def test_hot_tables_prebuilt_and_shared(self, small_instance):
        cache = InstanceCache()
        canonical = cache.canonical(small_instance)
        # eager build: the arena exists without any solve having run
        assert canonical.hot is not None
        assert cache.canonical(small_instance).hot is canonical.hot

    def test_lru_eviction(self, small_instance, tiny_instance, medium_instance):
        cache = InstanceCache(max_entries=2)
        cache.canonical(small_instance)
        cache.canonical(tiny_instance)
        cache.canonical(medium_instance)  # evicts small (least recent)
        assert small_instance.content_hash() not in cache
        assert tiny_instance.content_hash() in cache
        assert cache.stats()["evictions"] == 1


# ---------------------------------------------------------------------- #
# SolverPool leasing
# ---------------------------------------------------------------------- #
class TestSolverPool:
    def test_rejects_mixed_widths(self):
        from repro.parallel import SerialBackend

        with pytest.raises(ValueError, match="agree on n_slaves"):
            SolverPool([SerialBackend(2), SerialBackend(3)])

    def test_serial_slots_share_the_cpus(self, monkeypatch):
        # Slots serve side by side: each gets its share of the CPUs for
        # helper threads, and a slot whose share is under one runs inline.
        from repro.service import pool as pool_module

        monkeypatch.setattr(pool_module, "usable_cpus", lambda: 4)
        for size, width in ((1, 4), (2, 2), (3, 1), (8, 1)):
            pool = SolverPool.serial(size, 4)
            assert [slot.backend.threads for slot in pool.slots()] == [width] * size

    def test_affinity_prefers_matching_slot(self, small_instance, tiny_instance):
        async def scenario():
            pool = SolverPool.serial(2, 2)
            h_small = small_instance.content_hash()
            h_tiny = tiny_instance.content_hash()
            lease_a = await pool.acquire(h_small)
            lease_b = await pool.acquire(h_tiny)
            await pool.release(lease_a, bound_hash=h_small)
            await pool.release(lease_b, bound_hash=h_tiny)
            # both free: each hash should land back on "its" slot
            lease = await pool.acquire(h_tiny)
            hit_slot = lease.slot.slot_id
            await pool.release(lease, bound_hash=h_tiny)
            return hit_slot, lease_b.slot.slot_id, pool.affinity_hits

        hit_slot, tiny_slot, hits = run(scenario())
        assert hit_slot == tiny_slot
        assert hits == 1

    def test_never_bound_slot_preferred_over_eviction(
        self, small_instance, tiny_instance
    ):
        async def scenario():
            pool = SolverPool.serial(2, 2)
            h_small = small_instance.content_hash()
            lease = await pool.acquire(h_small)
            await pool.release(lease, bound_hash=h_small)
            # a different instance should take the cold slot, not slot 0
            lease = await pool.acquire(tiny_instance.content_hash())
            return lease.slot.bound_hash

        assert run(scenario()) is None

    def test_cancelled_wait_raises(self):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            lease = await pool.acquire(None)
            flag = asyncio.Event()
            waiter = asyncio.create_task(pool.acquire(None, cancelled=flag))
            await asyncio.sleep(0.01)
            flag.set()
            await pool.kick()
            with pytest.raises(LeaseCancelled):
                await waiter
            await pool.release(lease, bound_hash=None)

        run(scenario())

    def test_acquire_after_shutdown_raises(self):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            pool.shutdown()
            with pytest.raises(RuntimeError, match="shut down"):
                await pool.acquire(None)

        run(scenario())


# ---------------------------------------------------------------------- #
# JobManager on the serial backend
# ---------------------------------------------------------------------- #
class TestJobManagerSerial:
    def test_sixteen_concurrent_jobs_bit_identical(self, small_instance):
        """16 concurrent submits on a 2-slot pool, every trajectory exact."""
        seeds = list(range(16))

        async def scenario():
            pool = SolverPool.serial(2, 2)
            manager = JobManager(pool)
            ids = {
                seed: manager.submit(
                    JobRequest(
                        small_instance,
                        n_rounds=3,
                        rng_seed=seed,
                        max_evaluations=4000,
                    )
                )
                for seed in seeds
            }
            statuses = {s: await manager.wait(i) for s, i in ids.items()}
            results = {s: manager.result(i) for s, i in ids.items()}
            stats = (pool.leases, pool.affinity_hits)
            await manager.close()
            return statuses, results, stats

        statuses, results, (leases, affinity_hits) = run(scenario())
        assert all(s.state is JobState.DONE for s in statuses.values())
        assert leases == 16
        # every lease after the first two rebinds lands warm on the instance
        assert affinity_hits >= 14
        for seed in seeds:
            direct = solve_cts2(
                small_instance,
                n_slaves=2,
                n_rounds=3,
                rng_seed=seed,
                max_evaluations=4000,
            )
            assert_same_run(results[seed], direct)

    def test_its_variant_bit_identical(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(
                    small_instance,
                    variant="its",
                    n_rounds=2,
                    rng_seed=7,
                    max_evaluations=3000,
                )
            )
            await manager.wait(job_id)
            result = manager.result(job_id)
            await manager.close()
            return result

        direct = solve_its(
            small_instance, n_slaves=2, n_rounds=2, rng_seed=7, max_evaluations=3000
        )
        assert_same_run(run(scenario()), direct)

    def test_cancel_mid_round_is_fast_and_partial(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(
                    small_instance, n_rounds=5000, max_evaluations=5_000_000
                )
            )
            while manager.status(job_id).rounds_completed < 2:
                await asyncio.sleep(0.005)
            t0 = time.monotonic()
            assert await manager.cancel(job_id)
            status = await manager.wait(job_id)
            elapsed = time.monotonic() - t0
            result = manager.result(job_id)
            await manager.close()
            return status, elapsed, result

        status, elapsed, result = run(scenario())
        assert status.state is JobState.CANCELLED
        assert elapsed < 1.0  # observed at the next round boundary
        assert 0 < status.rounds_completed < 5000
        # the partial result is real: rounds completed so far are kept
        assert result is not None
        assert len(result.rounds) == status.rounds_completed

    def test_cancelled_job_leaves_backend_reusable(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            victim = manager.submit(
                JobRequest(
                    small_instance, n_rounds=5000, max_evaluations=5_000_000
                )
            )
            while manager.status(victim).rounds_completed < 1:
                await asyncio.sleep(0.005)
            await manager.cancel(victim)
            await manager.wait(victim)
            follow_up = manager.submit(
                JobRequest(small_instance, n_rounds=2, max_evaluations=2000)
            )
            status = await manager.wait(follow_up)
            result = manager.result(follow_up)
            slot = pool.slots()[0]
            backend = slot.backend
            stats = (slot.jobs_served, backend.warm_reuses)
            await manager.close()
            return status, result, stats

        status, result, (jobs_served, warm_reuses) = run(scenario())
        assert status.state is JobState.DONE
        assert jobs_served == 2
        assert warm_reuses >= 1  # same instance: the follow-up reused warm state
        direct = solve_cts2(
            small_instance, n_slaves=2, n_rounds=2, rng_seed=0, max_evaluations=2000
        )
        assert_same_run(result, direct)

    def test_cancel_queued_job_never_runs(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            runner = manager.submit(
                JobRequest(
                    small_instance, n_rounds=5000, max_evaluations=5_000_000
                )
            )
            queued = manager.submit(
                JobRequest(small_instance, n_rounds=2, max_evaluations=2000)
            )
            await asyncio.sleep(0.02)
            assert manager.status(queued).state is JobState.QUEUED
            await manager.cancel(queued)
            queued_status = await manager.wait(queued)
            await manager.cancel(runner)
            await manager.wait(runner)
            await manager.close()
            return queued_status

        status = run(scenario())
        assert status.state is JobState.CANCELLED
        assert status.started_s is None  # never acquired a lease

    def test_cancel_finished_job_returns_false(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
            )
            await manager.wait(job_id)
            outcome = await manager.cancel(job_id)
            await manager.close()
            return outcome

        assert run(scenario()) is False

    def test_stream_replays_then_finishes(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(small_instance, n_rounds=3, max_evaluations=3000)
            )
            live = [e async for e in manager.stream(job_id)]
            # after completion, a second stream replays the same events
            replay = [e async for e in manager.stream(job_id)]
            await manager.close()
            return live, replay

        live, replay = run(scenario())
        kinds = [e["event"] for e in live]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("round_end") == 3
        assert replay == live

    def test_max_pending_backpressure(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool, max_pending=1)
            first = manager.submit(
                JobRequest(
                    small_instance, n_rounds=5000, max_evaluations=5_000_000
                )
            )
            with pytest.raises(RuntimeError, match="max_pending"):
                manager.submit(
                    JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
                )
            await manager.cancel(first)
            await manager.wait(first)
            # backlog drained: admission reopens
            second = manager.submit(
                JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
            )
            status = await manager.wait(second)
            await manager.close()
            return status

        assert run(scenario()).state is JobState.DONE

    def test_failed_job_quarantines_then_recovers(
        self, small_instance, monkeypatch
    ):
        from repro.service import jobs as jobs_module

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic solver crash")

        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            real = jobs_module.solve_master
            monkeypatch.setattr(jobs_module, "solve_master", boom)
            failed = manager.submit(
                JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
            )
            failed_status = await manager.wait(failed)
            monkeypatch.setattr(jobs_module, "solve_master", real)
            # the failed job's backend was shut down and unbound...
            assert pool.slots()[0].bound_hash is None
            # ...but the slot still serves the next job correctly
            ok = manager.submit(
                JobRequest(small_instance, n_rounds=2, max_evaluations=2000)
            )
            ok_status = await manager.wait(ok)
            result = manager.result(ok)
            await manager.close()
            return failed_status, ok_status, result

        failed_status, ok_status, result = run(scenario())
        assert failed_status.state is JobState.FAILED
        assert "synthetic solver crash" in failed_status.error
        assert ok_status.state is JobState.DONE
        direct = solve_cts2(
            small_instance, n_slaves=2, n_rounds=2, rng_seed=0, max_evaluations=2000
        )
        assert_same_run(result, direct)

    def test_submit_after_close_rejected(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            await manager.close()
            with pytest.raises(RuntimeError, match="closed"):
                manager.submit(
                    JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
                )

        run(scenario())

    def test_request_validation(self, small_instance):
        with pytest.raises(ValueError, match="unknown variant"):
            JobRequest(small_instance, variant="seq")
        with pytest.raises(ValueError, match="at most one"):
            JobRequest(small_instance, max_evaluations=10, virtual_seconds=1.0)
        with pytest.raises(ValueError, match="n_rounds"):
            JobRequest(small_instance, n_rounds=0)


# ---------------------------------------------------------------------- #
# JobManager on the multiprocessing backend
# ---------------------------------------------------------------------- #
class TestJobManagerMultiprocessing:
    def test_jobs_bit_identical_to_direct_mp(self, small_instance, mp_context):
        """Warm leased MP backends match a cold direct MP run, per seed."""
        from repro.parallel import MultiprocessingBackend

        seeds = [0, 1, 2, 3]

        async def scenario():
            pool = SolverPool.multiprocessing(2, 2, mp_context=mp_context)
            manager = JobManager(pool)
            ids = {
                seed: manager.submit(
                    JobRequest(
                        small_instance,
                        n_rounds=2,
                        rng_seed=seed,
                        max_evaluations=3000,
                    )
                )
                for seed in seeds
            }
            statuses = {s: await manager.wait(i) for s, i in ids.items()}
            results = {s: manager.result(i) for s, i in ids.items()}
            await manager.close()
            return statuses, results

        statuses, results = run(scenario())
        assert all(s.state is JobState.DONE for s in statuses.values())
        for seed in seeds:
            with MultiprocessingBackend(2, mp_context=mp_context) as backend:
                direct = solve_cts2(
                    small_instance,
                    n_slaves=2,
                    n_rounds=2,
                    rng_seed=seed,
                    max_evaluations=3000,
                    backend=backend,
                )
            assert_same_run(results[seed], direct)

    def test_warm_pool_serves_every_job_warm(self, small_instance, mp_context):
        """After one warm-up job per slot, every lease is an affinity hit on
        a backend that keeps its warm state and a cached instance."""
        n_jobs = 8

        async def scenario():
            pool = SolverPool.multiprocessing(2, 2, mp_context=mp_context)
            manager = JobManager(pool)
            # One throwaway job per slot: never-bound slots are picked
            # first, so this binds every backend once.
            for warm_id in [
                manager.submit(
                    JobRequest(small_instance, n_rounds=1, max_evaluations=500)
                )
                for _ in range(2)
            ]:
                await manager.wait(warm_id)

            def counters():
                return (
                    pool.affinity_hits,
                    sum(s.backend.warm_reuses for s in pool.slots()),
                    manager.cache.stats()["hits"],
                )

            before = counters()
            ids = [
                manager.submit(
                    JobRequest(
                        small_instance, n_rounds=2, rng_seed=seed, max_evaluations=2000
                    )
                )
                for seed in range(n_jobs)
            ]
            statuses = [await manager.wait(i) for i in ids]
            after = counters()
            await manager.close()
            return statuses, [b - a for a, b in zip(before, after)]

        statuses, (affinity_hits, warm_reuses, cache_hits) = run(scenario())
        assert all(s.state is JobState.DONE for s in statuses)
        assert affinity_hits == warm_reuses == cache_hits == n_jobs

    def test_cancel_on_mp_backend(self, small_instance, mp_context):
        async def scenario():
            pool = SolverPool.multiprocessing(1, 2, mp_context=mp_context)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(
                    small_instance, n_rounds=5000, max_evaluations=5_000_000
                )
            )
            while manager.status(job_id).rounds_completed < 1:
                await asyncio.sleep(0.01)
            t0 = time.monotonic()
            await manager.cancel(job_id)
            status = await manager.wait(job_id)
            elapsed = time.monotonic() - t0
            follow_up = manager.submit(
                JobRequest(small_instance, n_rounds=1, max_evaluations=1000)
            )
            follow_status = await manager.wait(follow_up)
            await manager.close()
            return status, elapsed, follow_status

        status, elapsed, follow_status = run(scenario())
        assert status.state is JobState.CANCELLED
        assert elapsed < 1.0
        assert follow_status.state is JobState.DONE


# ---------------------------------------------------------------------- #
# Latency accounting
# ---------------------------------------------------------------------- #
class TestLatencyAccounting:
    def test_job_stamps_share_the_backend_clock(self, small_instance):
        """Accounting invariant: every latency stamp is one clock's reading.

        The job layer used to stamp ``submitted_s``/``started_s``/
        ``finished_s`` with ``time.monotonic()`` while the backends phase
        against ``time.perf_counter()`` — two monotonic clocks with
        different epochs, so cross-derived numbers (queue wait vs phase
        seconds) carried a platform-dependent skew.  With everything on
        :func:`repro.obs.monotonic_s`, a job's stamps must interleave with
        readings taken around it on that same clock.
        """
        from repro.obs import monotonic_s

        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            t0 = monotonic_s()
            job_id = manager.submit(
                JobRequest(small_instance, n_rounds=2, max_evaluations=1000)
            )
            status = await manager.wait(job_id)
            t1 = monotonic_s()
            await manager.close()
            assert t0 <= status.submitted_s <= t1
            assert status.started_s is not None
            assert status.finished_s is not None
            assert status.submitted_s <= status.started_s
            assert status.started_s <= status.finished_s <= t1
            # Sanity on magnitude: the whole job ran inside [t0, t1], so
            # derived latencies must fit in that window — impossible to
            # satisfy if two different clock epochs were mixed.
            assert status.finished_s - status.submitted_s <= t1 - t0

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# TCP transport
# ---------------------------------------------------------------------- #
class TestServiceServer:
    def test_default_port_documented(self):
        assert DEFAULT_PORT == 7621

    def test_port_zero_reports_bound_port(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            server = ServiceServer(manager, port=0)
            host, port = await server.start()
            assert port > 0
            assert server.port == port  # re-reads see the real port
            server._shutdown.set()
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_taken_port_raises_actionable_error(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            first = ServiceServer(manager, port=0)
            host, port = await first.start()
            second = ServiceServer(manager, port=port)
            with pytest.raises(RuntimeError, match="--port 0"):
                await second.start()
            first._shutdown.set()
            await first.serve_until_shutdown()

        asyncio.run(scenario())

    def test_round_trip(self, small_instance):
        spec = {
            "name": "inline-test",
            "profits": small_instance.profits.tolist(),
            "weights": small_instance.weights.tolist(),
            "capacities": small_instance.capacities.tolist(),
        }

        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            server = ServiceServer(manager, port=0)
            host, port = await server.start()
            loop = asyncio.get_running_loop()

            def call(payload):
                return request(host, port, payload)

            pong = await loop.run_in_executor(None, call, {"op": "ping"})
            assert pong["pong"] is True
            submitted = await loop.run_in_executor(
                None,
                call,
                {"op": "submit", "instance": spec, "rounds": 2, "evals": 2000},
            )
            job_id = submitted["job_id"]
            events = await loop.run_in_executor(
                None, lambda: list(stream_events(host, port, job_id))
            )
            status = await loop.run_in_executor(
                None, call, {"op": "status", "job_id": job_id}
            )
            stats = await loop.run_in_executor(None, call, {"op": "stats"})
            with pytest.raises(RuntimeError, match="unknown job id"):
                await loop.run_in_executor(
                    None, call, {"op": "status", "job_id": "job-999999"}
                )
            with pytest.raises(RuntimeError, match="unknown op"):
                await loop.run_in_executor(None, call, {"op": "frobnicate"})
            await loop.run_in_executor(None, call, {"op": "shutdown"})
            await server.serve_until_shutdown()
            return job_id, events, status, stats

        job_id, events, status, stats = run(scenario())
        assert events[-1]["kind"] == "end"
        assert events[-1]["status"]["state"] == "done"
        kinds = [e["event"] for e in events[:-1]]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert status["status"]["state"] == "done"
        assert status["status"]["rounds_completed"] == 2
        assert stats["pool"]["size"] == 1
        assert stats["jobs"] == 1

    def test_submit_its_job_runs_the_its_row(self, small_instance):
        spec = {
            "name": "inline-its",
            "profits": small_instance.profits.tolist(),
            "weights": small_instance.weights.tolist(),
            "capacities": small_instance.capacities.tolist(),
        }

        async def scenario():
            manager = JobManager(SolverPool.serial(1, 2))
            server = ServiceServer(manager, port=0)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            submitted = await loop.run_in_executor(
                None,
                request,
                host,
                port,
                {"op": "submit", "instance": spec, "variant": "its", "rounds": 2,
                 "evals": 2000, "seed": 3},
            )
            events = await loop.run_in_executor(
                None, lambda: list(stream_events(host, port, submitted["job_id"]))
            )
            await loop.run_in_executor(None, request, host, port, {"op": "shutdown"})
            await server.serve_until_shutdown()
            return events

        events = run(scenario())
        assert events[-1]["status"]["state"] == "done"
        assert events[-1]["status"]["variant"] == "its"
        start = events[0]
        assert start["event"] == "run_start"
        assert (start["variant"], start["communicate"], start["adapt_strategies"]) == (
            "ITS",
            False,
            False,
        )
        # Independent threads: no SGP at all, and every ISP decision is "keep".
        kinds = [e["event"] for e in events[:-1]]
        assert "sgp" not in kinds
        isp = [e for e in events if e.get("event") == "isp"]
        assert len(isp) == 2
        assert all(set(e["rules"]) == {"keep"} for e in isp)

    def test_string_spec_requires_loader(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            server = ServiceServer(manager, port=0)  # no loader wired
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            with pytest.raises(RuntimeError, match="no instance loader"):
                await loop.run_in_executor(
                    None,
                    lambda: request(
                        host, port, {"op": "submit", "instance": "FP05"}
                    ),
                )
            await loop.run_in_executor(
                None, lambda: request(host, port, {"op": "shutdown"})
            )
            await server.serve_until_shutdown()

        run(scenario())


# ---------------------------------------------------------------------- #
# Pipelined async jobs (ISSUE-9 satellite)
# ---------------------------------------------------------------------- #
class TestAsyncPipelineJobs:
    def test_invalid_pipeline_rejected(self, small_instance):
        with pytest.raises(ValueError, match="pipeline"):
            JobRequest(small_instance, pipeline="turbo")

    def test_async_job_bit_identical_to_direct(self, small_instance):
        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            job_id = manager.submit(
                JobRequest(
                    small_instance,
                    n_rounds=3,
                    rng_seed=7,
                    max_evaluations=3000,
                    pipeline="async",
                )
            )
            await manager.wait(job_id)
            result = manager.result(job_id)
            await manager.close()
            return result

        direct = solve_cts2(
            small_instance,
            n_slaves=2,
            n_rounds=3,
            rng_seed=7,
            max_evaluations=3000,
            pipeline="async",
        )
        service_result = run(scenario())
        assert service_result.pipeline == "async"
        assert_same_run(service_result, direct)

    def test_cancel_async_job_at_burst_boundary(self, small_instance):
        """Cancelling an async run takes effect at the next burst boundary:
        under a second, with the rounds closed so far kept as a partial
        result and the backend handed back clean."""

        async def scenario():
            pool = SolverPool.serial(1, 2)
            manager = JobManager(pool)
            victim = manager.submit(
                JobRequest(
                    small_instance,
                    n_rounds=5000,
                    max_evaluations=5_000_000,
                    pipeline="async",
                )
            )
            while manager.status(victim).rounds_completed < 2:
                await asyncio.sleep(0.005)
            t0 = time.monotonic()
            assert await manager.cancel(victim)
            status = await manager.wait(victim)
            elapsed = time.monotonic() - t0
            result = manager.result(victim)
            # the slot is immediately reusable for a follow-up sync job
            follow_up = manager.submit(
                JobRequest(small_instance, n_rounds=2, max_evaluations=2000)
            )
            follow_status = await manager.wait(follow_up)
            await manager.close()
            return status, elapsed, result, follow_status

        status, elapsed, result, follow_status = run(scenario())
        assert status.state is JobState.CANCELLED
        assert elapsed < 1.0  # observed at the next burst boundary
        assert 0 < status.rounds_completed < 5000
        assert result is not None
        assert result.pipeline == "async"
        assert len(result.rounds) == status.rounds_completed
        assert follow_status.state is JobState.DONE
