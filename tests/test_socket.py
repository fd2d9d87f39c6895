"""Elastic socket backend: protocol parity, membership, pipelines, service.

The contract under test (DESIGN.md §5.10): :class:`SocketBackend` is a
drop-in :class:`~repro.parallel.backends.Backend` whose workers live behind
TCP sockets — same reports bit-for-bit as the serial reference, same
telemetry surface, same warm-lease semantics — plus the elastic part no
other backend has: workers joining and vanishing while the backend is live.
Chaos legs (SIGKILL mid-round under both pipelines) live in
``tests/test_fault_injection.py``.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.core.construction import random_solution
from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearchConfig
from repro.core.termination import Budget
from repro.instances import gk_instance
from repro.obs import RunRecorder, validate_stream
from repro.parallel import SerialBackend, SocketBackend
from repro.parallel.backend_socket import HELLO_TAG, _recv_frame, _WIRE_HEADER
from repro.parallel.message import RESULT_TAG, TASK_TAG, SlaveTask
from repro.parallel.shm import KIND_REPORT_BATCH, encode_hello
from repro.variants import solve_cts2

from tests.differential import assert_differential

CONFIG = TabuSearchConfig(nb_div=100)


def make_tasks(instance, n, evals=2000, round_index=0):
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=evals),
            seed=1000 + k,
            round_index=round_index,
            seq_id=round_index * n + k,
        )
        for k in range(n)
    ]


def reports_values(reports):
    return [(r.slave_id, r.best.value, r.evaluations) for r in reports]


def socket_backend(n_slaves, n_workers, mp_context, **kwargs):
    kwargs.setdefault("round_timeout_s", 30.0)
    backend = SocketBackend(n_slaves, **kwargs)
    backend.attach_local_workers(n_workers, mp_context=mp_context)
    return backend


def wait_for(predicate, timeout_s=5.0):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestRoundParity:
    def test_reports_match_serial_bit_for_bit(self, small_instance, mp_context):
        tasks = make_tasks(small_instance, 4)
        serial = SerialBackend(4)
        serial.start(small_instance, CONFIG)
        want = serial.run_round(tasks)
        serial.shutdown()

        backend = socket_backend(4, 2, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            got = backend.run_round(tasks)
        finally:
            backend.shutdown()
        assert reports_values(got) == reports_values(want)
        for a, b in zip(got, want):
            assert a.best == b.best
            assert a.initial_value == b.initial_value

    def test_single_worker_serves_every_slave(self, small_instance, mp_context):
        backend = socket_backend(3, 1, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            reports = backend.run_round(make_tasks(small_instance, 3))
        finally:
            backend.shutdown()
        assert [r.slave_id for r in reports] == [0, 1, 2]

    def test_solve_matches_serial_backend(self, small_instance, mp_context):
        backend = socket_backend(3, 2, mp_context)
        try:
            over_sockets = solve_cts2(
                small_instance,
                n_slaves=3,
                n_rounds=3,
                rng_seed=7,
                max_evaluations=800,
                backend=backend,
            )
        finally:
            backend.shutdown()
        reference = solve_cts2(
            small_instance, n_slaves=3, n_rounds=3, rng_seed=7, max_evaluations=800
        )
        assert over_sockets.best.value == reference.best.value
        assert over_sockets.best == reference.best

    def test_async_pipeline_composes(self, small_instance, mp_context):
        backend = socket_backend(3, 2, mp_context)
        try:
            result = solve_cts2(
                small_instance,
                n_slaves=3,
                n_rounds=3,
                rng_seed=7,
                max_evaluations=600,
                backend=backend,
                pipeline="async",
            )
        finally:
            backend.shutdown()
        assert result.pipeline == "async"
        history = [s.best_value for s in result.rounds]
        assert history == sorted(history)


class TestTelemetry:
    def test_round_telemetry_published(self, small_instance, mp_context):
        backend = socket_backend(2, 1, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            backend.run_round(make_tasks(small_instance, 2))
            told = backend.last_telemetry
            assert told is not None
            assert set(told.phase_seconds) == {"scatter", "compute", "gather"}
            assert sorted(told.task_nbytes) == [0, 1]
            assert sorted(told.report_nbytes) == [0, 1]
            assert all(v > 0 for v in told.task_nbytes.values())
            assert backend.bytes_sent > 0
            assert backend.bytes_received > 0
        finally:
            backend.shutdown()

    def test_recorded_stream_validates(self, small_instance, mp_context, tmp_path):
        path = tmp_path / "socket-run.jsonl"
        backend = socket_backend(2, 1, mp_context)
        try:
            with RunRecorder(path) as recorder:
                solve_cts2(
                    small_instance,
                    n_slaves=2,
                    n_rounds=2,
                    rng_seed=3,
                    max_evaluations=400,
                    backend=backend,
                    recorder=recorder,
                )
        finally:
            backend.shutdown()
        lines = path.read_text().splitlines()
        assert validate_stream(lines) == []
        assert any('"round_telemetry"' in line for line in lines)


class TestMembership:
    def test_join_mid_run_keeps_trajectory_pinned(self, small_instance, mp_context):
        """Golden check: a late attach must not perturb the trajectory.

        Reports depend only on task contents (identity override), so the
        only thing a join changes is which process serves which shard —
        round values must equal the serial reference before *and* after.
        """
        serial = SerialBackend(4)
        serial.start(small_instance, CONFIG)
        want = [
            reports_values(serial.run_round(make_tasks(small_instance, 4, round_index=r)))
            for r in range(3)
        ]
        serial.shutdown()

        backend = socket_backend(4, 1, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            got = [
                reports_values(
                    backend.run_round(make_tasks(small_instance, 4, round_index=0))
                )
            ]
            backend.attach_local_workers(2, mp_context=mp_context)

            def joined() -> bool:
                backend._pump(0.0)
                return backend.joins >= 3

            assert wait_for(joined, timeout_s=10.0)
            for r in (1, 2):
                got.append(
                    reports_values(
                        backend.run_round(
                            make_tasks(small_instance, 4, round_index=r)
                        )
                    )
                )
            assert backend.joins == 3
        finally:
            backend.shutdown()
        assert got == want

    def test_worker_vanishing_between_rounds_reshards(
        self, small_instance, mp_context
    ):
        backend = socket_backend(4, 2, mp_context)
        try:
            backend.start(small_instance, CONFIG)

            def both_joined() -> bool:
                backend._pump(0.0)
                return backend.joins >= 2

            # Both workers must hold a shard before the kill — a member
            # that never owned slave ids correctly buries nothing.
            assert wait_for(both_joined, timeout_s=10.0)
            backend.run_round(make_tasks(small_instance, 4, round_index=0))
            victim = backend._local_procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)

            def victim_lost() -> bool:
                backend._pump(0.0)
                return backend.fault_counters["worker_lost"] == 1

            # The vanishing is between rounds: wait for the leave, so the
            # next round is dealt to the survivor alone and the buried
            # shard surfaces through the dead-slave sweep.
            assert wait_for(victim_lost, timeout_s=10.0)
            reports = backend.run_round(make_tasks(small_instance, 4, round_index=1))
            assert reports_values(reports) == reports_values(
                backend.run_round(make_tasks(small_instance, 4, round_index=1))
            )
            assert backend.fault_counters["worker_lost"] == 1
            assert backend.drain_dead_slaves() != []
            assert backend.drain_dead_slaves() == []  # consuming
        finally:
            backend.shutdown()

    def test_start_times_out_without_workers(self, small_instance):
        backend = SocketBackend(2, min_workers=1, start_timeout_s=0.3)
        backend.listen()
        try:
            with pytest.raises(RuntimeError, match="repro worker --connect"):
                backend.start(small_instance, CONFIG)
        finally:
            backend.shutdown()

    def test_listen_binds_ephemeral_port(self):
        backend = SocketBackend(2)
        host, port = backend.listen()
        try:
            assert port > 0
            assert (host, port) == backend.address
            assert backend.listen() == (host, port)  # idempotent
        finally:
            backend.shutdown()


class TestWarmLease:
    def test_same_problem_is_counted_noop(self, small_instance, mp_context):
        backend = socket_backend(2, 1, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            backend.start(small_instance, CONFIG)
            assert backend.warm_reuses == 1
            assert backend.rebinds == 0
        finally:
            backend.shutdown()

    def test_rebind_ships_new_problem(
        self, small_instance, medium_instance, mp_context
    ):
        backend = socket_backend(2, 1, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            backend.run_round(make_tasks(small_instance, 2))
            backend.start(medium_instance, CONFIG)
            assert backend.rebinds == 1
            reports = backend.run_round(make_tasks(medium_instance, 2))
            assert len(reports) == 2
        finally:
            backend.shutdown()

    def test_shutdown_is_idempotent(self, small_instance, mp_context):
        backend = socket_backend(2, 1, mp_context)
        backend.start(small_instance, CONFIG)
        backend.shutdown()
        backend.shutdown()

    def test_pipelined_dispatch_next_report(self, small_instance, mp_context):
        backend = socket_backend(3, 2, mp_context)
        try:
            backend.start(small_instance, CONFIG)
            tasks = make_tasks(small_instance, 3)
            for k, task in enumerate(tasks):
                assert backend.dispatch(k, task) > 0
            seen = set()
            while len(seen) < 3:
                out = backend.next_report(10.0)
                assert out is not None
                report, nbytes = out
                assert nbytes > 0
                seen.add(report.slave_id)
            assert seen == {0, 1, 2}
            assert backend.next_report(0.05) is None  # drained
        finally:
            backend.shutdown()


class TestHostilePeer:
    """A report frame that fails to decode buries its sender, nothing more."""

    @staticmethod
    def _hostile_peer(address):
        """Join with a valid HELLO, then answer every task frame with a
        truncated report batch: the envelope promises one entry, none follows."""
        sock = socket.create_connection(address, timeout=30.0)

        def send(tag, payload):
            sock.sendall(_WIRE_HEADER.pack(tag, len(payload)) + payload)

        def serve():
            try:
                send(HELLO_TAG, encode_hello(0, "hostile"))
                while True:
                    tag, _payload = _recv_frame(sock)
                    if tag == TASK_TAG:
                        send(RESULT_TAG, struct.pack("<BH", KIND_REPORT_BATCH, 1))
            except (EOFError, OSError):
                pass
            finally:
                sock.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return thread

    @pytest.mark.parametrize("entry", ["run_round", "next_report"])
    def test_malformed_report_frame_buries_the_member(self, small_instance, entry):
        backend = SocketBackend(2, round_timeout_s=20.0, start_timeout_s=10.0)
        try:
            peer = self._hostile_peer(backend.listen())
            backend.start(small_instance, CONFIG)
            tasks = make_tasks(small_instance, 2, evals=200)
            t0 = time.perf_counter()
            if entry == "run_round":
                assert backend.run_round(tasks) == []
            else:
                assert backend.dispatch(0, tasks[0]) > 0
                assert backend.next_report(20.0) is None
            # Buried at once, not timed out, and the master keeps running.
            assert time.perf_counter() - t0 < 10.0
            assert backend.fault_counters["bad_frame"] == 1
            assert backend.drain_dead_slaves() == [0, 1]
        finally:
            backend.shutdown()
        peer.join(timeout=10)
        assert not peer.is_alive()

    def test_oversized_first_frame_is_cut_off(self):
        """A stranger's first frame may be no larger than a HELLO: one
        claiming 200 MiB is refused at once, not held for start_timeout_s."""
        backend = SocketBackend(2, start_timeout_s=30.0)
        try:
            sock = socket.create_connection(backend.listen(), timeout=5.0)
            try:
                t0 = time.perf_counter()
                sock.sendall(_WIRE_HEADER.pack(HELLO_TAG, 200 << 20))
                assert sock.recv(1) == b""  # the master hung up
                assert time.perf_counter() - t0 < 1.0
            finally:
                sock.close()
            backend._pump(0.2)
            assert backend.joins == 0
            assert not backend._members
        finally:
            backend.shutdown()


class TestSocketDifferential:
    """A socket run serializes byte-identically to the serial reference."""

    def test_socket_matches_serial_canonical_bytes(self, mp_context):
        def socket_factory():
            return socket_backend(4, 2, mp_context)

        assert_differential(
            gk_instance(5),
            {"serial": lambda: SerialBackend(4), "socket": socket_factory},
            variant="cts2",
            max_evaluations=1_200,
        )


class TestSolverPool:
    def test_pool_leases_socket_capacity(self, small_instance, mp_context):
        import asyncio

        from repro.service import JobManager, JobRequest, JobState, SolverPool

        async def run() -> None:
            pool = SolverPool.socket(
                1,
                2,
                local_workers=1,
                mp_context=mp_context,
                round_timeout_s=30.0,
            )
            manager = JobManager(pool)
            try:
                job_id = manager.submit(
                    JobRequest(
                        instance=small_instance,
                        variant="cts2",
                        n_rounds=2,
                        max_evaluations=400,
                        rng_seed=1,
                    )
                )
                status = await manager.wait(job_id)
                assert status.state is JobState.DONE
                assert status.best_value is not None
            finally:
                await manager.close()

        asyncio.run(run())


class TestWorkerCli:
    def test_repro_worker_serves_a_round(self, small_instance, mp_context):
        """The `repro worker --connect` entry point is a full agent."""
        import multiprocessing as mp

        from repro.cli import main

        backend = SocketBackend(2, round_timeout_s=30.0)
        host, port = backend.listen()
        ctx = mp.get_context(mp_context)
        proc = ctx.Process(
            target=main, args=(["worker", "--connect", f"{host}:{port}"],)
        )
        proc.start()
        try:
            backend.start(small_instance, CONFIG)
            reports = backend.run_round(make_tasks(small_instance, 2))
            assert len(reports) == 2
        finally:
            backend.shutdown()
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
                proc.join(timeout=5)
        assert proc.exitcode == 0
