"""Property and stress tests for the shared-memory transport (ISSUE-7).

Three layers, matching :mod:`repro.parallel.shm`:

* **ShmRing** — frame round-trips at arbitrary sizes (1..4096 B),
  wrap-around at *every* physical offset, and seqlock torn-read detection
  (stuck-odd ``wseq``, out-of-sequence frame numbers, impossible lengths);
* **WireCodec** — property round-trips for tasks, reports and their
  batched envelopes, including every budget-flag combination;
* **ShmComm** — a live master↔worker byte-carrier pair over a real pipe
  doorbell, the tiny-ring overflow → in-band fallback, the multiprocessing
  backend's per-entry byte ledger, and a cross-process writer/reader
  stress run whose pacing is driven by a PR-2 chaos fault plan.

Everything here is skipped wholesale on hosts without working POSIX
shared memory (``shm_available()``), where the backend auto-degrades to
pipes and the differential suite still covers the transport contract.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import random_solution
from repro.core.solution import Solution
from repro.core.strategy import Strategy
from repro.core.termination import Budget
from repro.instances import gk_instance
from repro.parallel import MultiprocessingBackend
from repro.parallel import shm as shm_mod
from repro.parallel.faults import FaultPlan
from repro.core.tabu_search import TabuSearchConfig
from repro.parallel.message import (
    REBIND_TAG,
    RESULT_TAG,
    STOP_TAG,
    TASK_TAG,
    SlaveReport,
    SlaveTask,
)
from repro.parallel.shm import (
    FrameTooLarge,
    RingEmpty,
    RingFull,
    ShmComm,
    ShmRing,
    TornFrameError,
    resolve_transport,
    shm_available,
)
from repro.parallel.wire import WireCodec, decode_bind, encode_bind

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)


@contextlib.contextmanager
def fresh_ring(capacity: int, *, spin: int = 10_000):
    ring = ShmRing.create(capacity, spin=spin)
    try:
        yield ring
    finally:
        ring.close()
        ring.unlink()


# ---------------------------------------------------------------------- #
# Ring: round-trips and wrap-around
# ---------------------------------------------------------------------- #


class TestRingRoundTrip:
    @given(st.lists(st.binary(min_size=1, max_size=4096), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_frames_round_trip_in_order(self, payloads):
        # Write/read interleaved so arbitrarily long streams fit any ring.
        with fresh_ring(1 << 13) as ring:
            for payload in payloads:
                fseq_before = ring._get(shm_mod._OFF_FRAMES_WRITTEN)
                assert ring.write(payload) == (fseq_before + 1) & 0xFFFF_FFFF
                assert ring.poll()
                assert ring.read() == payload
            assert not ring.poll()

    @given(
        st.lists(st.binary(min_size=1, max_size=600), min_size=1, max_size=8),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_queued_frames_preserve_fifo_order(self, payloads, extra_reads):
        with fresh_ring(1 << 13) as ring:
            for payload in payloads:
                ring.write(payload)
            assert ring.used() >= sum(len(p) for p in payloads)
            for payload in payloads:
                assert ring.read() == payload
            for _ in range(extra_reads):
                with pytest.raises(RingEmpty):
                    ring.read()

    def test_wrap_around_at_every_physical_offset(self):
        # Filler frames are 9 bytes (8-byte header + 1 payload byte); 9 is
        # coprime with the 64-byte capacity, so j write/read pairs park the
        # cursors at physical offset (9*j) % 64 — all 64 offsets in turn.
        capacity = 64
        boundary_payload = bytes(range(48))
        for j in range(capacity):
            with fresh_ring(capacity) as ring:
                for i in range(j):
                    ring.write(bytes([i & 0xFF]))
                    ring.read()
                assert ring._get(shm_mod._OFF_WIDX) == 9 * j
                ring.write(boundary_payload)
                assert ring.read() == boundary_payload
                assert ring.free() == capacity

    def test_cursors_are_logical_and_monotone(self):
        with fresh_ring(64) as ring:
            for _ in range(100):  # total bytes far beyond capacity
                ring.write(b"x" * 20)
                ring.read()
            assert ring._get(shm_mod._OFF_WIDX) == 100 * 28
            assert ring._get(shm_mod._OFF_FRAMES_WRITTEN) == 100
            assert ring._get(shm_mod._OFF_FRAMES_READ) == 100


class TestRingCapacity:
    def test_full_ring_raises_and_recovers(self):
        with fresh_ring(64) as ring:
            ring.write(b"a" * 40)
            with pytest.raises(RingFull):
                ring.write(b"b" * 20)
            assert ring.read() == b"a" * 40
            ring.write(b"b" * 20)  # freed space is reusable
            assert ring.read() == b"b" * 20

    def test_oversized_frame_is_rejected_outright(self):
        with fresh_ring(64) as ring:
            with pytest.raises(FrameTooLarge):
                ring.write(b"x" * 64)

    def test_empty_ring_raises_ring_empty(self):
        with fresh_ring(64) as ring:
            assert not ring.poll()
            with pytest.raises(RingEmpty):
                ring.read()


# ---------------------------------------------------------------------- #
# Ring: seqlock torn-read detection
# ---------------------------------------------------------------------- #


class TestSeqlockTornReads:
    def test_stuck_odd_wseq_raises_torn_frame(self):
        # A writer that died mid-frame leaves wseq odd forever; the reader
        # must give up after its spin budget, not return garbage.
        with fresh_ring(256, spin=50) as ring:
            ring.write(b"payload")
            ring._set(shm_mod._OFF_WSEQ, ring._get(shm_mod._OFF_WSEQ) + 1)
            with pytest.raises(TornFrameError, match="seqlock"):
                ring.read()

    def test_out_of_sequence_frame_number_raises(self):
        with fresh_ring(256) as ring:
            ring.write(b"payload")
            # Corrupt the frame's sequence number in place (physical offset
            # 0 on a fresh ring: header bytes [4:8] after the length word).
            lo = shm_mod._HEADER_NBYTES + 4
            ring._shm.buf[lo : lo + 4] = (99).to_bytes(4, "little")
            with pytest.raises(TornFrameError, match="sequence"):
                ring.read()

    def test_impossible_frame_length_raises(self):
        with fresh_ring(256) as ring:
            ring.write(b"payload")
            lo = shm_mod._HEADER_NBYTES  # length word of the first frame
            ring._shm.buf[lo : lo + 4] = (10_000).to_bytes(4, "little")
            with pytest.raises(TornFrameError, match="payload bytes"):
                ring.read()

    def test_partial_frame_header_raises(self):
        with fresh_ring(256) as ring:
            ring._set(shm_mod._OFF_WIDX, 4)  # fewer bytes than a header
            with pytest.raises(TornFrameError, match="partial"):
                ring.read()

    def test_poll_reports_torn_ring_as_readable(self):
        # poll() must not swallow the diagnosis: it reports "readable" and
        # lets read() raise.
        with fresh_ring(256, spin=50) as ring:
            ring._set(shm_mod._OFF_WSEQ, 1)
            ring._set(shm_mod._OFF_WIDX, 20)
            assert ring.poll()
            with pytest.raises(TornFrameError):
                ring.read()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=128)
        try:
            with pytest.raises(ValueError, match="not a ShmRing"):
                ShmRing.attach(seg.name)
        finally:
            seg.close()
            seg.unlink()


# ---------------------------------------------------------------------- #
# Codec properties
# ---------------------------------------------------------------------- #


def _random_solution(rnd: random.Random, n_items: int) -> Solution:
    x = np.array([rnd.randint(0, 1) for _ in range(n_items)], dtype=np.int8)
    return Solution.trusted(x, float(rnd.randint(0, 10**6)))


def _random_task(rnd: random.Random, n_items: int) -> SlaveTask:
    return SlaveTask(
        x_init=_random_solution(rnd, n_items),
        strategy=Strategy(rnd.randint(1, 50), rnd.randint(1, 20), rnd.randint(1, 99)),
        budget=Budget(
            max_evaluations=rnd.choice([None, rnd.randint(0, 2**40)]),
            max_moves=rnd.choice([None, rnd.randint(0, 2**40)]),
            wall_seconds=rnd.choice([None, rnd.random() * 100]),
            target_value=rnd.choice([None, float(rnd.randint(0, 10**6))]),
        ),
        seed=rnd.randint(-(2**62), 2**62),
        round_index=rnd.randint(0, 10_000),
        seq_id=rnd.randint(0, 2**40),
    )


def _random_report(rnd: random.Random, n_items: int) -> SlaveReport:
    return SlaveReport(
        slave_id=rnd.randint(0, 1000),
        best=_random_solution(rnd, n_items),
        elite=[_random_solution(rnd, n_items) for _ in range(rnd.randint(0, 5))],
        initial_value=float(rnd.randint(0, 10**6)),
        evaluations=rnd.randint(0, 2**40),
        moves=rnd.randint(0, 2**40),
        round_index=rnd.randint(0, 10_000),
        seq_id=rnd.randint(0, 2**40),
    )


def _assert_tasks_equal(a: SlaveTask, b: SlaveTask) -> None:
    assert np.array_equal(a.x_init.x, b.x_init.x)
    assert a.x_init.value == b.x_init.value
    assert a.strategy.as_tuple() == b.strategy.as_tuple()
    assert (
        a.budget.max_evaluations,
        a.budget.max_moves,
        a.budget.wall_seconds,
        a.budget.target_value,
    ) == (
        b.budget.max_evaluations,
        b.budget.max_moves,
        b.budget.wall_seconds,
        b.budget.target_value,
    )
    assert (a.seed, a.round_index, a.seq_id) == (b.seed, b.round_index, b.seq_id)


def _assert_reports_equal(a: SlaveReport, b: SlaveReport) -> None:
    assert a.slave_id == b.slave_id
    assert np.array_equal(a.best.x, b.best.x)
    assert a.best.value == b.best.value
    assert len(a.elite) == len(b.elite)
    for ea, eb in zip(a.elite, b.elite):
        assert np.array_equal(ea.x, eb.x)
        assert ea.value == eb.value
    assert a.initial_value == b.initial_value
    assert (a.evaluations, a.moves) == (b.evaluations, b.moves)
    assert (a.round_index, a.seq_id) == (b.round_index, b.seq_id)


class TestWireCodec:
    @given(st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_task_round_trip(self, n_items, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        task = _random_task(rnd, n_items)
        frame = codec.encode_task(task)
        _assert_tasks_equal(codec.decode_task(frame), task)

    @given(st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_report_round_trip(self, n_items, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        report = _random_report(rnd, n_items)
        frame = codec.encode_report(report)
        _assert_reports_equal(codec.decode_report(frame), report)

    @given(st.integers(1, 120), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_batch_round_trips_and_size_ledger(self, n_items, count, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        entries = [(k, _random_task(rnd, n_items)) for k in range(count)]
        frame, sizes = codec.encode_task_batch(entries)
        decoded, entry_sizes = codec.decode_task_batch(frame)
        assert [k for k, _ in decoded] == [k for k, _ in entries]
        for (_, a), (_, b) in zip(entries, decoded):
            _assert_tasks_equal(b, a)
        # Per-entry sizes must equal the standalone frame lengths — the
        # cross-K byte-ledger contract.
        assert entry_sizes == [len(codec.encode_task(t)) for _, t in entries]
        assert sizes == {k: len(codec.encode_task(t)) for k, t in entries}

        reports = [_random_report(rnd, n_items) for _ in range(count)]
        rframe, rsizes = codec.encode_report_batch(reports)
        rdecoded, rentry_sizes = codec.decode_report_batch(rframe)
        for a, b in zip(reports, rdecoded):
            _assert_reports_equal(b, a)
        assert rentry_sizes == rsizes
        assert rsizes == [len(codec.encode_report(r)) for r in reports]

    def test_kind_mismatch_is_loud(self):
        codec = WireCodec(10)
        rnd = random.Random(0)
        task_frame = codec.encode_task(_random_task(rnd, 10))
        with pytest.raises(ValueError, match="not a report frame"):
            codec.decode_report(task_frame)
        with pytest.raises(ValueError, match="not a batch frame"):
            codec.decode_task_batch(bytes([99]) + task_frame[1:])


# ---------------------------------------------------------------------- #
# ShmComm endpoint pair
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def comm_pair(ring_capacity: int = 1 << 13):
    """Master/worker ShmComm pair over a real pipe + two rings."""
    parent_conn, child_conn = multiprocessing.Pipe()
    task_ring = ShmRing.create(ring_capacity)
    report_ring = ShmRing.create(ring_capacity)
    master = ShmComm(parent_conn, send_ring=task_ring, recv_ring=report_ring)
    worker = ShmComm(child_conn, send_ring=report_ring, recv_ring=task_ring)
    try:
        yield master, worker
    finally:
        master.close()
        worker.close()
        task_ring.unlink()
        report_ring.unlink()


class TestShmComm:
    def test_task_and_report_travel_through_rings_only(self):
        rnd = random.Random(7)
        codec = WireCodec(40)
        with comm_pair() as (master, worker):
            task_frame, _ = codec.encode_task_batch([(0, _random_task(rnd, 40))])
            master.send(task_frame, tag=TASK_TAG)
            assert worker.recv_message(timeout=5.0) == (TASK_TAG, task_frame)

            report_frame, _ = codec.encode_report_batch([_random_report(rnd, 40)])
            worker.send(report_frame, tag=RESULT_TAG)
            assert master.recv(tag=RESULT_TAG, timeout=5.0) == report_frame

            # Zero payload bytes crossed the pipe: doorbells only.
            assert master.pipe_payload_bytes == 0
            assert worker.pipe_payload_bytes == 0
            assert master.ring_overflows == 0

    def test_batched_send_charges_per_entry_sizes(self, small_instance):
        # The backend owns the codec and its ledger: a batch frame charges
        # each entry its own frame length, never the envelope.
        codec = WireCodec(small_instance.n_items)
        tasks = [
            SlaveTask(
                x_init=random_solution(small_instance, rng=k),
                strategy=Strategy(8, 2, 10),
                budget=Budget(max_evaluations=200),
                seed=k,
                round_index=0,
                seq_id=k,
            )
            for k in range(4)
        ]
        with MultiprocessingBackend(4, transport="shm", batch_k=4) as backend:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            reports = backend.run_round(tasks)
        task_sizes = {k: len(codec.encode_task(t)) for k, t in enumerate(tasks)}
        assert backend.last_telemetry.task_nbytes == task_sizes
        assert backend.last_telemetry.report_nbytes == {
            r.slave_id: len(codec.encode_report(r)) for r in reports
        }

    def test_ring_overflow_falls_back_in_band(self):
        rnd = random.Random(13)
        with comm_pair(ring_capacity=80) as (master, worker):
            # A 600-item report cannot fit an 80-byte ring: payload must
            # ride the pipe, and the frame must still arrive identically.
            frame, _ = WireCodec(600).encode_report_batch([_random_report(rnd, 600)])
            worker.send(frame, tag=RESULT_TAG)
            assert master.recv(tag=RESULT_TAG, timeout=5.0) == frame
            assert worker.ring_overflows == 1
            assert worker.pipe_payload_bytes == len(frame)

    def test_ringless_endpoint_is_plain_pipe_transport(self):
        parent_conn, child_conn = multiprocessing.Pipe()
        a = ShmComm(parent_conn)
        b = ShmComm(child_conn)
        try:
            assert a.transport == "pipe"
            frame = WireCodec(10).encode_task(_random_task(random.Random(3), 10))
            a.send(frame, tag=TASK_TAG)
            assert b.recv_message(timeout=5.0) == (TASK_TAG, frame)
            assert a.pipe_payload_bytes == len(frame) > 0
        finally:
            a.close()
            b.close()

    def test_backend_unlinks_a_dead_workers_rings_and_all_at_shutdown(
        self, small_instance, mp_context
    ):
        def attaches(name: str) -> bool:
            try:
                ShmRing.attach(name).close()
            except FileNotFoundError:
                return False
            return True

        tasks = [
            SlaveTask(
                x_init=random_solution(small_instance, rng=k),
                strategy=Strategy(8, 2, 10),
                budget=Budget(max_evaluations=200),
                seed=k,
                round_index=0,
                seq_id=k,
            )
            for k in range(2)
        ]
        backend = MultiprocessingBackend(
            2, mp_context=mp_context, transport="shm", round_timeout_s=30.0
        )
        try:
            backend.start(small_instance, TabuSearchConfig(nb_div=100))
            names = [
                {comm.send_ring.name, comm.recv_ring.name} for comm in backend._comms
            ]
            assert all(attaches(name) for group in names for name in group)
            backend._procs[0].kill()
            backend._procs[0].join(timeout=10)
            reports = backend.run_round(tasks)  # dispatch respawns worker 0
            assert [r.slave_id for r in reports] == [0, 1]
            assert backend.respawns[0] == 1
            assert not any(attaches(name) for name in names[0])
            assert all(attaches(name) for name in names[1])
            respawned = backend._comms[0]
            names.append({respawned.send_ring.name, respawned.recv_ring.name})
            assert all(attaches(name) for name in names[2])
        finally:
            backend.shutdown()
        assert not any(attaches(name) for group in names for name in group)

    def test_control_frames_ride_the_pipe_as_bytes(self, small_instance):
        with comm_pair() as (master, worker):
            bind = encode_bind(small_instance, TabuSearchConfig(nb_div=7))
            master.send(bind, tag=REBIND_TAG)
            master.send(b"", tag=STOP_TAG)
            tag, body = worker.recv_message(timeout=5.0)
            assert (tag, body) == (REBIND_TAG, bind)
            instance, config = decode_bind(body)
            assert instance.content_hash() == small_instance.content_hash()
            assert config.nb_div == 7
            # An empty STOP is a frame of its own, not a ring doorbell.
            assert worker.recv_message(timeout=5.0) == (STOP_TAG, b"")
            assert master.pipe_payload_bytes == len(bind)
            with pytest.raises(TypeError):
                master.send(("instance", "config"), tag=REBIND_TAG)


# ---------------------------------------------------------------------- #
# Cross-process writer/reader stress (chaos-paced)
# ---------------------------------------------------------------------- #

_STRESS_FRAMES = 400
_STRESS_SEED = 20260808


def _stress_payloads(n_frames: int) -> list[bytes]:
    rnd = random.Random(_STRESS_SEED)
    return [rnd.randbytes(rnd.randint(1, 200)) for _ in range(n_frames)]


def _stress_writer(ring_name: str, n_frames: int, plan_seed: int) -> None:
    """Child: write the seeded frame stream with chaos-plan pacing."""
    plan = FaultPlan.from_seed(
        plan_seed, n_slaves=8, n_rounds=n_frames // 8 + 1,
        delay_rate=0.3, straggle_rate=0.3, duplicate_rate=0.2,
    )
    ring = ShmRing.attach(ring_name)
    try:
        for i, payload in enumerate(_stress_payloads(n_frames)):
            round_index, slave_id = divmod(i, 8)
            if plan.delays_report(round_index, slave_id):
                time.sleep(0.002)  # jitter the seqlock window
            if plan.straggle_factor(round_index, slave_id) > 1.0:
                time.sleep(0.001)
            while True:
                try:
                    ring.write(payload)
                    break
                except RingFull:
                    time.sleep(0.0005)  # reader backpressure
    finally:
        ring.close()


class TestCrossProcessStress:
    def test_chaos_paced_writer_reader_stream(self):
        """A real second process writes 400 frames through a small ring.

        The writer's pacing comes from a PR-2 chaos plan (delays and
        straggles land mid-stream, duplicates stress the backpressure
        loop); the reader validates every frame's content *and* order, so
        any torn read, lost wakeup or cursor race fails loudly.
        """
        expected = _stress_payloads(_STRESS_FRAMES)
        ring = ShmRing.create(1 << 11)  # small: forces many wrap-arounds
        proc = multiprocessing.get_context("fork").Process(
            target=_stress_writer, args=(ring.name, _STRESS_FRAMES, 42)
        )
        proc.start()
        got: list[bytes] = []
        deadline = time.monotonic() + 60.0
        try:
            while len(got) < _STRESS_FRAMES:
                assert time.monotonic() < deadline, (
                    f"stress reader stalled at frame {len(got)}"
                )
                try:
                    got.append(ring.read())
                except RingEmpty:
                    time.sleep(0.0002)
            assert got == expected
            assert ring._get(shm_mod._OFF_FRAMES_READ) == _STRESS_FRAMES
        finally:
            proc.join(timeout=10.0)
            assert proc.exitcode == 0
            ring.close()
            ring.unlink()


# ---------------------------------------------------------------------- #
# Doorbell gates on real rounds
# ---------------------------------------------------------------------- #


def _gk24_round(instance, round_index: int, n_slaves: int) -> list[SlaveTask]:
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=150),
            seed=100 * round_index + k,
            round_index=round_index,
            seq_id=round_index * n_slaves + k,
        )
        for k in range(n_slaves)
    ]


@pytest.mark.slow
class TestRoundDoorbellGates:
    def test_batched_shm_rounds_move_payload_through_rings_only(self):
        """P = 8 on GK24: one ``batch_k=8`` shm worker vs eight pipe workers.

        A fault-free round carries one task and one report doorbell per
        worker, so batching cuts pipe messages 8x (gate: >= 3x); every
        payload byte rides the rings (gate: <= 64 B/round through pipes)
        and no frame overflows back in-band.  Reports are identical.
        """
        instance = gk_instance(24)
        n_slaves, n_rounds = 8, 28
        rounds = [_gk24_round(instance, r, n_slaves) for r in range(n_rounds)]
        config = TabuSearchConfig(nb_div=10_000)
        with MultiprocessingBackend(
            n_slaves, transport="pipe", batch_k=1
        ) as pipe, MultiprocessingBackend(
            n_slaves, transport="shm", batch_k=8
        ) as batched:
            pipe.start(instance, config)
            batched.start(instance, config)
            assert batched.worker_transports == ["shm"]
            for tasks in rounds:
                assert [
                    (r.slave_id, r.best, r.evaluations) for r in batched.run_round(tasks)
                ] == [(r.slave_id, r.best, r.evaluations) for r in pipe.run_round(tasks)]
            messages_per_round = {
                label: 2 * len([c for c in backend._comms if c is not None])
                for label, backend in (("pipe", pipe), ("shm", batched))
            }
            comms = [c for c in batched._comms if c is not None]
            payload = sum(c.pipe_payload_bytes for c in comms)
            overflows = sum(c.ring_overflows for c in comms)
        assert messages_per_round["pipe"] / messages_per_round["shm"] >= 3.0
        assert payload / n_rounds <= 64.0
        assert overflows == 0


# ---------------------------------------------------------------------- #
# Transport selection
# ---------------------------------------------------------------------- #


class TestTransportSelection:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        assert resolve_transport("shm") == "shm"
        assert resolve_transport("pipe") == "pipe"

    def test_env_choice_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        assert resolve_transport() == "pipe"
        monkeypatch.setenv("REPRO_TRANSPORT", "SHM")  # case-insensitive
        assert resolve_transport() == "shm"

    def test_auto_prefers_shm_where_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert resolve_transport() == "shm"

    def test_unknown_transport_is_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("carrier-pigeon")

    def test_shm_request_degrades_without_posix_shm(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_AVAILABLE", False)
        assert resolve_transport("shm") == "pipe"
        assert resolve_transport() == "pipe"
