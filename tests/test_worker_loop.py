"""The one worker frame loop, over both of its carriers.

:func:`~repro.parallel.backends.worker_loop` is the whole worker agent
apart from carrier setup: STOP ends it, REBIND builds a fresh runtime from a
bind frame, and each TASK batch frame is answered with one report batch
frame.  Every case here runs the loop twice, over a
:class:`~repro.parallel.shm.ShmComm` pair with rings (how pipe/shm workers
receive frames) and over a socket pair with the TCP framing (how
``run_worker`` receives them).  The loop runs in the test's own process: the
master end queues every frame first, then the loop serves them and returns
on STOP.  The last two cases start a real worker process per carrier under
the suite's start method (``REPRO_MP_CONTEXT``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import socket

import pytest

from repro.core.construction import random_solution
from repro.core.strategy import Strategy
from repro.core.tabu_search import TabuSearchConfig
from repro.core.termination import Budget
from repro.instances import gk_instance
from repro.parallel import FaultEvent, FaultKind, FaultPlan, SlaveRuntime
from repro.parallel.backend_socket import HELLO_TAG, _WIRE_HEADER, _recv_frame, run_worker
from repro.parallel.backends import _worker_main, worker_loop
from repro.parallel.message import REBIND_TAG, RESULT_TAG, STOP_TAG, TASK_TAG, SlaveTask
from repro.parallel.shm import ShmComm, ShmRing, shm_available
from repro.parallel.wire import WireCodec, WireError, decode_hello, encode_bind

CONFIG = TabuSearchConfig(nb_div=100)

#: An armed plan that never fires: its events lie far past any test round.
NEVER_FIRING = FaultPlan(
    events=tuple(
        FaultEvent(1_000_000, k, kind)
        for k in range(4)
        for kind in (FaultKind.CRASH, FaultKind.DROP_REPORT)
    )
)


def make_tasks(instance, n, evals=300):
    return [
        SlaveTask(
            x_init=random_solution(instance, rng=k),
            strategy=Strategy(8, 2, 10),
            budget=Budget(max_evaluations=evals),
            seed=1000 + k,
            round_index=0,
            seq_id=k,
        )
        for k in range(n)
    ]


def task_frame(instance, tasks) -> bytes:
    return WireCodec(instance.n_items).encode_task_batch(list(enumerate(tasks)))[0]


def report_keys(reports):
    return [(r.slave_id, r.best, r.elite, r.evaluations, r.moves) for r in reports]


class _ShmPair:
    """Master end and worker end of a ringed :class:`ShmComm` pair."""

    def __init__(self) -> None:
        parent, child = multiprocessing.Pipe()
        self._rings = (ShmRing.create(1 << 14), ShmRing.create(1 << 14))
        task_ring, report_ring = self._rings
        self.master = ShmComm(parent, send_ring=task_ring, recv_ring=report_ring)
        self.worker = ShmComm(child, send_ring=report_ring, recv_ring=task_ring)

    def send(self, tag: int, frame: bytes = b"") -> None:
        self.master.send(frame, tag=tag)

    def replies(self) -> list[bytes]:
        out = []
        while self.master.poll(0.0):
            out.append(self.master.recv(tag=RESULT_TAG))
        return out

    def loop_io(self):
        return self.worker.recv_message, lambda frame: self.worker.send(frame, tag=RESULT_TAG)

    def close(self) -> None:
        self.master.close()
        self.worker.close()
        for ring in self._rings:
            ring.unlink()


class _SocketPair:
    """Master end and worker end of a socket pair with the TCP framing."""

    def __init__(self) -> None:
        self.master, self.worker = socket.socketpair()
        self.master.settimeout(5.0)

    def send(self, tag: int, frame: bytes = b"") -> None:
        self.master.sendall(_WIRE_HEADER.pack(tag, len(frame)) + frame)

    def replies(self) -> list[bytes]:
        self.worker.shutdown(socket.SHUT_WR)  # the loop has returned
        out = []
        while True:
            try:
                tag, frame = _recv_frame(self.master)
            except EOFError:
                return out
            assert tag == RESULT_TAG
            out.append(frame)

    def loop_io(self):
        def reply(frame: bytes) -> None:
            self.worker.sendall(_WIRE_HEADER.pack(RESULT_TAG, len(frame)) + frame)

        return lambda: _recv_frame(self.worker), reply

    def close(self) -> None:
        self.master.close()
        self.worker.close()


CARRIERS = {"shm": _ShmPair, "socket": _SocketPair}


@pytest.fixture(params=sorted(CARRIERS))
def carrier(request):
    if request.param == "shm" and not shm_available():
        pytest.skip("POSIX shared memory unavailable on this host")
    pair = CARRIERS[request.param]()
    try:
        yield pair
    finally:
        pair.close()


def run_loop(carrier, plan=FaultPlan.none(), runtime=None) -> None:
    recv, reply = carrier.loop_io()
    worker_loop(recv, reply, plan, runtime)


class TestWorkerLoop:
    def test_stop_ends_the_loop_without_a_reply(self, carrier):
        carrier.send(STOP_TAG)
        run_loop(carrier)
        assert carrier.replies() == []

    def test_rebind_then_task_answers_one_report_batch(self, carrier, small_instance):
        tasks = make_tasks(small_instance, 3)
        carrier.send(REBIND_TAG, encode_bind(small_instance, CONFIG))
        carrier.send(TASK_TAG, task_frame(small_instance, tasks))
        carrier.send(STOP_TAG)
        run_loop(carrier)
        (reply,) = carrier.replies()
        reports, _ = WireCodec(small_instance.n_items).decode_report_batch(reply)
        reference = SlaveRuntime(small_instance, CONFIG, slave_id=0)
        assert report_keys(reports) == report_keys(
            [reference.execute(t, slave_id=k) for k, t in enumerate(tasks)]
        )

    def test_rebind_replaces_the_spawn_runtime(self, carrier, small_instance):
        # A pipe/shm worker starts bound; a REBIND moves it to a new problem.
        other = gk_instance(1)
        tasks = make_tasks(other, 2)
        carrier.send(REBIND_TAG, encode_bind(other, CONFIG))
        carrier.send(TASK_TAG, task_frame(other, tasks))
        carrier.send(STOP_TAG)
        run_loop(carrier, runtime=SlaveRuntime(small_instance, CONFIG, slave_id=0))
        (reply,) = carrier.replies()
        reports, _ = WireCodec(other.n_items).decode_report_batch(reply)
        reference = SlaveRuntime(other, CONFIG, slave_id=0)
        assert report_keys(reports) == report_keys(
            [reference.execute(t, slave_id=k) for k, t in enumerate(tasks)]
        )

    def test_task_before_bind_is_a_protocol_error(self, carrier, small_instance):
        carrier.send(TASK_TAG, task_frame(small_instance, make_tasks(small_instance, 1)))
        with pytest.raises(RuntimeError, match="before problem bind"):
            run_loop(carrier)

    def test_undecodable_task_frame_raises_wire_error(self, carrier, small_instance):
        frame = task_frame(small_instance, make_tasks(small_instance, 1))
        carrier.send(REBIND_TAG, encode_bind(small_instance, CONFIG))
        carrier.send(TASK_TAG, frame[:-3])
        with pytest.raises(WireError):
            run_loop(carrier)
        assert carrier.replies() == []

    def test_armed_plan_still_audits_x_init(self, carrier, small_instance):
        task = make_tasks(small_instance, 1)[0]
        bad = type(task.x_init).trusted(task.x_init.x, task.x_init.value + 1.0)
        carrier.send(REBIND_TAG, encode_bind(small_instance, CONFIG))
        carrier.send(
            TASK_TAG, task_frame(small_instance, [dataclasses.replace(task, x_init=bad)])
        )
        with pytest.raises(ValueError, match="corrupt x_init"):
            run_loop(carrier, NEVER_FIRING)
        assert carrier.replies() == []


class TestWorkerProcesses:
    """The carrier setup of each agent, in a real worker process."""

    def test_pipe_shm_worker(self, small_instance, mp_context):
        if not shm_available():
            pytest.skip("POSIX shared memory unavailable on this host")
        ctx = multiprocessing.get_context(mp_context)
        parent, child = ctx.Pipe()
        task_ring, report_ring = ShmRing.create(1 << 14), ShmRing.create(1 << 14)
        master = ShmComm(parent, send_ring=task_ring, recv_ring=report_ring)
        proc = ctx.Process(
            target=_worker_main,
            args=(child, small_instance, CONFIG, (0,), FaultPlan.none(),
                  (task_ring.name, report_ring.name)),
            daemon=True,
        )
        proc.start()
        child.close()
        try:
            other = gk_instance(1)
            tasks = make_tasks(other, 2)
            master.send(encode_bind(other, CONFIG), tag=REBIND_TAG)
            master.send(task_frame(other, tasks), tag=TASK_TAG)
            reply = master.recv(tag=RESULT_TAG, timeout=60.0)
            master.send(b"", tag=STOP_TAG)
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
            assert master.pipe_payload_bytes == len(encode_bind(other, CONFIG))
        finally:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
            master.close()
            task_ring.unlink()
            report_ring.unlink()
        reports, _ = WireCodec(other.n_items).decode_report_batch(reply)
        reference = SlaveRuntime(other, CONFIG, slave_id=0)
        assert report_keys(reports) == report_keys(
            [reference.execute(t, slave_id=k) for k, t in enumerate(tasks)]
        )

    def test_socket_worker(self, small_instance, mp_context):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(60.0)
        host, port = listener.getsockname()
        proc = multiprocessing.get_context(mp_context).Process(
            target=run_worker, args=(host, port), kwargs={"name": "loop-test"}, daemon=True
        )
        proc.start()
        try:
            conn, _ = listener.accept()
            conn.settimeout(60.0)
            tag, hello = _recv_frame(conn)
            assert tag == HELLO_TAG and decode_hello(hello)[1] == "loop-test"
            tasks = make_tasks(small_instance, 2)
            for tag, frame in (
                (REBIND_TAG, encode_bind(small_instance, CONFIG)),
                (TASK_TAG, task_frame(small_instance, tasks)),
            ):
                conn.sendall(_WIRE_HEADER.pack(tag, len(frame)) + frame)
            while True:  # heartbeats may arrive ahead of the reply
                tag, reply = _recv_frame(conn)
                if tag == RESULT_TAG:
                    break
            conn.sendall(_WIRE_HEADER.pack(STOP_TAG, 0))
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
            conn.close()
        finally:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
            listener.close()
        reports, _ = WireCodec(small_instance.n_items).decode_report_batch(reply)
        reference = SlaveRuntime(small_instance, CONFIG, slave_id=0)
        assert report_keys(reports) == report_keys(
            [reference.execute(t, slave_id=k) for k, t in enumerate(tasks)]
        )
