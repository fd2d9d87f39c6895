"""Unit and property tests for the message-passing layer."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Budget, Solution, Strategy
from repro.parallel import (
    CommClosedError,
    CommTimeout,
    ShmComm,
    SlaveReport,
    SlaveTask,
    WireCodec,
)


class TestMessages:
    def test_task_pickles(self):
        import pickle

        task = SlaveTask(
            x_init=Solution(np.array([1, 0, 1]), 5.0),
            strategy=Strategy(10, 2, 20),
            budget=Budget(max_evaluations=100),
            seed=42,
            round_index=3,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.seed == 42
        assert clone.strategy == task.strategy
        assert clone.x_init == task.x_init

    def test_report_improved_flag(self):
        best = Solution(np.array([1, 0]), 10.0)
        assert SlaveReport(0, best, initial_value=9.0).improved
        assert not SlaveReport(0, best, initial_value=10.0).improved


class TestPipeCommLifecycle:
    def test_double_close_is_noop(self):
        here, there = mp.Pipe()
        comm = ShmComm(here)
        comm.close()
        comm.close()  # second close must not raise
        assert comm.closed
        there.close()

    def test_closed_endpoint_rejects_operations(self):
        here, there = mp.Pipe()
        comm = ShmComm(here)
        comm.close()
        with pytest.raises(CommClosedError):
            comm.send("x")
        with pytest.raises(CommClosedError):
            comm.recv()
        assert comm.poll() is False
        there.close()


def _die_after_partial_frame(conn) -> None:
    """Write half a frame on the raw handle, then die without cleanup.

    Reproduces the crash window: the parent's ``poll(timeout)`` sees a
    readable handle, but the frame can never complete — ``Connection.recv``
    then raises a bare ``EOFError``/``OSError`` mid-read.
    """
    import os

    # A multiprocessing frame is a 4-byte big-endian length + payload;
    # claim 64 bytes, deliver 4, and vanish.
    os.write(conn.fileno(), b"\x00\x00\x00\x40" + b"dead")
    os._exit(9)


class TestPipeCommCrashWindow:
    """Regression: a peer dying mid-frame must surface as CommClosedError."""

    def test_recv_normalizes_peer_closed_before_frame(self):
        here, there = mp.Pipe()
        comm = ShmComm(here)
        there.close()  # peer gone; poll() reports readable (EOF) instantly
        with pytest.raises(CommClosedError):
            comm.recv(timeout=1.0)
        comm.close()

    def test_recv_normalizes_killed_peer_partial_frame(self, mp_context):
        ctx = mp.get_context(mp_context)
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_die_after_partial_frame, args=(there,))
        proc.start()
        there.close()  # only the child holds the peer end now
        comm = ShmComm(here)
        proc.join(timeout=10)
        # poll(timeout) returns True — bytes ARE waiting — yet the frame is
        # torn: recv must report a closed peer, not a raw OS exception.
        with pytest.raises(CommClosedError):
            comm.recv(timeout=5.0)
        comm.close()

    def test_send_normalizes_broken_pipe(self):
        here, there = mp.Pipe()
        comm = ShmComm(here)
        there.close()
        with pytest.raises(CommClosedError):
            for _ in range(64):  # first sends may land in the OS buffer
                comm.send(b"x")
        comm.close()

    def test_timeout_is_not_mislabelled_as_closed(self):
        # TimeoutError is an OSError subclass since Python 3.3: a silent
        # (but live) peer must still raise CommTimeout, never be swallowed
        # by the closed-peer normalization.
        here, there = mp.Pipe()
        comm = ShmComm(here)
        with pytest.raises(CommTimeout):
            comm.recv(timeout=0.01)
        assert issubclass(CommTimeout, OSError)  # the trap being guarded
        comm.close()
        there.close()


@st.composite
def solutions(draw, n_items=None):
    if n_items is None:
        n_items = draw(st.integers(1, 12))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_items, max_size=n_items))
    value = draw(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    )
    return Solution(np.array(bits, dtype=np.int8), value)


@st.composite
def strategies_(draw):
    return Strategy(
        lt_length=draw(st.integers(1, 100)),
        nb_drop=draw(st.integers(1, 10)),
        nb_local=draw(st.integers(1, 100)),
    )


class TestMessageIdRoundTrip:
    """Serialization property tests over the idempotency ids (satellite 1)."""

    @given(
        sol=solutions(),
        strategy=strategies_(),
        seed=st.integers(0, 2**31 - 1),
        round_index=st.integers(0, 500),
        seq_id=st.integers(0, 100_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_slave_task_round_trips(self, sol, strategy, seed, round_index, seq_id):
        task = SlaveTask(
            x_init=sol,
            strategy=strategy,
            budget=Budget(max_evaluations=100),
            seed=seed,
            round_index=round_index,
            seq_id=seq_id,
        )
        codec = WireCodec(sol.n_items)
        clone = codec.decode_task(codec.encode_task(task))
        assert clone == task
        assert (clone.round_index, clone.seq_id) == (round_index, seq_id)

    @given(
        solutions=st.integers(1, 12).flatmap(
            lambda n: st.tuples(solutions(n), st.lists(solutions(n), max_size=4))
        ),
        slave_id=st.integers(0, 63),
        initial_value=st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        evaluations=st.integers(0, 10**7),
        round_index=st.integers(0, 500),
        seq_id=st.integers(0, 100_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_slave_report_round_trips(
        self, solutions, slave_id, initial_value, evaluations, round_index, seq_id
    ):
        best, elite = solutions
        report = SlaveReport(
            slave_id=slave_id,
            best=best,
            elite=elite,
            initial_value=initial_value,
            evaluations=evaluations,
            round_index=round_index,
            seq_id=seq_id,
        )
        codec = WireCodec(best.n_items)
        clone = codec.decode_report(codec.encode_report(report))
        assert clone == report
        assert (clone.round_index, clone.seq_id) == (round_index, seq_id)
        assert clone.improved == (best.value > initial_value)
