"""Point-to-point communication in the mpi4py idiom.

The guides' mpi4py tutorial fixes the API shape we mirror: lowercase
``send(obj, dest, tag)`` / ``recv(source, tag)``.  Nothing here pickles:
every byte charge is a frame length.  Two realisations:

:class:`InProcComm`
    Per-(endpoint, tag) FIFO queues inside one process.  Used by the serial
    and simulated backends: objects travel by reference, charged at their
    :class:`~repro.parallel.shm.WireCodec` frame length, so
    :attr:`InProcComm.bytes_sent` feeds the farm's crossbar cost model.

:class:`PipeComm`
    A thin wrapper over a ``multiprocessing`` duplex pipe that moves tagged
    byte frames, giving worker processes the same two-method surface.

Both enforce *message conservation*: every ``recv`` returns an object that
was ``send``-ed exactly once (property-tested).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Protocol

__all__ = [
    "Comm",
    "InProcComm",
    "PipeComm",
    "MessageRouter",
    "CommTimeout",
    "CommClosedError",
]


class CommTimeout(TimeoutError):
    """A bounded ``recv`` expired before any message arrived."""


class CommClosedError(RuntimeError):
    """Send/recv attempted on an endpoint that was already closed."""


class Comm(Protocol):
    """Minimal point-to-point protocol (mpi4py lowercase subset)."""

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:  # pragma: no cover
        ...

    def recv(self, source: int, tag: int = 0) -> Any:  # pragma: no cover
        ...


class MessageRouter:
    """Shared mailbox fabric for a set of in-process endpoints.

    Endpoint ``r``'s inbox for tag ``t`` is keyed ``(r, t)``.  The router
    also keeps byte counters per (src, dest) pair and per tag so the
    simulated farm can charge the exact traffic to the crossbar and the
    benchmarks can attribute it to task/report streams.  A message is
    charged its wire size: a ``bytes`` frame its length, a task or report
    the length of its ``codec`` frame (the serial backend installs the
    run's codec at ``start()``).
    """

    def __init__(self, codec: Any = None) -> None:
        #: :class:`~repro.parallel.shm.WireCodec` sizing tasks and reports
        self.codec = codec
        self._queues: dict[tuple[int, int], deque[tuple[Any, int]]] = defaultdict(deque)
        self.bytes_by_pair: dict[tuple[int, int], int] = defaultdict(int)
        self.messages_by_pair: dict[tuple[int, int], int] = defaultdict(int)
        self.bytes_by_tag: dict[int, int] = defaultdict(int)
        self.messages_by_tag: dict[int, int] = defaultdict(int)

    def push(self, src: int, dest: int, tag: int, obj: Any) -> int:
        """Enqueue and return the charged payload size in bytes."""
        if isinstance(obj, bytes):
            nbytes = len(obj)
        elif self.codec is None:
            raise TypeError(f"router has no codec to size a {type(obj).__name__}")
        else:
            nbytes = len(self.codec.encode(obj))
        self._queues[(dest, tag)].append((obj, nbytes))
        self.bytes_by_pair[(src, dest)] += nbytes
        self.messages_by_pair[(src, dest)] += 1
        self.bytes_by_tag[tag] += nbytes
        self.messages_by_tag[tag] += 1
        return nbytes

    def pop(self, dest: int, tag: int) -> tuple[Any, int]:
        """Dequeue one ``(obj, nbytes)`` pair.

        The payload size measured at :meth:`push` rides along, so the
        receive side never re-encodes the object just to re-derive a number
        already known.
        """
        queue = self._queues[(dest, tag)]
        if not queue:
            raise RuntimeError(
                f"recv on empty mailbox: endpoint {dest}, tag {tag} "
                "(in-process comm is synchronous; send before recv)"
            )
        return queue.popleft()

    def pending(self, dest: int, tag: int) -> int:
        return len(self._queues[(dest, tag)])

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_pair.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_pair.values())


class InProcComm:
    """One endpoint (rank) attached to a :class:`MessageRouter`."""

    def __init__(self, router: MessageRouter, rank: int) -> None:
        self.router = router
        self.rank = int(rank)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_nbytes = 0

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        nbytes = self.router.push(self.rank, dest, tag, obj)
        self.bytes_sent += nbytes
        self.last_nbytes = nbytes

    def recv(self, source: int, tag: int = 0) -> Any:
        # ``source`` is advisory for in-process FIFOs (single mailbox per
        # (dest, tag)); kept for API parity with MPI.
        obj, nbytes = self.router.pop(self.rank, tag)
        self.bytes_received += nbytes
        self.last_nbytes = nbytes
        return obj

    def probe(self, tag: int = 0) -> bool:
        """Non-blocking check whether a message is waiting (iprobe)."""
        return self.router.pending(self.rank, tag) > 0


class PipeComm:
    """mpi4py-style facade over one end of a ``multiprocessing`` pipe.

    Each master↔worker pair owns a private duplex pipe, so ``dest`` /
    ``source`` are fixed by construction and the arguments are accepted
    only for API parity.  It moves byte frames only: each pipe message is
    one tag byte followed by the frame, charged ``len(frame)`` on both
    ends, and nothing is ever unpickled.  A recv with a mismatched tag is a
    protocol error, loudly reported.

    Hardened surface (chaos-test requirements): ``recv`` takes an optional
    ``timeout`` in seconds and raises :class:`CommTimeout` instead of
    blocking forever on a dead peer; ``close`` is idempotent; operations on
    a closed endpoint raise :class:`CommClosedError` rather than hitting
    the raw OS handle.
    """

    def __init__(self, connection: Any) -> None:
        self._conn = connection
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def connection(self) -> Any:
        """The underlying OS connection (for ``multiprocessing.connection.wait``).

        The multiplexed gather selects over many endpoints at once; exposing
        the raw handle read-only keeps the event loop out of this class
        while the tagged-protocol framing stays behind :meth:`recv`.
        """
        return self._conn

    def _check_open(self) -> None:
        if self._closed:
            raise CommClosedError("operation on closed PipeComm endpoint")

    def send(self, frame: bytes, dest: int = 0, tag: int = 0) -> None:
        self._check_open()
        message = bytes((tag,)) + frame
        self.bytes_sent += len(frame)
        try:
            self._conn.send_bytes(message)
        except (BrokenPipeError, OSError) as exc:
            raise CommClosedError(
                f"peer gone while sending tag {tag}: {exc}"
            ) from exc

    def recv(self, source: int = 0, tag: int = 0, timeout: float | None = None) -> bytes:
        """Receive one frame under ``tag``; see :meth:`recv_message`."""
        got_tag, frame = self.recv_message(timeout)
        if got_tag != tag:
            raise RuntimeError(
                f"protocol error: expected message tag {tag}, received {got_tag}"
            )
        return frame

    def recv_message(self, timeout: float | None = None) -> tuple[int, bytes]:
        """Receive the next ``(tag, frame)``; bounded wait when ``timeout`` is set.

        A finite ``timeout`` turns a hung or crashed peer into
        :class:`CommTimeout`.  A peer dying mid-frame (bare ``EOFError`` /
        ``OSError``) becomes :class:`CommClosedError`, so the gather loops
        take the dead-rank path.  ``CommTimeout`` is raised *outside* that
        handler: ``TimeoutError`` is an ``OSError`` subclass, and a naive
        ``except OSError`` would re-label the timeout as a closed peer.
        """
        self._check_open()
        if timeout is not None:
            try:
                has_message = self._conn.poll(timeout)
            except OSError as exc:
                raise CommClosedError(f"peer gone while polling: {exc}") from exc
            if not has_message:
                raise CommTimeout(
                    f"no message within {timeout:.3f}s; peer crashed or hung?"
                )
        try:
            message = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise CommClosedError(f"peer closed mid-frame: {exc}") from exc
        if not message:
            raise RuntimeError("protocol error: pipe message without a tag byte")
        self.bytes_received += len(message) - 1
        return message[0], message[1:]

    def poll(self, timeout: float = 0.0) -> bool:
        """Non-blocking (or bounded) check for a waiting message."""
        if self._closed:
            return False
        return bool(self._conn.poll(timeout))

    def close(self) -> None:
        """Release the underlying connection; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down by the OS
            pass
