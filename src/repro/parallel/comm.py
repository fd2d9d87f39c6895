"""Point-to-point pipe communication in the mpi4py idiom.

The guides' mpi4py tutorial fixes the API shape we mirror: lowercase
``send(frame, dest, tag)`` / ``recv(source, tag)``.  :class:`PipeComm` is a
thin wrapper over a ``multiprocessing`` duplex pipe that moves tagged byte
frames, giving worker processes that two-method surface.  Nothing here
pickles: every byte charge is a frame length.  Every ``recv`` returns a
frame that was ``send``-ed exactly once.
"""

from __future__ import annotations

from typing import Any

__all__ = ["PipeComm", "CommTimeout", "CommClosedError"]


class CommTimeout(TimeoutError):
    """A bounded ``recv`` expired before any message arrived."""


class CommClosedError(RuntimeError):
    """Send/recv attempted on an endpoint that was already closed."""


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
