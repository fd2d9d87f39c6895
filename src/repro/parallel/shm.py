"""Zero-copy shared-memory transport: seqlock rings behind a pipe doorbell.

A pipe copies every frame through the kernel.  This module demotes it to a
*doorbell* — an empty message under the task or report tag that only says
"a frame is waiting" — while the actual payload moves through a
``multiprocessing.shared_memory`` ring buffer that both sides map once, at
spawn.  Both layers move bytes only; the frames themselves are
:mod:`repro.parallel.wire`'s, encoded and decoded by whoever owns the
endpoint (the backend on the master side, the shared worker loop on the
other).

:class:`ShmRing`
    A single-producer/single-consumer byte ring over one shared-memory
    segment.  The 64-byte header holds the write/read cursors plus a
    seqlock-style write sequence counter (``wseq``): the writer makes it
    odd before touching the cursor and even after, so a reader that loads
    an odd value — or sees the value change across its cursor snapshot —
    knows it raced a write and retries.  Each frame additionally carries a
    monotone frame sequence number; a reader that decodes a frame whose
    number is not exactly "last read + 1" raises :class:`TornFrameError`
    instead of silently consuming garbage (the property suite in
    ``tests/test_shm.py`` forges both corruptions).

:class:`ShmComm`
    The one byte carrier of a pipe or shm worker: a private duplex pipe
    whose messages are a tag byte plus a frame, with an optional send ring
    and receive ring.  ``send`` writes a task or report frame into the ring
    and pushes only the doorbell through the pipe.  When a ring is absent
    (non-POSIX host, exhausted shm, attach failure) or momentarily full,
    the *same frame bytes* ride in-band through the pipe instead — the
    receive side keys off the doorbell's empty body, so no negotiation is
    needed and the frames, and so the byte ledgers, are identical either
    way.  That equality is what keeps serialized run records byte-identical
    across ``transport ∈ {pipe, shm}`` (the differential suite's contract).
    Closing the carrier unlinks the rings its side created.

Transport selection: :func:`resolve_transport` prefers an explicit
argument, then ``REPRO_TRANSPORT`` (``shm`` | ``pipe``), then picks
``shm`` wherever :func:`shm_available` proves a segment can actually be
created — pipes remain the automatic fallback everywhere else.

``WireCodec`` and ``WireError`` are re-exported here: layerbench's tracer
wraps ``shm.WireCodec`` by name.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Any

from .message import RESULT_TAG, TASK_TAG
from .wire import WireCodec, WireError

__all__ = [
    "CommClosedError",
    "CommTimeout",
    "DEFAULT_RING_NBYTES",
    "FrameTooLarge",
    "RingEmpty",
    "RingFull",
    "ShmComm",
    "ShmRing",
    "TornFrameError",
    "WireCodec",
    "WireError",
    "resolve_transport",
    "shm_available",
]


class RingError(RuntimeError):
    """Base class for ring-buffer protocol errors."""


class RingFull(RingError):
    """``write`` found too little free space for the frame."""


class RingEmpty(RingError):
    """``read`` found no complete frame in the ring."""


class FrameTooLarge(RingError):
    """The frame can never fit the ring, even empty."""


class TornFrameError(RingError):
    """The reader observed a torn or out-of-sequence frame.

    Raised when the seqlock stays odd past the spin budget (writer died
    mid-write) or when a decoded frame header fails validation (frame
    sequence number out of order, length beyond the readable span) —
    i.e. whenever consuming the bytes would return garbage.
    """


# ---------------------------------------------------------------------- #
# Ring buffer
# ---------------------------------------------------------------------- #

#: Default ring capacity per direction.  A GK-scale round moves a few KiB
#: per slave; 1 MiB absorbs whole batched rounds plus chaos duplicates
#: without ever exercising the in-band overflow fallback.
DEFAULT_RING_NBYTES = 1 << 20

_HEADER_NBYTES = 64
_MAGIC = 0x53_4C_52_50  # "SLRP"
_OFF_MAGIC = 0
_OFF_CAPACITY = 8
_OFF_WIDX = 16
_OFF_WSEQ = 24
_OFF_RIDX = 32
_OFF_FRAMES_WRITTEN = 40
_OFF_FRAMES_READ = 48

_U64 = struct.Struct("<Q")
_FRAME_HEADER = struct.Struct("<II")  # payload length, frame sequence number


class ShmRing:
    """SPSC byte ring over one ``multiprocessing.shared_memory`` segment.

    Cursors are *logical* (monotonically increasing) offsets; the physical
    position is ``cursor % capacity``, so ``widx - ridx`` is always the
    exact number of unread bytes and full/empty never alias.  CPython's
    allocator-level memory operations make each 8-byte header store
    effectively atomic under the GIL-free reader; the seqlock exists
    because the *pair* (cursor advance + payload bytes) is not.
    """

    def __init__(self, shm: Any, *, owner: bool, spin: int = 10_000) -> None:
        self._shm = shm
        self._buf = shm.buf
        #: this side created the segment; :meth:`ShmComm.close` unlinks it
        self.owner = bool(owner)
        self._spin = int(spin)
        self._closed = False
        self.capacity = int(self._get(_OFF_CAPACITY))

    # -- construction -------------------------------------------------- #
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_NBYTES, *, spin: int = 10_000) -> "ShmRing":
        """Allocate a fresh segment and initialise the header."""
        if capacity < _FRAME_HEADER.size + 1:
            raise ValueError(f"ring capacity too small: {capacity}")
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=_HEADER_NBYTES + capacity)
        ring = cls.__new__(cls)
        ring._shm = shm
        ring._buf = shm.buf
        ring.owner = True
        ring._spin = int(spin)
        ring._closed = False
        ring._buf[:_HEADER_NBYTES] = bytes(_HEADER_NBYTES)
        ring._set(_OFF_CAPACITY, capacity)
        ring._set(_OFF_MAGIC, _MAGIC)
        ring.capacity = int(capacity)
        return ring

    @classmethod
    def attach(cls, name: str, *, spin: int = 10_000) -> "ShmRing":
        """Map an existing segment by name (the non-owning side)."""
        from multiprocessing import resource_tracker, shared_memory

        # CPython (3.8–3.12) registers the segment with the resource
        # tracker on *attach* as well as create; left alone, the shared
        # tracker would try to unlink a segment the creating side still
        # owns (and lose the creator's registration, so the real unlink
        # later warns).  Suppress registration for the duration of the
        # attach — the creating side keeps sole unlink responsibility.
        orig_register = resource_tracker.register

        def _no_register(name_: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - other rtypes
                orig_register(name_, rtype)

        resource_tracker.register = _no_register
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register
        ring = cls(shm, owner=False, spin=spin)
        if ring._get(_OFF_MAGIC) != _MAGIC:
            ring.close()
            raise ValueError(f"segment {name!r} is not a ShmRing")
        return ring

    # -- header accessors ---------------------------------------------- #
    def _get(self, offset: int) -> int:
        return _U64.unpack_from(self._buf, offset)[0]

    def _set(self, offset: int, value: int) -> None:
        _U64.pack_into(self._buf, offset, value & 0xFFFF_FFFF_FFFF_FFFF)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def closed(self) -> bool:
        return self._closed

    def used(self) -> int:
        """Unread bytes currently in the ring (reader-safe snapshot)."""
        return self._stable_widx() - self._get(_OFF_RIDX)

    def free(self) -> int:
        return self.capacity - (self._get(_OFF_WIDX) - self._get(_OFF_RIDX))

    # -- wrap-aware byte copies ---------------------------------------- #
    def _write_bytes(self, at: int, data: bytes) -> None:
        pos = at % self.capacity
        first = min(len(data), self.capacity - pos)
        lo = _HEADER_NBYTES + pos
        self._buf[lo : lo + first] = data[:first]
        if first < len(data):
            rest = len(data) - first
            self._buf[_HEADER_NBYTES : _HEADER_NBYTES + rest] = data[first:]

    def _read_bytes(self, at: int, n: int) -> bytes:
        pos = at % self.capacity
        first = min(n, self.capacity - pos)
        lo = _HEADER_NBYTES + pos
        out = bytes(self._buf[lo : lo + first])
        if first < n:
            out += bytes(self._buf[_HEADER_NBYTES : _HEADER_NBYTES + (n - first)])
        return out

    # -- seqlock -------------------------------------------------------- #
    def _stable_widx(self) -> int:
        """Consistent write-cursor snapshot; spins across in-flight writes."""
        for attempt in range(self._spin):
            seq = self._get(_OFF_WSEQ)
            if seq & 1:  # writer mid-frame: cursor may be half-published
                if attempt > 100:
                    time.sleep(0.0001)
                continue
            widx = self._get(_OFF_WIDX)
            if self._get(_OFF_WSEQ) == seq:
                return widx
        raise TornFrameError(
            "write seqlock never stabilised "
            f"(wseq={self._get(_OFF_WSEQ)}; writer crashed mid-frame?)"
        )

    # -- frame I/O ------------------------------------------------------ #
    def write(self, payload: bytes) -> int:
        """Append one frame; returns its sequence number.

        Raises :class:`RingFull` when the frame does not currently fit and
        :class:`FrameTooLarge` when it never can.
        """
        data = bytes(payload)
        need = _FRAME_HEADER.size + len(data)
        if need > self.capacity:
            raise FrameTooLarge(
                f"frame of {len(data)} bytes exceeds ring capacity {self.capacity}"
            )
        widx = self._get(_OFF_WIDX)
        if need > self.capacity - (widx - self._get(_OFF_RIDX)):
            raise RingFull(f"{need} bytes needed, {self.free()} free")
        fseq = (self._get(_OFF_FRAMES_WRITTEN) + 1) & 0xFFFF_FFFF
        wseq = self._get(_OFF_WSEQ)
        self._set(_OFF_WSEQ, wseq + 1)  # odd: write in flight
        self._write_bytes(widx, _FRAME_HEADER.pack(len(data), fseq))
        self._write_bytes(widx + _FRAME_HEADER.size, data)
        self._set(_OFF_FRAMES_WRITTEN, self._get(_OFF_FRAMES_WRITTEN) + 1)
        self._set(_OFF_WIDX, widx + need)
        self._set(_OFF_WSEQ, wseq + 2)  # even: frame fully published
        return fseq

    def read(self) -> bytes:
        """Consume and return the next frame's payload.

        Raises :class:`RingEmpty` with no complete frame published and
        :class:`TornFrameError` when validation fails (see class doc).
        """
        widx = self._stable_widx()
        ridx = self._get(_OFF_RIDX)
        avail = widx - ridx
        if avail == 0:
            raise RingEmpty("no frame in ring")
        if avail < _FRAME_HEADER.size:
            raise TornFrameError(f"partial frame header: {avail} bytes readable")
        length, fseq = _FRAME_HEADER.unpack(self._read_bytes(ridx, _FRAME_HEADER.size))
        expected = (self._get(_OFF_FRAMES_READ) + 1) & 0xFFFF_FFFF
        if fseq != expected:
            raise TornFrameError(
                f"frame sequence {fseq} != expected {expected} (torn or corrupt ring)"
            )
        if length > avail - _FRAME_HEADER.size:
            raise TornFrameError(
                f"frame claims {length} payload bytes, only "
                f"{avail - _FRAME_HEADER.size} readable"
            )
        data = self._read_bytes(ridx + _FRAME_HEADER.size, length)
        self._set(_OFF_FRAMES_READ, self._get(_OFF_FRAMES_READ) + 1)
        self._set(_OFF_RIDX, ridx + _FRAME_HEADER.size + length)
        return data

    def poll(self) -> bool:
        """Whether :meth:`read` would return (or raise Torn) right now."""
        try:
            return self.used() > 0
        except TornFrameError:
            return True  # let read() surface the diagnosis

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Drop this side's mapping; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buf = None  # release the exported memoryview before unmap
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment name (owner side, after both closed)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# ---------------------------------------------------------------------- #
# Transport availability / selection
# ---------------------------------------------------------------------- #

_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether POSIX shared memory verifiably works on this host (cached)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        if os.name != "posix":
            _AVAILABLE = False
        else:
            try:
                ring = ShmRing.create(capacity=64)
                ring.close()
                ring.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


def resolve_transport(explicit: str | None = None) -> str:
    """Pick ``"shm"`` or ``"pipe"``: explicit > ``REPRO_TRANSPORT`` > auto.

    An explicit/env request for ``shm`` on a host without working POSIX
    shared memory degrades to ``pipe`` (the automatic-fallback contract)
    rather than erroring; anything other than ``shm``/``pipe`` is rejected.
    """
    choice = explicit
    if choice is None:
        env = os.environ.get("REPRO_TRANSPORT", "").strip().lower()
        choice = env or None
    if choice is not None:
        choice = choice.strip().lower()
        if choice not in ("shm", "pipe"):
            raise ValueError(f"unknown transport {choice!r}; expected 'shm' or 'pipe'")
    if choice is None:
        choice = "shm" if shm_available() else "pipe"
    elif choice == "shm" and not shm_available():
        choice = "pipe"
    return choice


# ---------------------------------------------------------------------- #
# Carrier
# ---------------------------------------------------------------------- #


class CommTimeout(TimeoutError):
    """A bounded ``recv`` expired before any message arrived."""


class CommClosedError(RuntimeError):
    """Send/recv attempted on an endpoint that was already closed."""


class ShmComm:
    """One worker's byte carrier: a duplex pipe plus optional shm rings.

    Each master↔worker pair owns a private pipe.  Every pipe message is one
    tag byte followed by a frame; nothing is ever unpickled.  The carrier
    knows nothing of the frames' content: the backend (master side) and the
    worker loop own the :class:`~repro.parallel.wire.WireCodec` and its byte
    ledger.  Task and report frames take the send ring; control frames
    (STOP, REBIND) — an empty one, or a bind frame — ride the pipe as they
    are.

    Per-frame carrier selection, visible in the doorbell itself:

    * ring write succeeded → an empty pipe message under the tag;
    * no ring / ring full  → the frame bytes ride the pipe in-band.

    ``bytes_sent``/``bytes_received`` count only the in-band frame bytes
    (``pipe_payload_bytes`` is their sum) — the "bytes through pipes" gate
    in ``tests/test_shm.py`` asserts it stays ≈ 0 on the shm path.

    Hardened surface (chaos-test requirements): ``recv`` takes an optional
    ``timeout`` in seconds and raises :class:`CommTimeout` instead of
    blocking forever on a dead peer; a peer dying mid-frame raises
    :class:`CommClosedError`, as does any operation on a closed endpoint.
    :meth:`close` is idempotent and also unlinks the rings this side
    created (:attr:`ShmRing.owner`), so the master's carrier owns its
    worker's segments.  A forked worker inherits the master's carriers but
    never closes them, so it cannot unlink another worker's rings.
    """

    def __init__(
        self,
        connection: Any,
        *,
        send_ring: ShmRing | None = None,
        recv_ring: ShmRing | None = None,
    ) -> None:
        #: the raw pipe end (for ``multiprocessing.connection.wait``)
        self.connection = connection
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        #: frames whose payload fell back to the in-band pipe carrier
        self.ring_overflows = 0

    @property
    def transport(self) -> str:
        return "shm" if (self.send_ring or self.recv_ring) else "pipe"

    @property
    def pipe_payload_bytes(self) -> int:
        """Frame bytes that crossed the pipe in either direction (in-band)."""
        return self.bytes_sent + self.bytes_received

    def _check_open(self) -> None:
        if self.closed:
            raise CommClosedError("operation on closed ShmComm endpoint")

    def poll(self, timeout: float = 0.0) -> bool:
        """Non-blocking (or bounded) check for a waiting message."""
        return not self.closed and bool(self.connection.poll(timeout))

    def close(self) -> None:
        """Close the pipe end and ring mappings, unlinking owned rings."""
        if self.closed:
            return
        self.closed = True
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already torn down by the OS
            pass
        for ring in (self.send_ring, self.recv_ring):
            if ring is not None:
                ring.close()
                if ring.owner:
                    ring.unlink()

    # -- frames ----------------------------------------------------------- #
    def send(self, frame: bytes, tag: int = 0) -> None:
        """Send one frame: task/report frames ring-first, control in-band."""
        self._check_open()
        if tag in (TASK_TAG, RESULT_TAG) and self.send_ring is not None:
            try:
                self.send_ring.write(frame)
                frame = b""
            except (RingFull, FrameTooLarge):
                # Momentarily full or permanently too small: either way the
                # same frame bytes ride the pipe in-band instead.
                self.ring_overflows += 1
        message = bytes((tag,)) + frame
        self.bytes_sent += len(frame)
        try:
            self.connection.send_bytes(message)
        except (BrokenPipeError, OSError) as exc:
            raise CommClosedError(f"peer gone while sending tag {tag}: {exc}") from exc

    def recv(self, tag: int = 0, timeout: float | None = None) -> bytes:
        """Receive one frame under ``tag``; see :meth:`recv_message`."""
        got_tag, frame = self.recv_message(timeout)
        if got_tag != tag:
            raise RuntimeError(
                f"protocol error: expected message tag {tag}, received {got_tag}"
            )
        return frame

    def recv_message(self, timeout: float | None = None) -> tuple[int, bytes]:
        """Receive the next ``(tag, frame)`` of any tag.

        A finite ``timeout`` turns a hung or crashed peer into
        :class:`CommTimeout`.  A peer dying mid-frame (bare ``EOFError`` /
        ``OSError``) becomes :class:`CommClosedError`, so the gather loops
        take the dead-rank path.  ``CommTimeout`` is raised *outside* that
        handler: ``TimeoutError`` is an ``OSError`` subclass, and a naive
        ``except OSError`` would re-label the timeout as a closed peer.

        An empty task or report message is a doorbell: its frame is the
        next one in the receive ring.
        """
        self._check_open()
        if timeout is not None:
            try:
                has_message = self.connection.poll(timeout)
            except OSError as exc:
                raise CommClosedError(f"peer gone while polling: {exc}") from exc
            if not has_message:
                raise CommTimeout(
                    f"no message within {timeout:.3f}s; peer crashed or hung?"
                )
        try:
            message = self.connection.recv_bytes()
        except (EOFError, OSError) as exc:
            raise CommClosedError(f"peer closed mid-frame: {exc}") from exc
        if not message:
            raise RuntimeError("protocol error: pipe message without a tag byte")
        tag, frame = message[0], message[1:]
        self.bytes_received += len(frame)
        if frame or tag not in (TASK_TAG, RESULT_TAG):
            return tag, frame
        if self.recv_ring is None:
            raise RuntimeError("doorbell without ring: no payload carrier")
        return tag, self.recv_ring.read()
