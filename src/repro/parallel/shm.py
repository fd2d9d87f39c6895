"""Zero-copy shared-memory transport: seqlock rings + compact wire frames.

A pipe copies every frame through the kernel.  This module demotes it to a
*doorbell* — an empty message under the task or report tag that only says
"a frame is waiting" — while the actual payload moves through a ``multiprocessing.shared_memory`` ring
buffer that both sides map once, at spawn.

Three layers, bottom up, and the control frames:

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

:class:`WireCodec`
    Fixed binary frames (``struct``, no pickle) for
    :class:`~repro.parallel.message.SlaveTask` /
    :class:`~repro.parallel.message.SlaveReport` and their batched forms:
    the one encoding and byte charge on every carrier, serial included.
    Solutions travel as packed-bit frames (``8 + ceil(n/8)`` bytes) that
    seed the decoded object's ``packed_words`` memo.  The control frames
    (:func:`encode_bind`, :func:`encode_hello`) sit beside it, and every
    decoder is total: it consumes its frame exactly or raises
    :class:`WireError`.

:class:`ShmComm`
    A :class:`~repro.parallel.comm.PipeComm`-compatible endpoint: same
    ``send``/``recv``/``poll``/``close`` surface, same byte counters, same
    ``.connection`` handle for the multiplexed gather — but ``send``
    encodes the message with the codec, writes the frame into the ring and
    pushes only the doorbell through the pipe.  When a ring is absent
    (non-POSIX host, exhausted shm, attach failure) or momentarily full,
    the *same frame bytes* ride in-band through the pipe instead — the
    receive side keys off the doorbell's empty body, so no negotiation
    is needed and the byte ledgers are identical either way.  That
    equality is what keeps serialized run records byte-identical across
    ``transport ∈ {pipe, shm}`` (the differential suite's contract).

Transport selection: :func:`resolve_transport` prefers an explicit
argument, then ``REPRO_TRANSPORT`` (``shm`` | ``pipe``), then picks
``shm`` wherever :func:`shm_available` proves a segment can actually be
created — pipes remain the automatic fallback everywhere else.
"""

from __future__ import annotations

import functools
import os
import struct
import time
from typing import Any, Callable

import numpy as np

from ..core.diversification import DiversificationConfig
from ..core.instance import MKPInstance
from ..core.reduction import _pattern_from_wire
from ..core.solution import Solution, _solution_from_wire
from ..core.strategy import Strategy, StrategyBounds
from ..core.tabu_search import IntensificationKind, TabuSearchConfig
from ..core.termination import Budget
from .comm import PipeComm
from .message import RESULT_TAG, TASK_TAG, SlaveReport, SlaveTask

__all__ = [
    "DEFAULT_RING_NBYTES",
    "FrameTooLarge",
    "RingEmpty",
    "RingFull",
    "ShmComm",
    "ShmRing",
    "TornFrameError",
    "WireCodec",
    "WireError",
    "decode_bind",
    "decode_hello",
    "encode_bind",
    "encode_hello",
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

    @property
    def frames_written(self) -> int:
        """Total frames ever published into the ring."""
        return self._get(_OFF_FRAMES_WRITTEN)

    @property
    def frames_read(self) -> int:
        """Total frames ever consumed from the ring."""
        return self._get(_OFF_FRAMES_READ)

    def pending_frames(self) -> int:
        """Frames published but not yet consumed (queue depth on the wire).

        The pipelined master dispatches up to its queue depth ahead of the
        reader, so this is the per-ring observable that distinguishes "the
        worker is behind" from "the ring is idle" when diagnosing a stall.
        """
        return max(0, self.frames_written - self.frames_read)

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

    def try_write(self, payload: bytes) -> int | None:
        """Like :meth:`write` but returns ``None`` instead of RingFull."""
        try:
            return self.write(payload)
        except RingFull:
            return None

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
# Wire codec
# ---------------------------------------------------------------------- #

KIND_TASK = 1
KIND_REPORT = 2
KIND_TASK_BATCH = 3
KIND_REPORT_BATCH = 4
KIND_BIND = 5

# kind, slave hint (task batches), seed, seq, round, strategy(3i), flags
_TASK_HEAD = struct.Struct("<Bqqii iii B".replace(" ", ""))
# kind, slave_id, seq, round, initial_value, evaluations, moves, n_elite
_REPORT_HEAD = struct.Struct("<BiqidqqH")
_BATCH_HEAD = struct.Struct("<BH")
_ENTRY_HEAD = struct.Struct("<iI")  # slave id, frame length
_VALUE = struct.Struct("<d")
_I64 = struct.Struct("<q")

_BUDGET_EVALS = 1
_BUDGET_MOVES = 2
_BUDGET_WALL = 4
_BUDGET_TARGET = 8
#: the strategy carries a non-unit core ratio (one <d follows the budget)
_HAS_CORE_RATIO = 16
#: the task carries a fixation pattern (two packed ceil(n/8) blocks:
#: core mask then fixed values — see repro.core.reduction)
_HAS_PATTERN = 32

# kind, m, n, name length, flags, optimum, best_known; then the config,
# the UTF-8 name and the little-endian float64 weights, capacities, profits
_BIND_HEAD = struct.Struct("<BIIHBdd")
# every TabuSearchConfig field, nested ones flattened (see encode_bind)
_CONFIG = struct.Struct("<qqBqqddqqqqqqqddq?")
_HAS_OPTIMUM = 1
_HAS_BEST_KNOWN = 2
_INTENSIFICATION = tuple(IntensificationKind)
_F8 = np.dtype("<f8")

# magic, wire version, worker pid, name length; then the UTF-8 name
_HELLO_HEAD = struct.Struct("<4sBIB")
HELLO_MAGIC = b"MKPW"
WIRE_VERSION = 1
_HELLO_NAME_NBYTES = 255
#: the largest HELLO frame, and so the cap on a socket peer's first frame
HELLO_MAX_NBYTES = _HELLO_HEAD.size + _HELLO_NAME_NBYTES


class WireError(ValueError):
    """A frame is not one well-formed message: the only error decoders raise."""


def _total(decode: Callable) -> Callable:
    """Make a decoder total: any malformed frame raises :class:`WireError`."""

    @functools.wraps(decode)
    def checked(*args: Any) -> Any:
        try:
            return decode(*args)
        except WireError:
            raise
        except (struct.error, ValueError, IndexError) as exc:
            raise WireError(f"{decode.__name__}: {exc}") from exc

    return checked


def _expect_end(frame: bytes, off: int) -> None:
    """A decoder consumes its frame exactly: no bytes missing, none left."""
    if off != len(frame):
        raise WireError(f"frame has {len(frame)} bytes; its message ends at byte {off}")


class WireCodec:
    """Pickle-free binary frames for the task/report message family.

    One codec per (endpoint, instance): ``n_items`` fixes the packed
    solution width, so frames need no per-solution length field.  Frame
    sizes are deterministic functions of the message content — identical
    on both sides and across transports, which is what lets every carrier,
    the serial backend and the farm model charge the same bytes.
    """

    def __init__(self, n_items: int) -> None:
        self.n_items = int(n_items)

    @property
    def solution_nbytes(self) -> int:
        return _VALUE.size + (self.n_items + 7) // 8

    # -- solutions ------------------------------------------------------ #
    def _put_solution(self, out: bytearray, sol: Solution) -> None:
        out += _VALUE.pack(sol.value)
        out += sol.packed_bytes()

    def _take_bits(self, buf: bytes, off: int) -> tuple[bytes, int]:
        """One packed ``n_items``-bit block; its padding bits must be zero."""
        nb = (self.n_items + 7) // 8
        block = bytes(buf[off : off + nb])
        if len(block) != nb:
            raise WireError(f"truncated bit block at byte {off}")
        if self.n_items % 8 and block[-1] >> (self.n_items % 8):
            raise WireError(f"bit block at byte {off} sets padding bits")
        return block, off + nb

    def _take_solution(self, buf: bytes, off: int) -> tuple[Solution, int]:
        (value,) = _VALUE.unpack_from(buf, off)
        block, off = self._take_bits(buf, off + _VALUE.size)
        return _solution_from_wire(block, self.n_items, value), off

    # -- tasks ----------------------------------------------------------- #
    def encode_task(self, task: SlaveTask) -> bytes:
        budget = task.budget
        flags = 0
        if budget.max_evaluations is not None:
            flags |= _BUDGET_EVALS
        if budget.max_moves is not None:
            flags |= _BUDGET_MOVES
        if budget.wall_seconds is not None:
            flags |= _BUDGET_WALL
        if budget.target_value is not None:
            flags |= _BUDGET_TARGET
        if task.strategy.core_ratio != 1.0:
            flags |= _HAS_CORE_RATIO
        if task.pattern is not None:
            flags |= _HAS_PATTERN
        lt, drop, local = task.strategy.as_tuple()
        out = bytearray(
            _TASK_HEAD.pack(
                KIND_TASK, task.seed, task.seq_id, task.round_index, 0,
                lt, drop, local, flags,
            )
        )
        if flags & _BUDGET_EVALS:
            out += _I64.pack(budget.max_evaluations)
        if flags & _BUDGET_MOVES:
            out += _I64.pack(budget.max_moves)
        if flags & _BUDGET_WALL:
            out += _VALUE.pack(budget.wall_seconds)
        if flags & _BUDGET_TARGET:
            out += _VALUE.pack(budget.target_value)
        if flags & _HAS_CORE_RATIO:
            out += _VALUE.pack(task.strategy.core_ratio)
        if flags & _HAS_PATTERN:
            out += task.pattern.packed_mask_bytes()
            out += task.pattern.packed_values_bytes()
        self._put_solution(out, task.x_init)
        return bytes(out)

    @_total
    def decode_task(self, frame: bytes) -> SlaveTask:
        kind, seed, seq_id, round_index, _, lt, drop, local, flags = (
            _TASK_HEAD.unpack_from(frame, 0)
        )
        if kind != KIND_TASK:
            raise WireError(f"not a task frame (kind={kind})")
        off = _TASK_HEAD.size
        max_evaluations = max_moves = None
        wall_seconds = target_value = None
        if flags & _BUDGET_EVALS:
            (max_evaluations,) = _I64.unpack_from(frame, off)
            off += _I64.size
        if flags & _BUDGET_MOVES:
            (max_moves,) = _I64.unpack_from(frame, off)
            off += _I64.size
        if flags & _BUDGET_WALL:
            (wall_seconds,) = _VALUE.unpack_from(frame, off)
            off += _VALUE.size
        if flags & _BUDGET_TARGET:
            (target_value,) = _VALUE.unpack_from(frame, off)
            off += _VALUE.size
        core_ratio = 1.0
        if flags & _HAS_CORE_RATIO:
            (core_ratio,) = _VALUE.unpack_from(frame, off)
            off += _VALUE.size
        pattern = None
        if flags & _HAS_PATTERN:
            mask, off = self._take_bits(frame, off)
            values, off = self._take_bits(frame, off)
            pattern = _pattern_from_wire(mask, values, self.n_items)
        x_init, off = self._take_solution(frame, off)
        _expect_end(frame, off)
        return SlaveTask(
            x_init=x_init,
            strategy=Strategy(lt, drop, local, core_ratio),
            budget=Budget(max_evaluations, max_moves, wall_seconds, target_value),
            seed=seed,
            round_index=round_index,
            seq_id=seq_id,
            pattern=pattern,
        )

    # -- reports --------------------------------------------------------- #
    def encode_report(self, report: SlaveReport) -> bytes:
        out = bytearray(
            _REPORT_HEAD.pack(
                KIND_REPORT, report.slave_id, report.seq_id, report.round_index,
                report.initial_value, report.evaluations, report.moves,
                len(report.elite),
            )
        )
        self._put_solution(out, report.best)
        for sol in report.elite:
            self._put_solution(out, sol)
        return bytes(out)

    @_total
    def decode_report(self, frame: bytes) -> SlaveReport:
        kind, slave_id, seq_id, round_index, initial_value, evaluations, moves, n_elite = (
            _REPORT_HEAD.unpack_from(frame, 0)
        )
        if kind != KIND_REPORT:
            raise WireError(f"not a report frame (kind={kind})")
        off = _REPORT_HEAD.size
        best, off = self._take_solution(frame, off)
        elite = []
        for _ in range(n_elite):
            sol, off = self._take_solution(frame, off)
            elite.append(sol)
        _expect_end(frame, off)
        return SlaveReport(
            slave_id=slave_id,
            best=best,
            elite=elite,
            initial_value=initial_value,
            evaluations=evaluations,
            moves=moves,
            round_index=round_index,
            seq_id=seq_id,
        )

    # -- batches ---------------------------------------------------------- #
    def encode_task_batch(
        self, entries: list[tuple[int, SlaveTask]]
    ) -> tuple[bytes, dict[int, int]]:
        """Pack ``(slave_id, task)`` entries; also returns per-slave sizes.

        The per-entry sizes are the *individual* task-frame lengths (the
        batch envelope is uncharged), so the master's byte ledger for a
        batched round equals the ledger K per-message sends would produce.
        """
        out = bytearray(_BATCH_HEAD.pack(KIND_TASK_BATCH, len(entries)))
        sizes: dict[int, int] = {}
        for slave_id, task in entries:
            frame = self.encode_task(task)
            out += _ENTRY_HEAD.pack(slave_id, len(frame))
            out += frame
            sizes[slave_id] = len(frame)
        return bytes(out), sizes

    def _entries(self, frame: bytes, batch_kind: int) -> list[tuple[int, bytes]]:
        """Split a batch envelope into ``(slave_id, entry frame)`` pairs."""
        kind, count = _BATCH_HEAD.unpack_from(frame, 0)
        if kind != batch_kind:
            raise WireError(f"not a batch frame of kind {batch_kind} (kind={kind})")
        off = _BATCH_HEAD.size
        out = []
        for _ in range(count):
            slave_id, length = _ENTRY_HEAD.unpack_from(frame, off)
            off += _ENTRY_HEAD.size
            if off + length > len(frame):
                raise WireError(f"entry of {length} bytes overruns the batch at {off}")
            out.append((slave_id, frame[off : off + length]))
            off += length
        _expect_end(frame, off)
        return out

    @_total
    def decode_task_batch(
        self, frame: bytes
    ) -> tuple[list[tuple[int, SlaveTask]], list[int]]:
        """Unpack a task batch; returns the entries and per-entry sizes."""
        entries = self._entries(frame, KIND_TASK_BATCH)
        return (
            [(k, self.decode_task(entry)) for k, entry in entries],
            [len(entry) for _, entry in entries],
        )

    def encode_report_batch(
        self, reports: list[SlaveReport]
    ) -> tuple[bytes, list[int]]:
        """Pack reports into one frame; also returns per-entry sizes."""
        out = bytearray(_BATCH_HEAD.pack(KIND_REPORT_BATCH, len(reports)))
        sizes: list[int] = []
        for report in reports:
            frame = self.encode_report(report)
            out += _ENTRY_HEAD.pack(report.slave_id, len(frame))
            out += frame
            sizes.append(len(frame))
        return bytes(out), sizes

    @_total
    def decode_report_batch(
        self, frame: bytes
    ) -> tuple[list[SlaveReport], list[int]]:
        """Unpack a report batch; returns the reports and per-entry sizes."""
        entries = self._entries(frame, KIND_REPORT_BATCH)
        return (
            [self.decode_report(entry) for _, entry in entries],
            [len(entry) for _, entry in entries],
        )

    # -- dispatch ---------------------------------------------------------- #
    def encode(self, obj: Any) -> bytes:
        if isinstance(obj, SlaveTask):
            return self.encode_task(obj)
        if isinstance(obj, SlaveReport):
            return self.encode_report(obj)
        raise TypeError(f"codec cannot encode {type(obj).__name__}")

    def decode_sized(self, frame: bytes) -> tuple[Any, list[int]]:
        """Decode any codec frame by its kind byte, with its entry sizes."""
        kind = frame[0] if frame else None
        if kind == KIND_TASK_BATCH:
            return self.decode_task_batch(frame)
        if kind == KIND_REPORT_BATCH:
            return self.decode_report_batch(frame)
        if kind == KIND_TASK:
            return self.decode_task(frame), [len(frame)]
        if kind == KIND_REPORT:
            return self.decode_report(frame), [len(frame)]
        raise WireError(f"unknown frame kind {kind}")

    def decode(self, frame: bytes) -> Any:
        """Decode any codec frame by its kind byte (batches drop sizes)."""
        return self.decode_sized(frame)[0]


# -- control frames ------------------------------------------------------ #
def encode_bind(instance: MKPInstance, config: TabuSearchConfig) -> bytes:
    """The bind frame: the problem and structural config a worker serves."""
    m, n = instance.shape
    name = instance.name.encode("utf-8")
    flags = (_HAS_OPTIMUM if instance.optimum is not None else 0) | (
        _HAS_BEST_KNOWN if instance.best_known is not None else 0
    )
    div, bounds = config.diversification, config.bounds
    return b"".join((
        _BIND_HEAD.pack(
            KIND_BIND, m, n, len(name), flags,
            0.0 if instance.optimum is None else instance.optimum,
            0.0 if instance.best_known is None else instance.best_known,
        ),
        _CONFIG.pack(
            config.nb_div, config.elite_size,
            _INTENSIFICATION.index(config.intensification),
            config.oscillation_depth, config.add_candidates,
            div.high_threshold, div.low_threshold, div.lock_iterations,
            *bounds.lt_length, *bounds.nb_drop, *bounds.nb_local,
            *bounds.core_ratio, bounds.base_iterations, bounds.load_balanced,
        ),
        name,
        *(np.asarray(a, dtype=_F8).tobytes()
          for a in (instance.weights, instance.capacities, instance.profits)),
    ))


@_total
def decode_bind(frame: bytes) -> tuple[MKPInstance, TabuSearchConfig]:
    """Inverse of :func:`encode_bind`.

    The frame length is checked against ``m``, ``n`` and the name length
    before any array is read, so a lying header costs nothing.
    """
    kind, m, n, name_len, flags, optimum, best_known = _BIND_HEAD.unpack_from(frame, 0)
    if kind != KIND_BIND:
        raise WireError(f"not a bind frame (kind={kind})")
    at = _BIND_HEAD.size + _CONFIG.size + name_len
    _expect_end(frame, at + _F8.itemsize * (m * n + m + n))
    (nb_div, elite_size, intensification, oscillation_depth, add_candidates,
     high, low, lock, *pairs, base_iterations, load_balanced) = (
        _CONFIG.unpack_from(frame, _BIND_HEAD.size)
    )
    config = TabuSearchConfig(
        nb_div=nb_div,
        elite_size=elite_size,
        intensification=_INTENSIFICATION[intensification],
        oscillation_depth=oscillation_depth,
        diversification=DiversificationConfig(high, low, lock),
        bounds=StrategyBounds(
            lt_length=tuple(pairs[0:2]),
            nb_drop=tuple(pairs[2:4]),
            nb_local=tuple(pairs[4:6]),
            core_ratio=tuple(pairs[6:8]),
            base_iterations=base_iterations,
            load_balanced=load_balanced,
        ),
        add_candidates=add_candidates,
    )
    instance = MKPInstance(
        weights=np.frombuffer(frame, _F8, m * n, at).reshape(m, n),
        capacities=np.frombuffer(frame, _F8, m, at + _F8.itemsize * m * n),
        profits=np.frombuffer(frame, _F8, n, at + _F8.itemsize * (m * n + m)),
        name=bytes(frame[at - name_len : at]).decode("utf-8"),
        optimum=optimum if flags & _HAS_OPTIMUM else None,
        best_known=best_known if flags & _HAS_BEST_KNOWN else None,
    )
    return instance, config


def encode_hello(pid: int, name: str) -> bytes:
    """A worker's HELLO frame; names are cut to 255 UTF-8 bytes."""
    raw = name.encode("utf-8")[:_HELLO_NAME_NBYTES].decode("utf-8", "ignore").encode("utf-8")
    return _HELLO_HEAD.pack(HELLO_MAGIC, WIRE_VERSION, pid, len(raw)) + raw


@_total
def decode_hello(frame: bytes) -> tuple[int, str]:
    """Inverse of :func:`encode_hello`: ``(pid, name)``."""
    magic, version, pid, name_len = _HELLO_HEAD.unpack_from(frame, 0)
    if magic != HELLO_MAGIC:
        raise WireError("not a HELLO frame (bad magic)")
    if version != WIRE_VERSION:
        raise WireError(f"peer speaks wire version {version}, not {WIRE_VERSION}")
    _expect_end(frame, _HELLO_HEAD.size + name_len)
    return pid, bytes(frame[_HELLO_HEAD.size :]).decode("utf-8")


# ---------------------------------------------------------------------- #
# Comm facade
# ---------------------------------------------------------------------- #


class ShmComm:
    """Pipe-compatible endpoint that moves payloads through shm rings.

    Wraps one :class:`~repro.parallel.comm.PipeComm` (the doorbell) plus an
    optional send ring and receive ring.  Message family traffic (tasks,
    reports, batches) is codec-encoded; control messages (STOP, REBIND) are
    already frames — an empty one, or a :func:`encode_bind` frame — and
    ride the pipe as they are.

    Per-message carrier selection, visible in the doorbell itself:

    * ring write succeeded → an empty pipe message under the tag;
    * no ring / ring full  → the frame bytes ride the pipe in-band.

    The charge is always the codec frame length, so ``bytes_sent`` /
    ``bytes_received`` are carrier-independent.  ``pipe_payload_bytes``
    counts only the in-band bytes — the "bytes through pipes" gate in
    ``tests/test_shm.py`` asserts it stays ≈ 0 on the shm path.
    """

    def __init__(
        self,
        pipe: PipeComm,
        codec: WireCodec,
        *,
        send_ring: ShmRing | None = None,
        recv_ring: ShmRing | None = None,
    ) -> None:
        self._pipe = pipe
        self.codec = codec
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.bytes_sent = 0
        self.bytes_received = 0
        #: per-entry codec sizes of the last received message family frame
        self.last_entry_nbytes: list[int] = []
        #: messages whose payload fell back to the in-band pipe carrier
        self.ring_overflows = 0

    # -- surface parity -------------------------------------------------- #
    @property
    def transport(self) -> str:
        return "shm" if (self.send_ring or self.recv_ring) else "pipe"

    @property
    def connection(self) -> Any:
        return self._pipe.connection

    @property
    def closed(self) -> bool:
        return self._pipe.closed

    @property
    def pipe_payload_bytes(self) -> int:
        """Frame bytes that crossed the pipe in either direction (in-band)."""
        return self._pipe.bytes_sent + self._pipe.bytes_received

    def poll(self, timeout: float = 0.0) -> bool:
        return self._pipe.poll(timeout)

    def pending_frames(self) -> dict[str, int]:
        """Frames queued but unconsumed per ring direction (0 when pipe-only).

        Diagnostic for the pipelined dispatch mode: ``send`` counts tasks
        this endpoint queued ahead of the peer, ``recv`` counts reports the
        peer queued ahead of us (doorbells may coalesce — several frames can
        be pending behind one wakeup).
        """
        return {
            "send": self.send_ring.pending_frames() if self.send_ring else 0,
            "recv": self.recv_ring.pending_frames() if self.recv_ring else 0,
        }

    def close(self) -> None:
        """Close doorbell and ring mappings; never unlinks (owner's job)."""
        self._pipe.close()
        for ring in (self.send_ring, self.recv_ring):
            if ring is not None:
                ring.close()

    # -- send ------------------------------------------------------------- #
    def _dispatch(self, frame: bytes, tag: int) -> None:
        self.bytes_sent += len(frame)
        inband: bytes = frame
        if self.send_ring is not None:
            try:
                self.send_ring.write(frame)
                inband = b""
            except (RingFull, FrameTooLarge):
                # Momentarily full or permanently too small: either way the
                # same frame bytes ride the pipe in-band instead.
                self.ring_overflows += 1
        self._pipe.send(inband, tag=tag)

    def send(self, obj: Any, dest: int = 0, tag: int = 0) -> None:
        if tag in (TASK_TAG, RESULT_TAG):
            self._dispatch(self.codec.encode(obj), tag)
            return
        # Control plane (STOP/REBIND): the object is its own frame.
        self._pipe.send(obj, dest, tag)
        self.bytes_sent += len(obj)

    def send_tasks(self, entries: list[tuple[int, SlaveTask]]) -> dict[int, int]:
        """Send one batched task message; returns per-slave charged sizes."""
        frame, sizes = self.codec.encode_task_batch(entries)
        self._dispatch(frame, TASK_TAG)
        # Charge per-entry frame bytes, not the envelope: identical ledger
        # to K individual sends (the cross-K differential contract).
        self.bytes_sent += sum(sizes.values()) - len(frame)
        return sizes

    def send_reports(self, reports: list[SlaveReport]) -> None:
        """Send one batched report message (worker side)."""
        frame, sizes = self.codec.encode_report_batch(reports)
        self._dispatch(frame, RESULT_TAG)
        self.bytes_sent += sum(sizes) - len(frame)

    # -- receive ----------------------------------------------------------- #
    #: one message under ``tag``, over :meth:`recv_message` (as for pipes)
    recv = PipeComm.recv

    def recv_message(self, timeout: float | None = None) -> tuple[int, Any]:
        """Receive the next message of any tag as ``(tag, obj)``.

        Control messages come back as their raw frame; message family
        frames decode through the codec (:class:`WireError` if malformed).
        """
        tag, body = self._pipe.recv_message(timeout)
        if tag not in (TASK_TAG, RESULT_TAG):
            self.bytes_received += len(body)
            self.last_entry_nbytes = [len(body)]
            return tag, body
        if body:
            frame = body
        elif self.recv_ring is None:
            raise RuntimeError("doorbell without ring: no payload carrier")
        else:
            frame = self.recv_ring.read()
        obj, self.last_entry_nbytes = self.codec.decode_sized(frame)
        self.bytes_received += sum(self.last_entry_nbytes)
        return tag, obj
