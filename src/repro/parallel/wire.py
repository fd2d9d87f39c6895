"""Wire frames: the one encoding of every message between master and slave.

Fixed binary frames (``struct``, no pickle), defined once for every carrier
(pipe, shared-memory ring, TCP) and for the serial backend's byte charge:

:class:`WireCodec`
    :class:`~repro.parallel.message.SlaveTask` /
    :class:`~repro.parallel.message.SlaveReport` frames and their batch
    envelopes.  A solution travels as an ``8 + ceil(n/8)``-byte record,
    its value then its packed bits; a report's best and elite records are
    one :class:`~repro.core.solution.SolutionBlock`, written and read as
    one block.
:func:`encode_bind` / :func:`decode_bind`
    The REBIND frame: the problem and the structural config a worker serves.
:func:`encode_hello` / :func:`decode_hello`
    A socket worker's registration frame.

Every decoder is total: it consumes its frame exactly or raises
:class:`WireError`, the only error a malformed frame can produce
(``tests/test_wire_fuzz.py``).
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable

import numpy as np

from ..core.diversification import DiversificationConfig
from ..core.instance import MKPInstance
from ..core.reduction import _pattern_from_wire
from ..core.solution import Solution, SolutionBlock, record_dtype
from ..core.strategy import Strategy, StrategyBounds
from ..core.tabu_search import IntensificationKind, TabuSearchConfig
from ..core.termination import Budget
from .message import SlaveReport, SlaveTask

__all__ = [
    "HELLO_MAX_NBYTES",
    "WireCodec",
    "WireError",
    "decode_bind",
    "decode_hello",
    "encode_bind",
    "encode_hello",
]


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
        #: one solution frame: ``<d`` value, then ``ceil(n/8)`` bit bytes
        self._record = record_dtype(self.n_items)
        #: the padding bits of a frame's last bit byte (0 when none)
        self._pad_mask = (0xFF << self.n_items % 8) & 0xFF if self.n_items % 8 else 0

    @property
    def solution_nbytes(self) -> int:
        return self._record.itemsize

    # -- solutions ------------------------------------------------------ #
    def _take_bits(self, buf: bytes, off: int) -> tuple[bytes, int]:
        """One packed ``n_items``-bit block; its padding bits must be zero."""
        nb = (self.n_items + 7) // 8
        block = bytes(buf[off : off + nb])
        if len(block) != nb:
            raise WireError(f"truncated bit block at byte {off}")
        if self._pad_mask and block[-1] & self._pad_mask:
            raise WireError(f"bit block at byte {off} sets padding bits")
        return block, off + nb

    def _take_records(
        self, frame: bytes, off: int, count: int
    ) -> tuple[Solution, np.ndarray]:
        """The ``count`` solution records that end ``frame`` from ``off``:
        the first as a solution, and all of them as one record array.  No
        padding bit of any of them may be set."""
        size = self._record.itemsize
        _expect_end(frame, off + count * size)
        if self._pad_mask and any(b & self._pad_mask for b in frame[off + size - 1 :: size]):
            raise WireError(f"a bit block after byte {off} sets padding bits")
        (value,) = _VALUE.unpack_from(frame, off)
        bits = bytes(frame[off + _VALUE.size : off + size])
        first = Solution.from_packed(bits, self.n_items, value)
        return first, np.frombuffer(frame, self._record, count, off)

    # -- tasks ----------------------------------------------------------- #
    @staticmethod
    def _task_flags(task: SlaveTask) -> int:
        """The flags byte: which optional fields follow a task's head."""
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
        return flags

    def task_nbytes(self, task: SlaveTask) -> int:
        """``len(encode_task(task))``, from the flags alone."""
        flags = self._task_flags(task)
        n_fields = bin(flags & ~_HAS_PATTERN).count("1")
        pattern = 2 * ((self.n_items + 7) // 8) if flags & _HAS_PATTERN else 0
        return _TASK_HEAD.size + 8 * n_fields + pattern + self._record.itemsize

    def report_nbytes(self, report: SlaveReport) -> int:
        """``len(encode_report(report))``, from the elite count alone."""
        return _REPORT_HEAD.size + (1 + len(report.elite)) * self._record.itemsize

    def encode_task(self, task: SlaveTask) -> bytes:
        budget = task.budget
        flags = self._task_flags(task)
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
        out += _VALUE.pack(task.x_init.value)
        out += task.x_init.packed_bytes()
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
        return SlaveTask(
            x_init=self._take_records(frame, off, 1)[0],
            strategy=Strategy(lt, drop, local, core_ratio),
            budget=Budget(max_evaluations, max_moves, wall_seconds, target_value),
            seed=seed,
            round_index=round_index,
            seq_id=seq_id,
            pattern=pattern,
        )

    # -- reports --------------------------------------------------------- #
    def encode_report(self, report: SlaveReport) -> bytes:
        best = report.best
        return b"".join((
            _REPORT_HEAD.pack(
                KIND_REPORT, report.slave_id, report.seq_id, report.round_index,
                report.initial_value, report.evaluations, report.moves,
                len(report.elite),
            ),
            _VALUE.pack(best.value),
            best.packed_bytes(),
            report.elite.records.tobytes(),
        ))

    @_total
    def decode_report(self, frame: bytes) -> SlaveReport:
        kind, slave_id, seq_id, round_index, initial_value, evaluations, moves, n_elite = (
            _REPORT_HEAD.unpack_from(frame, 0)
        )
        if kind != KIND_REPORT:
            raise WireError(f"not a report frame (kind={kind})")
        # best then elite: one block of 1 + n_elite records
        best, records = self._take_records(frame, _REPORT_HEAD.size, 1 + n_elite)
        return SlaveReport(
            slave_id=slave_id,
            best=best,
            elite=SolutionBlock(records[1:], self.n_items),
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
