"""Hostile-input properties of every wire decoder.

Each frame kind — task, report, task batch, report batch, bind and HELLO —
is encoded from random content and then damaged: truncated (down to the
empty frame), extended with junk, bit-flipped, given a wrong kind byte (or
HELLO magic), or given an inflated count/length field.  Every decoder must
answer with :class:`~repro.parallel.shm.WireError` and nothing else; a bit
flip may also decode cleanly into a different well-formed message.  The
round-trip half checks that the bind frame carries every field of
:class:`~repro.core.tabu_search.TabuSearchConfig`, nested ones included.
"""

from __future__ import annotations

import dataclasses
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversification import DiversificationConfig
from repro.core.instance import MKPInstance
from repro.core.reduction import FixationPattern
from repro.core.solution import Solution
from repro.core.strategy import Strategy, StrategyBounds
from repro.core.tabu_search import IntensificationKind, TabuSearchConfig
from repro.core.termination import Budget
from repro.parallel.message import SlaveReport, SlaveTask
from repro.parallel.shm import (
    HELLO_MAX_NBYTES,
    WireCodec,
    WireError,
    decode_bind,
    decode_hello,
    encode_bind,
    encode_hello,
)

KINDS = ("task", "report", "task_batch", "report_batch", "bind", "hello")


# ---------------------------------------------------------------------- #
# Random messages
# ---------------------------------------------------------------------- #


def _solution(rnd: random.Random, n: int) -> Solution:
    x = np.array([rnd.randint(0, 1) for _ in range(n)], dtype=np.int8)
    return Solution(x, float(rnd.randint(0, 10**6)))


def _task(rnd: random.Random, n: int) -> SlaveTask:
    pattern = None
    if rnd.random() < 0.5:
        pattern = FixationPattern(
            core_mask=np.array([rnd.random() < 0.5 for _ in range(n)]),
            fixed_values=np.array([rnd.randint(0, 1) for _ in range(n)], dtype=np.int8),
        )
    return SlaveTask(
        x_init=_solution(rnd, n),
        strategy=Strategy(
            rnd.randint(0, 50), rnd.randint(1, 20), rnd.randint(1, 99),
            rnd.choice([1.0, 0.5]),
        ),
        budget=Budget(
            max_evaluations=rnd.choice([None, rnd.randint(0, 2**40)]),
            max_moves=rnd.choice([None, rnd.randint(0, 2**40)]),
            wall_seconds=rnd.choice([None, rnd.random() * 100]),
            target_value=rnd.choice([None, float(rnd.randint(0, 10**6))]),
        ),
        seed=rnd.randint(0, 2**40),
        round_index=rnd.randint(0, 1000),
        seq_id=rnd.randint(0, 2**40),
        pattern=pattern,
    )


def _report(rnd: random.Random, n: int) -> SlaveReport:
    return SlaveReport(
        slave_id=rnd.randint(0, 63),
        best=_solution(rnd, n),
        elite=[_solution(rnd, n) for _ in range(rnd.randint(0, 3))],
        initial_value=float(rnd.randint(0, 10**6)),
        evaluations=rnd.randint(0, 2**40),
        moves=rnd.randint(0, 2**40),
        round_index=rnd.randint(0, 1000),
        seq_id=rnd.randint(0, 2**40),
    )


def _instance(rnd: random.Random, n: int) -> MKPInstance:
    m = rnd.randint(1, 4)
    return MKPInstance(
        weights=np.array([[rnd.randint(0, 50) for _ in range(n)] for _ in range(m)]),
        capacities=np.array([rnd.randint(50, 500) for _ in range(m)]),
        profits=np.array([rnd.randint(1, 90) for _ in range(n)]),
        name=rnd.choice(["mkp", "", "GK-éé", "x" * 40]),
        optimum=rnd.choice([None, float(rnd.randint(1, 10**4))]),
        best_known=rnd.choice([None, float(rnd.randint(1, 10**4))]),
    )


def _frame(kind: str, rnd: random.Random, n: int) -> tuple[bytes, object, list[int]]:
    """``(frame, decoder, [offset, format] of its count/length fields)``.

    Field offsets are the head positions a liar would inflate: the elite
    count of a report, the entry count and first entry length of a batch,
    ``m``/``n``/name length of a bind, the name length of a HELLO.  A task
    has no count field; its flags byte (which gates optional fields) is
    the nearest thing.
    """
    codec = WireCodec(n)
    if kind == "task":
        return codec.encode_task(_task(rnd, n)), codec.decode_task, [(37, "B")]
    if kind == "report":
        return codec.encode_report(_report(rnd, n)), codec.decode_report, [(41, "H")]
    if kind == "task_batch":
        entries = [(k, _task(rnd, n)) for k in range(rnd.randint(1, 3))]
        frame, _ = codec.encode_task_batch(entries)
        return frame, codec.decode_task_batch, [(1, "H"), (7, "I")]
    if kind == "report_batch":
        frame, _ = codec.encode_report_batch(
            [_report(rnd, n) for _ in range(rnd.randint(1, 3))]
        )
        return frame, codec.decode_report_batch, [(1, "H"), (7, "I")]
    if kind == "bind":
        frame = encode_bind(_instance(rnd, n), TabuSearchConfig())
        return frame, decode_bind, [(1, "I"), (5, "I"), (9, "H")]
    frame = encode_hello(rnd.randint(0, 2**31), rnd.choice(["w", "", "worker-é" * 3]))
    return frame, decode_hello, [(9, "B")]


#: ``(frame kind, content seed, item count)``
CASES = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32), st.integers(1, 70))


def _raises_wire_error(decode, frame: bytes) -> None:
    with pytest.raises(WireError):
        decode(frame)


# ---------------------------------------------------------------------- #
# Damage that must be refused
# ---------------------------------------------------------------------- #


class TestEveryDecoderIsTotal:
    @given(CASES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_frame_raises(self, case, data):
        kind, seed, n = case
        frame, decode, _ = _frame(kind, random.Random(seed), n)
        cut = data.draw(st.integers(0, len(frame) - 1))
        _raises_wire_error(decode, frame[:cut])

    @given(CASES, st.binary(min_size=1, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_trailing_bytes_raise(self, case, junk):
        kind, seed, n = case
        frame, decode, _ = _frame(kind, random.Random(seed), n)
        _raises_wire_error(decode, frame + junk)

    @given(CASES, st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_wrong_kind_byte_raises(self, case, byte):
        kind, seed, n = case
        frame, decode, _ = _frame(kind, random.Random(seed), n)
        if byte == frame[0]:
            byte ^= 0xFF
        # For a HELLO the first byte belongs to the magic.
        _raises_wire_error(decode, bytes([byte]) + frame[1:])

    @given(CASES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_inflated_count_or_length_raises(self, case, data):
        kind, seed, n = case
        frame, decode, fields = _frame(kind, random.Random(seed), n)
        offset, fmt = data.draw(st.sampled_from(fields))
        field = struct.Struct("<" + fmt)
        (value,) = field.unpack_from(frame, offset)
        if kind == "task":
            inflated = value | 0x3F  # request every optional field
        else:
            inflated = min(value + data.draw(st.integers(1, 2**32)), 2 ** (8 * field.size) - 1)
        if inflated == value:
            return  # nothing left to inflate in this field
        damaged = bytearray(frame)
        field.pack_into(damaged, offset, inflated)
        _raises_wire_error(decode, bytes(damaged))

    @given(CASES, st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flip_decodes_or_raises_wire_error(self, case, data):
        kind, seed, n = case
        frame, decode, _ = _frame(kind, random.Random(seed), n)
        bit = data.draw(st.integers(0, 8 * len(frame) - 1))
        damaged = bytearray(frame)
        damaged[bit // 8] ^= 1 << (bit % 8)
        try:
            decode(bytes(damaged))
        except WireError:
            pass

    @given(st.sampled_from(KINDS), st.binary(max_size=300), st.integers(1, 70))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_decode_or_raise_wire_error(self, kind, junk, n):
        _, decode, _ = _frame(kind, random.Random(0), n)
        try:
            decode(junk)
        except WireError:
            pass
        codec = WireCodec(n)
        try:
            codec.decode(junk)
        except WireError:
            pass

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_frame_raises(self, kind):
        _, decode, _ = _frame(kind, random.Random(1), 10)
        _raises_wire_error(decode, b"")

    def test_report_for_a_wider_instance_is_refused(self):
        report = _report(random.Random(3), 100)
        frame = WireCodec(100).encode_report(report)
        _raises_wire_error(WireCodec(90).decode_report, frame)

    def test_padding_bits_are_refused(self):
        # 10 items use 2 bytes; the top 6 bits of the last one are padding.
        codec = WireCodec(10)
        frame = bytearray(codec.encode_report(_report(random.Random(4), 10)))
        frame[-1] |= 0x80
        _raises_wire_error(codec.decode_report, bytes(frame))

    def test_hello_version_is_checked(self):
        frame = bytearray(encode_hello(1, "w"))
        frame[4] += 1
        with pytest.raises(WireError, match="version"):
            decode_hello(bytes(frame))

    def test_wire_error_is_a_value_error(self):
        assert issubclass(WireError, ValueError)


# ---------------------------------------------------------------------- #
# Round trips of the control frames
# ---------------------------------------------------------------------- #


def _leaves(obj, prefix=""):
    """``(dotted name, value)`` of every leaf field of a nested dataclass."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


class TestControlFrameRoundTrips:
    def test_bind_carries_every_config_field(self, small_instance):
        config = TabuSearchConfig(
            nb_div=7,
            elite_size=5,
            intensification=IntensificationKind.SWAP,
            oscillation_depth=9,
            diversification=DiversificationConfig(
                high_threshold=0.7, low_threshold=0.15, lock_iterations=12
            ),
            bounds=StrategyBounds(
                lt_length=(3, 40),
                nb_drop=(2, 6),
                nb_local=(11, 90),
                core_ratio=(0.4, 0.9),
                base_iterations=321,
                load_balanced=False,
            ),
            add_candidates=3,
        )
        defaults = dict(_leaves(TabuSearchConfig()))
        # Guard the guard: a field left at its default could be dropped by
        # the frame unnoticed, so every leaf here must differ from it.
        for name, value in _leaves(config):
            assert value != defaults[name], name
        instance, decoded = decode_bind(encode_bind(small_instance, config))
        assert decoded == config
        assert dict(_leaves(decoded)) == dict(_leaves(config))
        assert instance.content_hash() == small_instance.content_hash()
        assert instance.name == small_instance.name

    @given(st.integers(0, 2**32), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_bind_round_trips_instances(self, seed, n):
        original = _instance(random.Random(seed), n)
        instance, config = decode_bind(encode_bind(original, TabuSearchConfig()))
        assert config == TabuSearchConfig()
        np.testing.assert_array_equal(instance.weights, original.weights)
        np.testing.assert_array_equal(instance.capacities, original.capacities)
        np.testing.assert_array_equal(instance.profits, original.profits)
        assert (instance.name, instance.optimum, instance.best_known) == (
            original.name, original.optimum, original.best_known,
        )

    @given(st.integers(0, 2**32 - 1), st.text(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_hello_round_trips_and_fits_the_cap(self, pid, name):
        frame = encode_hello(pid, name)
        got_pid, got_name = decode_hello(frame)
        assert got_pid == pid
        assert name.startswith(got_name)
        assert len(frame) <= HELLO_MAX_NBYTES
