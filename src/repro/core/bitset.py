"""Packed-bitset solution codec and prefix-bitmask scan tables.

Two related facilities live here, both built on ``np.uint64`` words with
little-endian bit order (bit ``j`` of the solution lives in word ``j // 64``
at position ``j % 64``, so ``np.unpackbits(..., bitorder="little")`` decodes
back to ascending item indices):

The codec
    :func:`pack_bits` / :func:`unpack_bits` convert a 0/1 vector to and from
    ``ceil(n / 64)`` words; :func:`popcount`, :func:`hamming_words` and
    :func:`pairwise_hamming` replace elementwise comparisons over ``n``-length
    arrays with XOR + popcount over words.  The master's SGP dispersion
    statistic, the elite-pool dedup keys, and the wire format of
    :class:`~repro.core.solution.Solution` all ride on this: a 500-item
    solution is 63 payload bytes instead of a pickled 500-byte ndarray.
    Every function is *exact* — packing is a bijection on 0/1 vectors, so
    popcounts and Hamming distances are the same integers the elementwise
    formulas produce.

The prefix-bitmask tables (:class:`HotTables`)
    The tabu-search hot path asks one question thousands of times per
    second: *which free items still fit the current slack?*  For
    integer-valued instances (every GK / FP / Chu–Beasley benchmark) the
    answer set for constraint ``i`` is a prefix of the items sorted by
    ``a_ij`` — so we precompute, per constraint, the sorted weights and the
    *cumulative packed bitset* of that order.  A fitting scan then costs one
    vectorized ``searchsorted`` (m scalar queries against one flat sorted
    array) plus a bitwise-AND reduction over ``m + 2`` word rows, instead of
    an O(n·m) elementwise comparison.  ``tests/test_bitset.py`` pins the
    equivalence against the naive scan property-style.

    The integer gate is what makes this exact: with integral ``a`` and ``b``
    every load/slack is an exactly-represented integer (sums stay far below
    2**53), so ``a_ij <= slack_i + FIT_EPS`` holds iff the int64 comparison
    ``a_ij <= slack_i`` does.  Non-integer instances simply get
    ``integer is None`` and the search state falls back to the elementwise scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WORD_BITS",
    "n_words",
    "pack_bits",
    "unpack_bits",
    "pack_rows",
    "popcount",
    "hamming_words",
    "pairwise_hamming",
    "mean_pairwise_hamming",
    "decode_indices",
    "words_to_bytes",
    "bytes_to_words",
    "HotTables",
    "IntegerScanTables",
]

WORD_BITS = 64

#: Single-bit uint64 masks, ``_BIT[k] == 1 << k`` (shared scratch constant).
_BIT = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)).copy()


def n_words(n_bits: int) -> int:
    """Number of 64-bit words needed for ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0; got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(x: np.ndarray) -> np.ndarray:
    """Pack a 1-D 0/1 vector into little-endian ``uint64`` words.

    Bits beyond ``len(x)`` in the last word are zero, so popcounts and
    Hamming distances over the words need no tail masking.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D 0/1 vector; got shape {x.shape}")
    nw = n_words(x.size)
    out = np.zeros(nw, dtype=np.uint64)
    packed = np.packbits(x.astype(bool), bitorder="little")
    out.view(np.uint8)[: packed.size] = packed
    return out


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: words back to a contiguous ``int8`` 0/1 vector."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if n_bits > words.size * WORD_BITS:
        raise ValueError(f"{words.size} words hold at most {words.size * WORD_BITS} bits")
    bits = np.unpackbits(words.view(np.uint8), count=n_bits, bitorder="little")
    return bits.view(np.int8)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(p, n)`` 0/1 matrix into a ``(p, W)`` word matrix."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D 0/1 matrix; got shape {rows.shape}")
    p, n = rows.shape
    out = np.zeros((p, n_words(n)), dtype=np.uint64)
    packed = np.packbits(rows.astype(bool), axis=1, bitorder="little")
    out.view(np.uint8)[:, : packed.shape[1]] = packed
    return out


def popcount(words: np.ndarray) -> int:
    """Number of set bits across ``words``."""
    return int(np.bitwise_count(words).sum())


def hamming_words(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed vectors: ``popcount(a ^ b)``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def pairwise_hamming(packed: np.ndarray) -> np.ndarray:
    """Full ``(p, p)`` Hamming-distance matrix of ``(p, W)`` packed rows.

    One broadcast XOR + popcount instead of ``p**2`` elementwise vector
    comparisons; for the master's elite pools (``p`` around 8–16, ``W``
    around 8) the whole matrix is a few thousand word operations.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"expected (p, W) packed rows; got shape {packed.shape}")
    xor = packed[:, None, :] ^ packed[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64)


def mean_pairwise_hamming(packed: np.ndarray) -> float:
    """Mean ordered-pairwise Hamming distance of ``(p, W)`` packed rows.

    Exactly the SGP dispersion statistic: integer total over ordered pairs
    divided by ``p * (p - 1)`` — bit-identical to the Gram-matrix formula it
    replaces because both compute the same integer numerator.
    """
    p = packed.shape[0]
    if p < 2:
        return 0.0
    total_ordered = int(pairwise_hamming(packed).sum())
    return total_ordered / (p * (p - 1))


def decode_indices(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Ascending indices of the set bits (the packed ``nonzero``)."""
    bits = np.unpackbits(words.view(np.uint8), count=n_bits, bitorder="little")
    return bits.nonzero()[0]


def words_to_bytes(words: np.ndarray, n_bits: int) -> bytes:
    """Minimal ``ceil(n_bits / 8)``-byte frame of a packed vector (wire format)."""
    return words.view(np.uint8)[: (n_bits + 7) // 8].tobytes()


def bytes_to_words(payload: bytes, n_bits: int) -> np.ndarray:
    """Inverse of :func:`words_to_bytes`."""
    nbytes = (n_bits + 7) // 8
    if len(payload) != nbytes:
        raise ValueError(f"expected {nbytes} payload bytes for {n_bits} bits; got {len(payload)}")
    out = np.zeros(n_words(n_bits), dtype=np.uint64)
    out.view(np.uint8)[:nbytes] = np.frombuffer(payload, dtype=np.uint8)
    return out


# --------------------------------------------------------------------------- #
# Prefix-bitmask scan tables
# --------------------------------------------------------------------------- #

#: Ceiling on the precomputed cumulative-bitset tables (they are O(m·n²/8)
#: bytes); instances beyond it keep the generic elementwise scan.
MAX_TABLE_BYTES = 64 * 1024 * 1024

#: Integral-data ceiling: keeps every incremental float load/slack exactly
#: representable (n * max_weight far below 2**53) and the block offsets of
#: the flattened searchsorted array safely inside int64.
_MAX_INT_WEIGHT = 2**40


@dataclass(frozen=True)
class IntegerScanTables:
    """Per-constraint sorted weights + cumulative packed bitsets.

    For constraint ``i`` let ``order_i`` sort items by ``a_ij`` ascending.
    ``cumbits`` row ``i * (n + 1) + p`` holds the packed bitset of
    ``order_i[:p]`` — i.e. *every* item whose weight ranks among the ``p``
    smallest.  Because the fitting predicate is a threshold on ``a_ij``, the
    set of items fitting slack ``s_i`` is exactly such a prefix, found by
    binary search.  All rows are concatenated into one flat sorted array —
    block ``i`` offset by ``i * OFF`` with ``OFF = max(a) + 2`` and padded
    with one sentinel ``i * OFF + max(a) + 1`` — so a single ``searchsorted``
    call answers all ``m`` queries at once *and* its flat result is directly
    the ``cumbits`` row index (blocks and ``cumbits`` share the ``n + 1``
    stride; clamped queries never reach a sentinel).
    """

    flat_sorted: np.ndarray  # (m * (n + 1),) int64, block i = sorted a_i + i * OFF
    cumbits: np.ndarray  # (m * (n + 1), W) uint64 cumulative prefix bitsets
    weightsT_int: np.ndarray  # (n, m) int64 — per-item weight rows
    q_offsets: np.ndarray  # (m,) int64 — i * OFF per constraint
    q_lo: np.ndarray  # (m,) int64 — clamp for "nothing fits"
    q_hi: np.ndarray  # (m,) int64 — clamp for "everything fits"
    words: int  # W

    @property
    def nbytes(self) -> int:
        return self.flat_sorted.nbytes + self.cumbits.nbytes + self.weightsT_int.nbytes


@dataclass(frozen=True)
class ProfitOrderTables:
    """Suffix bitsets of the profit-sorted item order.

    ``suffix`` row ``p`` packs the items *above* the ``p`` smallest profits;
    with one ``searchsorted`` against ``sorted_profits`` this yields the set
    ``{j : c_j > c}`` for any threshold ``c`` — the "richer item" filter of
    the §3.2 swap intensification as a single word row.  Exact for arbitrary
    float profits (the binary search performs the same ``<=`` comparisons
    the elementwise filter would).
    """

    sorted_profits: np.ndarray  # (n,) float64 ascending
    suffix: np.ndarray  # (n + 1, W) uint64

    @property
    def nbytes(self) -> int:
        return self.sorted_profits.nbytes + self.suffix.nbytes


@dataclass(frozen=True)
class HotTables:
    """Static per-instance data shared by every :class:`SearchState`.

    Built once per :class:`~repro.core.instance.MKPInstance` (lazily, cached
    on the instance) instead of once per state: short-lived states — one
    per slave task — no longer pay the transpose/divide/table costs.
    """

    weightsT: np.ndarray  # (n, m) float64 C-contiguous
    ratio_matrix: np.ndarray  # (m, n) float64 — a_ij / c_j, precomputed
    ratio_rows: list  # list of the m rows (cheap hot-path row access)
    profits_list: list  # python-float profits (scalar reads without numpy boxing)
    integer: IntegerScanTables | None  # None => generic elementwise scans
    profit_order: ProfitOrderTables | None

    @property
    def nbytes(self) -> int:
        """Resident footprint of the shared tables (runtime-cache telemetry).

        A worker's warm :class:`~repro.parallel.runtime.SlaveRuntime` keeps
        these alive for the life of the process; the round-overhead bench
        reports this figure so cache-residency costs stay visible.
        """
        total = self.weightsT.nbytes + self.ratio_matrix.nbytes
        if self.integer is not None:
            total += self.integer.nbytes
        if self.profit_order is not None:
            total += self.profit_order.nbytes
        return total

    @staticmethod
    def build(
        weights: np.ndarray,
        capacities: np.ndarray,
        profits: np.ndarray,
        max_table_bytes: int = MAX_TABLE_BYTES,
    ) -> "HotTables":
        m, n = weights.shape
        weightsT = np.ascontiguousarray(weights.T)
        ratio_matrix = weights / profits
        integer = None
        profit_order = None
        if _integer_scan_applicable(weights, capacities, max_table_bytes):
            integer = _build_integer_tables(weightsT)
            profit_order = _build_profit_tables(profits)
        return HotTables(
            weightsT=weightsT,
            ratio_matrix=ratio_matrix,
            ratio_rows=list(ratio_matrix),
            profits_list=profits.tolist(),
            integer=integer,
            profit_order=profit_order,
        )


def _integer_scan_applicable(
    weights: np.ndarray, capacities: np.ndarray, max_table_bytes: int
) -> bool:
    m, n = weights.shape
    table_bytes = (m + 1) * (n + 1) * n_words(n) * 8 + m * n * 8
    if table_bytes > max_table_bytes:
        return False
    if weights.size and float(weights.max()) > _MAX_INT_WEIGHT:
        return False
    if np.any(weights != np.floor(weights)):
        return False
    if np.any(capacities != np.floor(capacities)):
        return False
    return True


def _cumulative_prefix_words(order: np.ndarray, n: int, nw: int) -> np.ndarray:
    """``(n + 1, W)`` rows: row ``p`` packs ``order[:p]``."""
    units = np.zeros((n, nw), dtype=np.uint64)
    units[np.arange(n), order >> 6] = _BIT[order & 63]
    out = np.zeros((n + 1, nw), dtype=np.uint64)
    np.bitwise_or.accumulate(units, axis=0, out=out[1:])
    return out


def _build_integer_tables(weightsT: np.ndarray) -> IntegerScanTables:
    n, m = weightsT.shape
    nw = n_words(n)
    w_int = weightsT.astype(np.int64)
    maxw = int(w_int.max(initial=0))
    off = maxw + 2
    flat = np.empty(m * (n + 1), dtype=np.int64)
    cumbits = np.empty((m * (n + 1), nw), dtype=np.uint64)
    for i in range(m):
        col = w_int[:, i]
        order = np.argsort(col, kind="stable")
        flat[i * (n + 1) : i * (n + 1) + n] = col[order] + i * off
        flat[(i + 1) * (n + 1) - 1] = i * off + maxw + 1  # sentinel pad
        cumbits[i * (n + 1) : (i + 1) * (n + 1)] = _cumulative_prefix_words(order, n, nw)
    offsets = np.arange(m, dtype=np.int64) * off
    return IntegerScanTables(
        flat_sorted=flat,
        cumbits=cumbits,
        weightsT_int=np.ascontiguousarray(w_int),
        q_offsets=offsets,
        q_lo=offsets - 1,
        q_hi=offsets + maxw,
        words=nw,
    )


def _build_profit_tables(profits: np.ndarray) -> ProfitOrderTables:
    n = profits.shape[0]
    nw = n_words(n)
    order = np.argsort(profits, kind="stable")
    units = np.zeros((n, nw), dtype=np.uint64)
    units[np.arange(n), order >> 6] = _BIT[order & 63]
    suffix = np.zeros((n + 1, nw), dtype=np.uint64)
    np.bitwise_or.accumulate(units[::-1], axis=0, out=suffix[:n][::-1])
    return ProfitOrderTables(sorted_profits=profits[order].copy(), suffix=suffix)
