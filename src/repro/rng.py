"""Deterministic random number management.

Every stochastic component in the library takes a
:class:`numpy.random.Generator`.  Parallel search threads must each see an
*independent* stream that is nevertheless a pure function of the top-level
seed, so that a whole parallel run — including the simulated 16-processor
farm — replays bit-for-bit.  We achieve this with
:class:`numpy.random.SeedSequence` spawning, which is the NumPy-recommended
way to derive non-overlapping child streams.

Two hot seeding steps run in C (``core/_native.c``) when the native kernel
is available: :func:`task_seed`, the master's per-task seed, and
:func:`reseed`, a worker thread's re-seed of its one resident generator.
Each reproduces numpy's own chain bit for bit (``SeedSequence``'s hash
mix, PCG64's seeding and, for the task seed, the bounded Lemire draw), and
each falls back to the numpy expression it replaces, which stays the
reference (``tests/test_rng.py`` checks the two against each other).

Example
-------
>>> from repro.rng import derive_rng, make_rng, random_seed_from, spawn_rngs, task_seed
>>> rng = make_rng(42)
>>> slaves = spawn_rngs(rng_seed=42, n=4)
>>> len(slaves)
4
>>> task_seed(42, 1, 0) == random_seed_from(derive_rng(42, 1, 0))
True
"""

from __future__ import annotations

import operator

import numpy as np

from .core import native

__all__ = [
    "make_rng", "spawn_rngs", "derive_rng", "random_seed_from", "task_seed", "reseed",
]

_MASK32 = 0xFFFFFFFF


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (non-deterministic), an ``int`` seed, or an existing
    generator (returned unchanged) so that public APIs can take any of the
    three interchangeably.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(rng_seed: int, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent child generators from a root seed.

    The children are non-overlapping streams per NumPy's ``SeedSequence``
    spawning guarantees; child ``i`` is identical across runs for a fixed
    ``rng_seed``, which is what makes simulated parallel searches replayable.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    root = np.random.SeedSequence(rng_seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def derive_rng(rng_seed: int, *path: int) -> np.random.Generator:
    """Derive a generator addressed by a hierarchical integer ``path``.

    ``derive_rng(seed, a, b)`` is the generator a worker at position ``b``
    inside round ``a`` would receive.  Used by the master process to hand a
    fresh, reproducible stream to each slave at every search iteration
    without shipping generator state across process boundaries: the master
    sends :func:`task_seed`, the one seed this generator draws.  The stream
    is ``PCG64(SeedSequence((rng_seed, *path)))``, the chain
    :func:`task_seed` (and, for a one-int path, :func:`reseed`) computes
    in C.
    """
    entropy = (rng_seed, *path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def random_seed_from(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from ``rng`` (for handing to subprocesses)."""
    return int(rng.integers(0, 2**63 - 1))


def _entropy_words(entropy: tuple) -> list[int]:
    """``SeedSequence``'s uint32 coercion of a tuple of non-negative ints:
    each int's little-endian 32-bit words, at least one word per int."""
    words = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def task_seed(rng_seed: int, *path: int) -> int:
    """``random_seed_from(derive_rng(rng_seed, *path))``, without building
    the generator.

    The master's per-task seed (slave ``k`` of round ``b`` is addressed by
    ``(1 + b, k)``).  The native path is about 20 times faster and equal
    for every non-negative seed; a negative one raises ``ValueError`` on
    both paths.
    """
    if native.available:
        words = _entropy_words((rng_seed, *path))
        return native.lib.ts_task_seed(words, len(words))
    return random_seed_from(derive_rng(rng_seed, *path))


def reseed(generator: np.random.Generator, seed: int) -> np.random.Generator:
    """Re-seed a PCG64 ``generator`` in place so it continues exactly as
    ``default_rng(seed)`` would, and return it.

    Only the bit generator's state changes, so the object (and the
    ``bitgen_t`` pointer the C kernel holds) stays valid; a buffered
    32-bit half-word is dropped, as in a fresh generator.
    """
    if native.available:
        words = _entropy_words((seed,))
        out = native.ffi.new("uint64_t[4]")
        native.lib.ts_seed_pcg64(words, len(words), out)
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": out[0] << 64 | out[1], "inc": out[2] << 64 | out[3]},
            "has_uint32": 0,
            "uinteger": 0,
        }
    else:
        generator.bit_generator.state = np.random.PCG64(seed).state
    return generator
