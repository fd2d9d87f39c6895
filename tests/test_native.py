"""The native kernel's RNG proof and build contract (``repro.core.native``).

The C kernel breaks Drop and Add ties with draws from the search thread's
own numpy ``Generator``.  ``ts_bounded`` is its ``integers(0, k)``:
these cases check it against numpy's own draw for k across [1, 2**32), on
``default_rng`` and ``spawn_rngs`` streams, and check that the generator
state stays identical when C draws interleave with Python ``random()``,
``permutation()`` and ``integers()`` calls.  Trajectory-level exactness is
pinned in ``tests/test_bitset.py`` and ``tests/test_differential.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import SearchState, Strategy, TabuSearch, TabuSearchConfig, native
from repro.instances import gk_instance
from repro.rng import spawn_rngs

pytestmark = pytest.mark.skipif(
    not native.available, reason="native kernel unavailable on this host"
)

#: k over the whole 32-bit range, weighted towards the small tie counts the
#: kernel draws and the edges of numpy's rejection threshold.
BOUNDS = st.one_of(
    st.integers(1, 600),
    st.integers(1, 2**32 - 1),
    st.sampled_from([2, 3, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1]),
)
SEEDS = st.integers(0, 2**63)


def _c_integers(rng: np.random.Generator, k: int) -> int:
    """``rng.integers(0, k)`` drawn by the C kernel's ``ts_bounded``."""
    return int(native.lib.ts_bounded(native._bitgen(rng), k))


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestBoundedDraw:
    @given(SEEDS, st.lists(BOUNDS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_integers(self, seed, bounds):
        c_side, py_side = _pair(seed)
        got = [_c_integers(c_side, k) for k in bounds]
        want = [int(py_side.integers(0, k)) for k in bounds]
        assert got == want
        assert c_side.bit_generator.state == py_side.bit_generator.state

    @given(st.integers(0, 2**32), st.integers(1, 6), st.lists(BOUNDS, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_matches_on_spawned_children(self, seed, n, bounds):
        for c_side, py_side in zip(spawn_rngs(seed, n), spawn_rngs(seed, n)):
            assert [_c_integers(c_side, k) for k in bounds] == [
                int(py_side.integers(0, k)) for k in bounds
            ]
            assert c_side.bit_generator.state == py_side.bit_generator.state

    @given(
        SEEDS,
        st.lists(
            st.tuples(st.sampled_from(["c", "random", "permutation", "integers"]), BOUNDS),
            max_size=60,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_with_python_draws_stays_in_sync(self, seed, ops):
        a, b = _pair(seed)
        for op, k in ops:
            if op == "c":
                assert _c_integers(a, k) == int(b.integers(0, k))
            elif op == "integers":  # roles swapped: numpy on a, C on b
                assert int(a.integers(0, k)) == _c_integers(b, k)
            elif op == "random":
                assert a.random() == b.random()
            else:
                size = k % 50 + 1
                assert a.permutation(size).tolist() == b.permutation(size).tolist()
        assert a.bit_generator.state == b.bit_generator.state

    def test_k_one_draws_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert _c_integers(rng, 1) == 0
        assert rng.bit_generator.state == before


class TestBuild:
    def test_integer_instances_bind_the_native_kernel(self):
        assert SearchState.empty(gk_instance(5)).native() is not None

    def test_extension_is_cached_outside_the_source_tree(self):
        built = Path(native._module.__file__).resolve()
        assert built.parent == native._cache_dir().resolve()
        assert not built.is_relative_to(Path(repro.__file__).resolve().parent)

    def test_unwritable_cache_falls_back_to_numpy_with_one_warning(self, tmp_path):
        # A cache "directory" that is a regular file: the build cannot even
        # create its temporary directory, so the loader must fall back.
        blocker = tmp_path / "cache"
        blocker.write_text("")
        out = _import_in_subprocess(XDG_CACHE_HOME=str(blocker))
        assert out[0] == "False 1"
        here = TabuSearch(
            gk_instance(5), Strategy(8, 2, 10), TabuSearchConfig(nb_div=1), rng=3
        ).run()
        assert out[1] == f"{here.best.value} {here.evaluations} {here.moves}"

    def test_failed_build_is_remembered_and_not_retried(self, tmp_path):
        cache = tmp_path / "cache"
        first = _import_in_subprocess(XDG_CACHE_HOME=str(cache), CC="/nonexistent/cc")
        assert first[0] == "False 1"
        markers = list(cache.rglob("*.failed"))
        assert len(markers) == 1
        # A working compiler now: the marker, not a second build, decides.
        second = _import_in_subprocess(XDG_CACHE_HOME=str(cache))
        assert second[0] == "False 1"
        assert "delete" in second[2] and str(markers[0]) in second[2]
        assert list(cache.rglob("*.so")) == []
        assert second[1] == first[1]


def _import_in_subprocess(**env_overrides: str) -> list[str]:
    """Import repro in a fresh interpreter and run one seeded GK5 search.

    Lines: ``"<available> <native warnings>"``, ``"<value> <evals> <moves>"``,
    and the first native warning's text.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    from repro.core import Strategy, TabuSearch, TabuSearchConfig, native\n"
        "    from repro.instances import gk_instance\n"
        "mine = [str(w.message) for w in caught if 'native' in str(w.message)]\n"
        "print(native.available, len(mine))\n"
        "r = TabuSearch(gk_instance(5), Strategy(8, 2, 10), TabuSearchConfig(nb_div=1),"
        " rng=3).run()\n"
        "print(r.best.value, r.evaluations, r.moves)\n"
        "print(mine[0] if mine else '')\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout.split("\n")
