"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import threading
from typing import Iterator

import numpy as np
import pytest

from repro.core import MKPInstance
from repro.instances import correlated_instance, uncorrelated_instance


@pytest.fixture
def tiny_instance() -> MKPInstance:
    """A hand-checkable 2-constraint, 4-item instance.

    Items: profits [10, 7, 8, 3]; optimum is {0, 2} with value 18:
      weights row0: 5 + 4 = 9 <= 10, row1: 3 + 5 = 8 <= 8.
    """
    return MKPInstance.from_lists(
        weights=[[5, 6, 4, 2], [3, 4, 5, 1]],
        capacities=[10, 8],
        profits=[10, 7, 8, 3],
        name="tiny",
        optimum=18.0,
    )


@pytest.fixture
def small_instance() -> MKPInstance:
    """A small seeded instance for fast algorithm tests (5x30)."""
    return correlated_instance(5, 30, rng=42, name="small-5x30")


@pytest.fixture
def medium_instance() -> MKPInstance:
    """A medium seeded instance (10x80)."""
    return uncorrelated_instance(10, 80, rng=43, name="medium-10x80")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mp_context() -> str:
    """Multiprocessing start method for process-backed tests.

    Defaults to ``fork`` (fast); the CI spawn leg exports
    ``REPRO_MP_CONTEXT=spawn`` to run the same suites under the start
    method macOS/Windows use, where workers re-import instead of
    inheriting memory.
    """
    return os.environ.get("REPRO_MP_CONTEXT", "fork")


@pytest.fixture(scope="session", autouse=True)
def no_serial_helper_left() -> Iterator[None]:
    """At session end, no ``SerialBackend`` helper thread is alive.

    A backend joins its helpers on ``shutdown()``; one a test dropped
    without shutting it down stops them when it is collected.
    """
    yield
    gc.collect()
    helpers = [t for t in threading.enumerate() if t.name.startswith("repro-serial-")]
    for thread in helpers:
        thread.join(timeout=5.0)
    alive = [t.name for t in helpers if t.is_alive()]
    assert not alive, f"helper threads still running after the session: {alive}"
