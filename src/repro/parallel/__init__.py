"""Message-passing substrate: wire frames, carriers and execution backends."""

from .backend_socket import SocketBackend, run_worker
from .backends import Backend, MultiprocessingBackend, SerialBackend
from .faults import FaultEvent, FaultKind, FaultPlan
from .message import RESULT_TAG, SlaveReport, SlaveTask
from .runtime import SlaveRuntime
from .shm import (
    CommClosedError,
    CommTimeout,
    RingEmpty,
    RingFull,
    ShmComm,
    ShmRing,
    TornFrameError,
    resolve_transport,
    shm_available,
)
from .wire import WireCodec, WireError

__all__ = [
    "ShmRing",
    "ShmComm",
    "WireCodec",
    "WireError",
    "RingEmpty",
    "RingFull",
    "TornFrameError",
    "resolve_transport",
    "shm_available",
    "SlaveRuntime",
    "Backend",
    "SerialBackend",
    "MultiprocessingBackend",
    "SocketBackend",
    "run_worker",
    "CommTimeout",
    "CommClosedError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SlaveTask",
    "SlaveReport",
    "RESULT_TAG",
]
