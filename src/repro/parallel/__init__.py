"""Message-passing substrate: PVM/MPI-style comm + execution backends."""

from .backend_socket import SocketBackend, run_worker
from .backends import Backend, MultiprocessingBackend, SerialBackend
from .comm import (
    Comm,
    CommClosedError,
    CommTimeout,
    InProcComm,
    MessageRouter,
    PipeComm,
)
from .faults import ChaosComm, FaultEvent, FaultKind, FaultPlan
from .message import RESULT_TAG, SlaveReport, SlaveTask
from .runtime import SlaveRuntime
from .shm import (
    RingEmpty,
    RingFull,
    ShmComm,
    ShmRing,
    TornFrameError,
    WireCodec,
    WireError,
    resolve_transport,
    shm_available,
)

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
    "Comm",
    "InProcComm",
    "PipeComm",
    "MessageRouter",
    "CommTimeout",
    "CommClosedError",
    "ChaosComm",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SlaveTask",
    "SlaveReport",
    "RESULT_TAG",
]
