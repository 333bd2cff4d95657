"""SCPlib-like concurrent programming library.

This subpackage provides the message-passing substrate the paper's
application and resiliency layers are written against: thread programs as
effect-yielding generators (:mod:`.effects`), explicit communication
structures (:mod:`.topology`), logical-to-physical routing with duplicate
suppression (:mod:`.group`, :mod:`.channel`) and three interchangeable
execution backends -- real threads (:mod:`.local_backend`), real processes
with shared-memory data placement (:mod:`.process_backend`) and a
deterministic discrete-event simulation of a workstation cluster
(:mod:`.sim_backend`).

Backends are addressable by name through the registry (:mod:`.registry`,
spec strings such as ``"process:fork"`` or ``"sim:switched"``), and the
persistent worker pool (:mod:`.pool`) supplies the worker processes of every
process run; keeping one open lets repeated runs reuse live workers instead
of spawning per run.

The streaming pipeline engine executes *stage tasks* rather than SCP
programs; its worker substrates live behind the transport seam
(:mod:`.transport` -- in-process threads, forked pool slots, or a socket
node agent), driven by the unified stage executor (:mod:`.stages`).
"""

from .channel import Mailbox
from .effects import (Checkpoint, Compute, Effect, GetTime, Probe, Recv, Send,
                      Sleep)
from .errors import (DeadlockError, PlacementError, ReceiveTimeout,
                     RuntimeStateError, SCPError, ThreadCrashedError,
                     UnknownDestinationError)
from .group import Router
from .local_backend import LocalBackend
from .pool import ProcessPool, default_start_method
from .process_backend import ProcessBackend
from .registry import (SIM_PRESETS, BackendContext, BackendSpec, backend_names,
                       create_backend, describe_backends, register_backend)
from .runtime import (Application, Backend, Context, RunResult, ThreadOutcome,
                      plan_placement)
from .serialization import ENVELOPE_OVERHEAD_BYTES, Envelope, payload_nbytes
from .stages import (PoolStageExecutor, StageCrashError, StageError,
                     TransportStageExecutor)
from .transport import (CommittedResult, ForkedProcessTransport,
                        InProcessTransport, SocketTransport, TaskFrame,
                        WorkerTransport, create_transport, describe_transports,
                        register_transport, transport_names)
from .sim_backend import (CONTROL_MESSAGE_BYTES, ProtocolConfig, SimBackend,
                          TaskStatus)
from .thread import ThreadProgram, ThreadSpec, parse_physical, physical_name
from .topology import ChannelDecl, CommunicationStructure
from .tracing import (ComputeInterval, LifecycleEvent, MessageRecord,
                      TraceRecorder)

__all__ = [
    "Mailbox",
    "Checkpoint",
    "Compute",
    "Effect",
    "GetTime",
    "Probe",
    "Recv",
    "Send",
    "Sleep",
    "DeadlockError",
    "PlacementError",
    "ReceiveTimeout",
    "RuntimeStateError",
    "SCPError",
    "ThreadCrashedError",
    "UnknownDestinationError",
    "Router",
    "LocalBackend",
    "ProcessPool",
    "default_start_method",
    "ProcessBackend",
    "SIM_PRESETS",
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "describe_backends",
    "register_backend",
    "Application",
    "Backend",
    "Context",
    "RunResult",
    "ThreadOutcome",
    "plan_placement",
    "ENVELOPE_OVERHEAD_BYTES",
    "Envelope",
    "payload_nbytes",
    "PoolStageExecutor",
    "StageCrashError",
    "StageError",
    "TransportStageExecutor",
    "CommittedResult",
    "ForkedProcessTransport",
    "InProcessTransport",
    "SocketTransport",
    "TaskFrame",
    "WorkerTransport",
    "create_transport",
    "describe_transports",
    "register_transport",
    "transport_names",
    "CONTROL_MESSAGE_BYTES",
    "ProtocolConfig",
    "SimBackend",
    "TaskStatus",
    "ThreadProgram",
    "ThreadSpec",
    "parse_physical",
    "physical_name",
    "ChannelDecl",
    "CommunicationStructure",
    "ComputeInterval",
    "LifecycleEvent",
    "MessageRecord",
    "TraceRecorder",
]
