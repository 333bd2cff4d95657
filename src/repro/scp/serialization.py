"""Message envelopes, payload size accounting, and spool-file commits.

The cost model of the simulated backend needs to know how many bytes a
message occupies on the wire.  Rather than actually pickling every payload
(which would dominate the runtime of large simulations), :func:`payload_nbytes`
walks the payload structure and sums the sizes of NumPy arrays, byte strings
and scalars, falling back to :mod:`pickle` only for unknown object graphs.
The estimate errs on the side of the dominant contributors -- the sub-cube
arrays exchanged between manager and workers -- which is what matters for the
shape of Figures 4 and 5.

This module also owns the *atomic spool commit* -- the one way a result
ever crosses a process boundary on the crash-safe paths
(:mod:`repro.scp.transport`): write the payload next to its final name,
then :func:`os.rename` into place.  A SIGKILL either commits a complete
file or leaves nothing; readers never observe a torn write.  Every
transport reuses :func:`commit_spool_file` rather than growing its own
rename-commit implementation.

Right after the rename a worker sends one datagram to the spool's *wake
socket* (:func:`wake_spool`), so the parent's router wakes on the commit
instead of polling for it.  The datagram is only a hint: the spool scan
stays the authority for what committed.
"""

from __future__ import annotations

import os
import pickle
import socket
import sys
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

#: Fixed envelope overhead in bytes: logical addresses, port name, sequence
#: number, flags.  Matches the order of magnitude of an SCPlib/TCP header.
ENVELOPE_OVERHEAD_BYTES = 96

#: Spool-file suffixes a finished stage task commits (atomic rename) and
#: the transports scan for.
RESULT_SUFFIX = ".result"
ERROR_SUFFIX = ".error"

#: Name of the ``AF_UNIX`` datagram socket a transport binds inside its
#: spool directory; workers send it one byte after every commit.
WAKE_NAME = "wake"

#: ``(pid, socket)`` of this process's wake sender, created on first use.
#: Keyed by pid so a forked worker never sends through its parent's fd.
_wake_sender: Optional[Tuple[int, socket.socket]] = None


def spool_root() -> Optional[str]:
    """RAM-backed directory for result spool files where the OS has one."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def unlink_quietly(path: str) -> None:
    """Remove ``path`` if it exists; a concurrent unlink is not an error."""
    try:
        os.unlink(path)
    except OSError:
        pass


def commit_spool_file(spool_dir: str, name: str, payload: bytes) -> None:
    """Write ``payload`` and atomically rename into place (the commit).

    The partial file lives in the same directory as its final name so the
    rename never crosses a filesystem boundary (``os.rename`` is only
    atomic within one).  Used by every worker transport: a process killed
    mid-write leaves only the ``.tmp``, which scanners ignore.
    """
    final = os.path.join(spool_dir, name)
    partial = final + ".tmp"
    with open(partial, "wb") as fh:
        fh.write(payload)
    os.rename(partial, final)


def wake_spool(spool_dir: str) -> None:
    """Wake the router scanning ``spool_dir``: one datagram, best effort.

    Sent right after a commit's rename.  A Unix datagram arrives whole or
    not at all, the send never blocks and shares no lock, so a worker
    SIGKILLed mid-send tears nothing.  A lost wake (receiver queue full,
    socket gone) costs only latency: the router's periodic spool scan
    still finds the committed file.
    """
    global _wake_sender
    pid = os.getpid()
    try:
        if _wake_sender is None or _wake_sender[0] != pid:
            sender = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
            sender.setblocking(False)
            _wake_sender = (pid, sender)
        _wake_sender[1].sendto(b"\0", os.path.join(spool_dir, WAKE_NAME))
    except OSError:
        pass


def payload_nbytes(payload: Any) -> int:
    """Estimate the serialised size of ``payload`` in bytes.

    NumPy arrays contribute their buffer size, containers are walked
    recursively, strings/bytes contribute their encoded length, numbers a
    fixed 8 bytes.  Objects exposing a ``nbytes_estimate()`` method (such as
    :class:`repro.data.cube.HyperspectralCube`) are asked directly.  Anything
    else is pickled as a last resort.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    estimator = getattr(payload, "nbytes_estimate", None)
    if callable(estimator):
        return int(estimator())
    # Dataclass-like objects: walk their __dict__ before resorting to pickle.
    obj_dict = getattr(payload, "__dict__", None)
    if obj_dict:
        return 32 + sum(payload_nbytes(v) for v in obj_dict.values())
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(payload)


@dataclass
class Envelope:
    """A message in flight between two logical threads.

    Attributes
    ----------
    src / src_physical:
        Logical sender name (``"worker.3"``) and the physical replica that
        actually emitted the message (``"worker.3#1"``).
    dst / port:
        Logical destination and named port.
    payload:
        Application payload.
    seq:
        Per-sender send sequence number, assigned by the sending context.
    key:
        Duplicate-suppression key; ``None`` falls back to ``seq``.
    urgent:
        Control traffic flag (heartbeats, acknowledgements).
    send_time / deliver_time:
        Timestamps filled in by the backend (virtual or wall-clock seconds).
    """

    src: str
    dst: str
    port: str
    payload: Any = None
    seq: int = 0
    key: Optional[Tuple[Any, ...]] = None
    src_physical: str = ""
    urgent: bool = False
    send_time: float = 0.0
    deliver_time: float = 0.0

    @property
    def dedup_key(self) -> Tuple[Any, ...]:
        """Key under which receivers suppress replicated duplicates."""
        if self.key is not None:
            return (self.src, self.port) + tuple(self.key)
        return (self.src, self.port, self.seq)

    @property
    def nbytes(self) -> int:
        """Estimated wire size of the envelope including headers."""
        return ENVELOPE_OVERHEAD_BYTES + payload_nbytes(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Envelope {self.src}->{self.dst}:{self.port} seq={self.seq} "
                f"bytes={self.nbytes}>")


__all__ = [
    "ENVELOPE_OVERHEAD_BYTES",
    "ERROR_SUFFIX",
    "Envelope",
    "RESULT_SUFFIX",
    "WAKE_NAME",
    "commit_spool_file",
    "payload_nbytes",
    "spool_root",
    "unlink_quietly",
    "wake_spool",
]
