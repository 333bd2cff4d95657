"""Persistent worker-process pool: the execution vehicle of every process run.

:class:`ProcessPool` owns long-lived *slots* -- worker processes running
:func:`_pool_child_main`, which sits on its inbox waiting for work,
executes it, reports through the pool's shared outbox, and returns to idle.
A slot accepts two kinds of work:

* a full SCP *program* assignment from
  :class:`~repro.scp.process_backend.ProcessBackend`, interpreted by
  :func:`_interpret_program` (the child side of the process backend lives
  here, next to the idle loop that calls it);
* a short *stage task* from the streaming pipeline engine
  (:mod:`repro.scp.stages`), whose result is committed to a spool file.

Every :class:`~repro.scp.process_backend.ProcessBackend` run executes on
pool slots, borrowed from a caller's pool or from a private one the run
creates and closes (see that module for the lifecycle).

The pool grows on demand (a run needing more replicas than there are idle
slots spawns the difference) and never shrinks on its own; slots whose
process died, was fault-injected, or may still be executing an abandoned
program are discarded rather than reused, so a recycled slot is always
genuinely idle.  One pool serves one run at a time -- interleaving two
concurrent runs over the same outbox would cross their reports -- which is
exactly the serial reuse pattern :class:`repro.api.session.FusionSession`
needs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..logging_utils import get_logger
from .channel import Mailbox
from .effects import Checkpoint, Compute, GetTime, Probe, Recv, Send, Sleep
from .errors import ReceiveTimeout, RuntimeStateError, SCPError
from .runtime import Context
from .serialization import Envelope

_LOG = get_logger("scp.pool")

#: First element of a program-assignment tuple deposited on a slot's inbox.
_ASSIGN = "__scp_pool_assign__"

#: Sentinel asking a pool child to exit its idle loop and terminate.
_POOL_EXIT = "__scp_pool_exit__"

#: Sentinel asking a slot to abandon its current program and return to idle.
_SHUTDOWN = "__scp_shutdown__"

#: Spacing of the duplicate-suppression sequence ranges of successive
#: incarnations, so a regenerated replica's un-keyed messages are never
#: mistaken for its predecessor's.
_INCARNATION_SEQ_STRIDE = 1_000_000


class _ShutdownSignal(Exception):
    """Internal control flow: the parent asked this slot to drop its program."""


def default_start_method() -> str:
    """Cheapest safe ``multiprocessing`` start method on this platform.

    ``fork`` avoids re-importing the interpreter per slot and is an order of
    magnitude faster to start than ``spawn``; it is preferred wherever the
    OS offers it.  For a pool the start cost only matters when the pool
    grows, but fast growth keeps the first request of a session cheap too.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------------
# Child-process side
# ---------------------------------------------------------------------------

def _interpret_program(logical: str, replica: int, physical_id: str, node: str,
                       program: Callable, params: Dict[str, Any], restored: Any,
                       incarnation: int, inbox, outbox, epoch: float) -> None:
    """Interpret one thread program inside a worker process.

    Everything observable leaves through ``outbox`` as small tagged tuples:
    ``("send", pid, envelope)``, ``("phase", pid, node, name, seconds)``,
    ``("checkpoint", logical, state)``, ``("finished", pid, result, dups)``
    and ``("crashed", pid, message)``.

    Returns normally both when the program runs to completion and when the
    parent requests a shutdown mid-program, so the slot's idle loop can call
    this once per assignment.
    """
    ctx = Context(name=logical, replica=replica, physical_id=physical_id,
                  node=node, params=dict(params), restored=restored,
                  incarnation=incarnation)
    mailbox = Mailbox(physical_id, dedup=True, thread_safe=False)
    send_seq = incarnation * _INCARNATION_SEQ_STRIDE

    def now() -> float:
        # Monotonic (RPL004): envelope timestamps are run-relative
        # *elapsed* time shared with the parent's epoch; the wall clock
        # would skew them under an NTP step mid-run.  CLOCK_MONOTONIC is
        # system-wide, so parent/child differences stay meaningful.
        return time.monotonic() - epoch

    def absorb(item: Any) -> None:
        if isinstance(item, str) and item == _SHUTDOWN:
            raise _ShutdownSignal()
        mailbox.deposit(item)

    def drain_nonblocking() -> None:
        while True:
            try:
                item = inbox.get_nowait()
            except queue_module.Empty:
                return
            absorb(item)

    def do_recv(effect: Recv):
        deadline = (None if effect.timeout is None
                    else time.monotonic() + effect.timeout)
        while True:
            envelope = mailbox.try_consume(effect.port)
            if envelope is not None:
                envelope.deliver_time = now()
                return envelope
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ReceiveTimeout(physical_id, effect.port, effect.timeout or 0.0)
            wait = 0.5 if remaining is None else min(remaining, 0.5)
            try:
                item = inbox.get(timeout=wait)
            except queue_module.Empty:
                continue
            absorb(item)

    def execute(effect):
        nonlocal send_seq
        if isinstance(effect, Compute):
            start = time.perf_counter()
            result = effect.fn(*effect.args, **effect.kwargs)
            outbox.put(("phase", physical_id, node, effect.phase,
                        time.perf_counter() - start))
            return result
        if isinstance(effect, Send):
            send_seq += 1
            envelope = Envelope(src=logical, dst=effect.dst, port=effect.port,
                                payload=effect.payload, seq=send_seq,
                                key=effect.key, src_physical=physical_id,
                                urgent=effect.urgent, send_time=now())
            outbox.put(("send", physical_id, envelope))
            return None
        if isinstance(effect, Recv):
            return do_recv(effect)
        if isinstance(effect, Probe):
            drain_nonblocking()
            return mailbox.has_matching(effect.port)
        if isinstance(effect, Sleep):
            time.sleep(max(0.0, effect.seconds))
            return None
        if isinstance(effect, Checkpoint):
            outbox.put(("checkpoint", logical, effect.state))
            return None
        if isinstance(effect, GetTime):
            return now()
        raise SCPError(f"program yielded a non-effect object: {effect!r}")

    gen = program(ctx, **params)
    value: Any = None
    throw: Optional[BaseException] = None
    try:
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    effect = gen.throw(exc)
                else:
                    effect = gen.send(value)
            except StopIteration as stop:
                outbox.put(("finished", physical_id, stop.value,
                            mailbox.suppressed_duplicates))
                return
            try:
                value = execute(effect)
            except _ShutdownSignal:
                raise
            except ReceiveTimeout as err:
                value, throw = None, err
    except _ShutdownSignal:
        return
    except ReceiveTimeout as err:
        outbox.put(("crashed", physical_id, f"uncaught ReceiveTimeout: {err}"))
    except Exception as err:  # noqa: BLE001 - program errors are reported
        outbox.put(("crashed", physical_id, repr(err)))


def _pool_child_main(slot_name: str, inbox, outbox) -> None:
    """Idle loop of a pool slot: wait for assignments, interpret, repeat.

    A slot accepts two kinds of work: full SCP *program* assignments
    (interpreted by :func:`_interpret_program`) and short *stage tasks* from
    the streaming pipeline engine (:mod:`repro.scp.stages`).  Anything else
    on the inbox -- a stale envelope or shutdown marker from a program that
    already ended -- is dropped, so leftovers of a previous run can never
    leak into the next.
    """
    from ..data.shared import release_attachments
    from .stages import try_run_stage
    while True:
        item = inbox.get()
        if isinstance(item, str) and item == _POOL_EXIT:
            # Drop any cached output-placement mappings deterministically
            # rather than relying on process teardown to release the pages.
            release_attachments()
            return
        if try_run_stage(item, outbox):
            continue
        if not (isinstance(item, tuple) and len(item) == 10 and item[0] == _ASSIGN):
            continue
        (_, logical, replica, physical_id, node, program, params,
         restored, incarnation, epoch) = item
        _interpret_program(logical, replica, physical_id, node, program,
                           params, restored, incarnation, inbox, outbox, epoch)


# ---------------------------------------------------------------------------
# Parent-process side
# ---------------------------------------------------------------------------

class _PoolSlot:
    """Parent-side record of one long-lived worker process."""

    def __init__(self, name: str, process, inbox) -> None:
        self.name = name
        self.process = process
        self.inbox = inbox
        self.busy = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessPool:
    """A growable set of long-lived worker processes.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method for slot processes; defaults to
        :func:`default_start_method` (``fork`` where available -- safe here
        because slots are spawned from the single-threaded control path).
    warm:
        Number of slots to spawn immediately; the pool also grows on demand.
    """

    def __init__(self, *, start_method: Optional[str] = None, warm: int = 0) -> None:
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self.outbox = self._ctx.Queue()
        self._slots: List[_PoolSlot] = []
        self._lock = threading.Lock()
        self._names = itertools.count()
        self._closed = False
        #: Total slot processes ever spawned (observable setup cost; a warmed
        #: session keeps this flat across repeated runs).
        self.spawned_processes = 0
        if warm:
            self.ensure(warm)

    # --------------------------------------------------------------- queries
    @property
    def size(self) -> int:
        """Live slots, busy or idle."""
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive)

    @property
    def idle(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive and not slot.busy)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------ allocation
    def ensure(self, count: int) -> None:
        """Grow the pool until at least ``count`` live slots exist."""
        with self._lock:
            self._check_open()
            self._prune_dead()
            while sum(1 for slot in self._slots if slot.alive) < count:
                self._spawn_slot()

    def acquire(self, *, allow_spawn: bool = True) -> Optional[_PoolSlot]:
        """Borrow an idle slot, spawning a fresh one when none is free.

        ``allow_spawn=False`` returns ``None`` instead of spawning -- used
        by callers on threads where forking a new slot process would race
        other threads' queue feeders (the stage executor's crash-retry
        path defers until a warm slot frees up instead).
        """
        with self._lock:
            self._check_open()
            self._prune_dead()
            slot = next((slot for slot in self._slots
                         if slot.alive and not slot.busy), None)
            if slot is None:
                if not allow_spawn:
                    return None
                slot = self._spawn_slot()
            slot.busy = True
            return slot

    def release(self, slot: _PoolSlot) -> None:
        """Return a borrowed slot; unknown (discarded) slots are ignored."""
        with self._lock:
            if slot in self._slots:
                slot.busy = False

    def discard(self, slot: _PoolSlot) -> None:
        """Remove a slot from the pool and terminate its process.

        Used for fault injection, timeouts, and any slot that may still be
        executing an abandoned program -- reusing such a slot could leak a
        stale report into a later run.  The slot's inbox is released here
        too: its feeder thread would otherwise block interpreter shutdown
        on data buffered for the killed process.
        """
        with self._lock:
            if slot in self._slots:
                self._slots.remove(slot)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)
        slot.inbox.cancel_join_thread()
        slot.inbox.close()

    def _spawn_slot(self) -> _PoolSlot:
        name = f"scp-pool-{next(self._names)}"
        inbox = self._ctx.Queue()
        process = self._ctx.Process(target=_pool_child_main,
                                    args=(name, inbox, self.outbox),
                                    name=name, daemon=True)
        process.start()
        self.spawned_processes += 1
        slot = _PoolSlot(name, process, inbox)
        self._slots.append(slot)
        return slot

    def _prune_dead(self) -> None:
        self._slots = [slot for slot in self._slots if slot.alive]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeStateError("process pool is closed")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Terminate every slot and release the pool's queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            slots = list(self._slots)
            self._slots.clear()
        for slot in slots:
            try:
                slot.inbox.put(_POOL_EXIT)
            # Narrowed (RPL005): only the "queue already broken" failures
            # are survivable here -- ValueError (closed queue), OSError
            # (dead feeder pipe), AssertionError (pre-3.12 closed-queue
            # signalling).  Anything else is a real bug and must surface.
            except (ValueError, OSError, AssertionError):  # pragma: no cover
                pass
        for slot in slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
        for slot in slots:
            slot.inbox.cancel_join_thread()
            slot.inbox.close()
        self.outbox.cancel_join_thread()
        self.outbox.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["ProcessPool", "default_start_method"]
