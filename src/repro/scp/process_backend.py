"""Process-parallel execution backend: real OS processes, wall-clock time.

This backend runs the *same* thread programs as the simulated and local
backends, but on genuine worker processes, one per physical replica.  Unlike
the thread-based :class:`~repro.scp.local_backend.LocalBackend` -- which
shares a single CPython interpreter and therefore a single GIL -- every
replica here owns an interpreter of its own, so compute phases genuinely
overlap on multi-core hosts and the measured wall-clock speed-up is real
rather than simulated.

Architecture
------------
The worker processes are slots of a :class:`~repro.scp.pool.ProcessPool`;
the child side (the slot's idle loop and the effect interpreter) lives in
:mod:`repro.scp.pool`.  The parent process is the *post office*: it owns the
logical-to-physical :class:`~repro.scp.group.Router` and reads the pool's
single ``outbox`` queue that every slot writes to.  A child never talks to
another child directly; a :class:`~repro.scp.effects.Send` becomes a pickled
:class:`~repro.scp.serialization.Envelope` on the outbox, the parent expands
the logical destination to the live replicas and deposits the envelope on
each replica's slot ``inbox``.  Inside the child the inbox feeds the ordinary
:class:`~repro.scp.channel.Mailbox`, so port filtering and duplicate
suppression behave exactly as on the other backends.

Pool lifecycle
--------------
``ProcessBackend(pool=...)`` borrows slots from a pool the caller keeps alive
across runs (:class:`repro.api.session.FusionSession` does).  Without one,
the backend creates a private pool when :meth:`ProcessBackend.run` starts
and closes it when the run ends, so a backend that is built but never run
owns no process.  Either way a run acquires one slot per replica; when a
replica's record is retired -- at the end of the run, or when
:meth:`ProcessBackend.spawn_thread` replaces it -- its slot is released to
the pool if its program provably ended, and discarded otherwise.

Bulk problem data is *not* pickled: thread parameters holding a
:class:`~repro.data.cube.HyperspectralCube` are transparently converted to
:class:`~repro.data.shared.SharedCube`, whose samples live in a shared-memory
segment that every process maps zero-copy.

Crash handling mirrors the local backend: a program exception is reported and
recorded as a ``"crashed"`` outcome (raised as
:class:`~repro.scp.errors.ThreadCrashedError` after the run under the default
crash policy), and a process that dies without reporting -- a hard kill, an
out-of-memory kill, a segfault -- is detected by the parent's liveness sweep.
Death notifications feed the same ``subscribe_thread_death`` /
``spawn_thread`` control interface the resiliency layer drives on the other
backends, so failed workers can be regenerated mid-run.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..cluster.metrics import MetricsCollector
from ..data.shared import share_cube_params
from ..logging_utils import get_logger
from .errors import RuntimeStateError, SCPError, ThreadCrashedError
from .group import Router
from .pool import _ASSIGN, _SHUTDOWN, ProcessPool, _PoolSlot
from .runtime import Application, Backend, RunResult, ThreadOutcome
from .serialization import Envelope
from .thread import ThreadSpec, physical_name

_LOG = get_logger("scp.process")

#: Seconds a process may be dead without a terminal record before the parent
#: declares it crashed (gives the queue feeder time to flush a late report).
_DEATH_CONFIRM_SECONDS = 0.25


class _ProcessTask:
    """Parent-side record of one physical replica."""

    def __init__(self, spec: ThreadSpec, replica: int, physical_id: str,
                 incarnation: int, restored: Any) -> None:
        self.spec = spec
        self.logical = spec.name
        self.replica = replica
        self.physical_id = physical_id
        self.incarnation = incarnation
        self.daemon = spec.daemon
        self.slot: Optional[_PoolSlot] = None
        self.restored = restored
        self.status = "ready"
        self.result: Any = None
        self.error: Optional[str] = None
        self.first_seen_dead: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.status in ("ready", "running")

    @property
    def process(self) -> Optional[multiprocessing.process.BaseProcess]:
        """The slot process running this replica (``None`` once returned)."""
        return self.slot.process if self.slot is not None else None


class ProcessBackend(Backend):
    """Multi-process execution backend with shared-memory data placement."""

    kind = "process"

    def __init__(self, *, pool: Optional[ProcessPool] = None,
                 crash_policy: str = "raise",
                 default_timeout: Optional[float] = 300.0,
                 start_method: str = "spawn",
                 shutdown_grace: float = 5.0) -> None:
        """Create a process backend.

        Parameters
        ----------
        pool:
            Pool whose slots the run borrows; it stays open afterwards.
            When ``None`` the run creates a private pool and closes it when
            the run ends.
        crash_policy:
            ``"raise"`` re-raises the first program crash as
            :class:`ThreadCrashedError` after the run; ``"record"`` only
            records it in the outcomes.
        default_timeout:
            Wall-clock safety limit (seconds) applied to :meth:`run` unless
            overridden; prevents a wedged run from hanging forever.
        start_method:
            ``multiprocessing`` start method of the private pool (a
            borrowed pool keeps its own).  ``"spawn"`` (default) is portable
            and immune to fork-with-threads hazards; ``"fork"`` starts
            faster on Linux.
        shutdown_grace:
            Seconds stragglers are given to exit on their own once the
            ``until_thread`` has finished, before being shut down.
        """
        if crash_policy not in ("raise", "record"):
            raise ValueError("crash_policy must be 'raise' or 'record'")
        self.crash_policy = crash_policy
        self.default_timeout = default_timeout
        self.start_method = pool.start_method if pool is not None else start_method
        self.shutdown_grace = shutdown_grace
        self.router = Router()
        self.collector = MetricsCollector()
        self._pool = pool
        self._owns_pool = pool is None
        self._tasks: Dict[str, _ProcessTask] = {}
        self._lock = threading.RLock()
        self._dead_letters: Dict[str, List[Envelope]] = {}
        self._death_callbacks: List[Callable[[str, str, str], None]] = []
        self._checkpoints: Dict[str, Any] = {}
        self._shared_params: Dict[str, Dict[str, Any]] = {}
        self._shared_cubes: List[Any] = []
        self._messages = 0
        self._bytes = 0
        self._epoch = 0.0
        self._start_time = 0.0
        self._app: Optional[Application] = None
        self._ran = False

    # --------------------------------------------------------------- queries
    @property
    def pool(self) -> Optional[ProcessPool]:
        """The caller's pool this backend borrows from (``None`` when each
        run uses a private pool)."""
        return None if self._owns_pool else self._pool

    @property
    def now(self) -> float:
        """Seconds since the run started (wall clock)."""
        return time.perf_counter() - self._start_time if self._start_time else 0.0

    def live_replicas(self, logical: str) -> List[str]:
        with self._lock:
            return [pid for pid in self.router.physical_targets(logical)
                    if pid in self._tasks and self._tasks[pid].alive]

    def checkpoint_of(self, logical: str) -> Any:
        with self._lock:
            return self._checkpoints.get(logical)

    def subscribe_thread_death(self, callback: Callable[[str, str, str], None]) -> None:
        self._death_callbacks.append(callback)

    # ------------------------------------------------------------------- run
    def run(self, app: Application, *, timeout: Optional[float] = None,
            until_thread: Optional[str] = None) -> RunResult:
        """Run ``app`` on real processes.

        ``until_thread`` names a logical thread whose completion ends the run
        (stragglers get ``shutdown_grace`` seconds to drain, then are shut
        down), exactly as on the local backend.
        """
        if self._ran:
            raise RuntimeStateError("ProcessBackend instances are single use; create a new one")
        self._ran = True
        app.validate()
        self._app = app
        timeout = timeout if timeout is not None else self.default_timeout
        if self._owns_pool:
            self._pool = ProcessPool(start_method=self.start_method)
        # Drop anything a previous run on this pool may have left behind so
        # its records cannot bleed into this one.
        while True:
            try:
                self._pool.outbox.get_nowait()
            except queue_module.Empty:
                break
        self._epoch = time.monotonic()  # run-relative timestamps (RPL004)
        self._start_time = time.perf_counter()

        try:
            with self._lock:
                tasks = [self._create_task(spec, replica, restored=None, incarnation=0)
                         for spec in app.specs
                         for replica in range(spec.replicas)]
                for task in tasks:
                    self._start_task(task)
            deadline = (time.perf_counter() + timeout) if timeout is not None else None
            self._event_loop(until_thread, deadline)
            elapsed = time.perf_counter() - self._start_time
            return self._build_result(elapsed)
        finally:
            self._cleanup()

    # ------------------------------------------------------------ event loop
    def _event_loop(self, until_thread: Optional[str], deadline: Optional[float]) -> None:
        while True:
            self._pump(0.02)
            self._sweep_dead_processes()
            with self._lock:
                if until_thread is not None:
                    group = [t for t in self._tasks.values() if t.logical == until_thread]
                    done = any(t.status == "finished" for t in group)
                    if done or all(not t.alive for t in group):
                        break
                else:
                    if not any(t.alive for t in self._tasks.values() if not t.daemon):
                        break
            if deadline is not None and time.perf_counter() > deadline:
                with self._lock:
                    stuck = [t.physical_id for t in self._tasks.values() if t.alive]
                for pid in stuck:
                    self.kill_thread(pid, reason="timeout")
                raise SCPError(f"process run timed out; still alive: {stuck}")
        self._drain_stragglers(until_thread, deadline)

    def _drain_stragglers(self, until_thread: Optional[str],
                          deadline: Optional[float]) -> None:
        """Give remaining processes a grace period, then shut them down."""
        grace_end = time.perf_counter() + self.shutdown_grace
        while True:
            self._pump(0.02)
            self._sweep_dead_processes()
            with self._lock:
                pending = [t for t in self._tasks.values() if t.alive and not t.daemon
                           and t.logical != until_thread]
            if not pending:
                break
            now = time.perf_counter()
            if now > grace_end or (deadline is not None and now > deadline):
                for task in pending:
                    self.kill_thread(task.physical_id, reason="shutdown")
                break
        with self._lock:
            leftovers = [t for t in self._tasks.values() if t.alive]
        for task in leftovers:
            self.kill_thread(task.physical_id, reason="shutdown")
        # Collect any last reports (a worker may have finished during the
        # sweep above) without blocking on an empty queue.
        for _ in range(50):
            if not self._pump(0.0):
                break

    def _pump(self, block_seconds: float) -> int:
        """Process queued child records; returns how many were handled."""
        handled = 0
        block = block_seconds > 0
        while True:
            try:
                record = (self._pool.outbox.get(timeout=block_seconds) if block
                          else self._pool.outbox.get_nowait())
            except queue_module.Empty:
                return handled
            block = False  # only the first get may block
            self._handle_record(record)
            handled += 1

    def _handle_record(self, record: tuple) -> None:
        tag = record[0]
        if tag == "send":
            envelope = record[2]
            self._route(envelope)
        elif tag == "phase":
            _, pid, node, phase, seconds = record
            with self._lock:
                self.collector.add_phase(phase, seconds)
                self.collector.add_node_busy(node, seconds)
        elif tag == "checkpoint":
            _, logical, state = record
            with self._lock:
                self._checkpoints[logical] = state
        elif tag == "finished":
            _, pid, result, suppressed = record
            with self._lock:
                task = self._tasks.get(pid)
                if task is None or not task.alive:
                    return
                task.status = "finished"
                task.result = result
                self.router.unregister(pid)
                if suppressed:
                    self.collector.increment("duplicates_suppressed", suppressed)
        elif tag == "crashed":
            _, pid, message = record
            self._crash(pid, message)
        else:  # pragma: no cover - protocol bug
            _LOG.warning("unknown child record %r", record)

    def _route(self, envelope: Envelope) -> None:
        with self._lock:
            targets = [pid for pid in self.router.physical_targets(envelope.dst)
                       if pid in self._tasks and self._tasks[pid].alive]
            if not targets:
                self._dead_letters.setdefault(envelope.dst, []).append(envelope)
                self.collector.increment("dead_lettered")
                return
            self._messages += len(targets)
            self._bytes += envelope.nbytes * len(targets)
            # Under the lock: a kill retires a task here before it discards
            # (and closes) the slot's inbox.
            for pid in targets:
                self._tasks[pid].slot.inbox.put(envelope)

    def _sweep_dead_processes(self) -> None:
        """Detect replicas whose process died without a terminal report."""
        now = time.perf_counter()
        suspicious: List[str] = []
        with self._lock:
            for task in self._tasks.values():
                if task.status != "running" or task.process is None:
                    continue
                if task.process.exitcode is None:
                    task.first_seen_dead = None
                    continue
                if task.first_seen_dead is None:
                    task.first_seen_dead = now
                elif now - task.first_seen_dead >= _DEATH_CONFIRM_SECONDS:
                    suspicious.append(task.physical_id)
        for pid in suspicious:
            with self._lock:
                task = self._tasks.get(pid)
                exitcode = task.process.exitcode if task and task.process else None
                # A report may have been handled between the sweep and now.
                if task is None or task.status != "running":
                    continue
            self._crash(pid, f"process died without reporting (exit code {exitcode})")

    # --------------------------------------------------------- task plumbing
    def _create_task(self, spec: ThreadSpec, replica: int, *, restored: Any,
                     incarnation: int) -> _ProcessTask:
        pid = physical_name(spec.name, replica)
        previous = self._tasks.get(pid)
        if previous is not None and previous.alive:
            raise RuntimeStateError(f"physical thread {pid!r} already exists and is alive")
        if spec.name not in self._shared_params:
            params, created = share_cube_params(spec.params)
            self._shared_params[spec.name] = params
            self._shared_cubes.extend(created)
        if previous is not None:
            # The record is about to be overwritten, and with it the only
            # handle on its slot: hand the slot back now.
            self._return_slot(previous)
        task = _ProcessTask(spec, replica, pid, incarnation, restored)
        task.slot = self._pool.acquire()
        self._tasks[pid] = task
        self.router.register(spec.name, pid)
        return task

    def _start_task(self, task: _ProcessTask) -> None:
        """Assign the program to the task's slot, then replay parked envelopes.

        The slot's idle loop drops anything that arrives before the
        assignment, so callers hold the lock from :meth:`_create_task` on.
        """
        task.status = "running"
        task.slot.inbox.put((_ASSIGN, task.logical, task.replica, task.physical_id,
                             task.physical_id, task.spec.program,
                             self._shared_params[task.logical], task.restored,
                             task.incarnation, self._epoch))
        for envelope in self._dead_letters.pop(task.logical, []):
            task.slot.inbox.put(envelope)

    def _return_slot(self, task: _ProcessTask) -> None:
        """Give a retired record's slot back to the pool.

        Only a slot whose program provably ended -- a ``finished`` report,
        or a ``crashed`` report from a program error the child caught (the
        child is back in its idle loop either way) -- is released.  A slot
        whose process died, or that was shut down mid-program and may still
        be executing, is discarded so the pool never hands out a slot with
        an old program attached.
        """
        slot, task.slot = task.slot, None
        if slot is None:
            return
        if task.status in ("finished", "crashed") and slot.alive:
            self._pool.release(slot)
        else:
            self._pool.discard(slot)

    # ----------------------------------------------------------- termination
    def _crash(self, pid: str, message: str) -> None:
        with self._lock:
            task = self._tasks.get(pid)
            if task is None or not task.alive:
                return
            task.status = "crashed"
            task.error = message
            self.router.unregister(pid)
            self.collector.increment("crashes")
            logical = task.logical
        _LOG.warning("process %s crashed: %s", pid, message)
        for callback in self._death_callbacks:
            callback(pid, logical, "crashed")

    # --------------------------------------------------- resiliency controls
    def kill_thread(self, physical_id: str, reason: str = "killed") -> bool:
        """Forcefully terminate a replica's process (fault injection)."""
        with self._lock:
            task = self._tasks.get(physical_id)
            if task is None or not task.alive:
                return False
            task.status = "killed"
            self.router.unregister(physical_id)
            if reason == "killed":
                self.collector.increment("failures_injected")
            logical = task.logical
        if reason == "shutdown":
            # Ask the child to abandon the program and return to idle; the
            # slot itself is discarded when the record retires (it may
            # comply arbitrarily late, so it must not be reused).
            try:
                task.slot.inbox.put(_SHUTDOWN)
            except Exception:  # pragma: no cover - queue already closed
                pass
        else:
            # Fault injection / timeout: SIGKILL the slot for real.
            self._return_slot(task)
        if reason == "killed":
            for callback in self._death_callbacks:
                callback(physical_id, logical, reason)
        return True

    def spawn_thread(self, spec: ThreadSpec, *, replica: int, node: Optional[str] = None,
                     restored: Any = None, incarnation: int = 1) -> str:
        """Regenerate a replica on a pool slot while the run goes on."""
        with self._lock:
            task = self._create_task(spec, replica, restored=restored,
                                     incarnation=incarnation)
            self.collector.increment("replicas_regenerated")
            self._start_task(task)
        return task.physical_id

    # ---------------------------------------------------------------- result
    def _build_result(self, elapsed: float) -> RunResult:
        returns: Dict[str, Any] = {}
        outcomes: Dict[str, ThreadOutcome] = {}
        first_crash: Optional[tuple] = None
        with self._lock:
            for pid, task in self._tasks.items():
                outcomes[pid] = ThreadOutcome(physical_id=pid, logical=task.logical,
                                              replica=task.replica, status=task.status,
                                              result=task.result, error=task.error)
                if task.status == "finished" and task.logical not in returns:
                    returns[task.logical] = task.result
                if task.status == "crashed" and first_crash is None:
                    first_crash = (pid, task.error)
            workers = sum(1 for s in (self._app.specs if self._app else [])
                          if s.name.startswith("worker"))
            replication = max((s.replicas for s in (self._app.specs if self._app else [])),
                              default=1)
            metrics = self.collector.finalise(
                elapsed_seconds=elapsed, backend=self.kind,
                workers=max(workers, 1), subcubes=0, replication_level=replication,
                messages=self._messages, bytes_sent=self._bytes)
        if first_crash is not None and self.crash_policy == "raise":
            raise ThreadCrashedError(first_crash[0], f"{first_crash[0]}: {first_crash[1]}")
        return RunResult(returns=returns, outcomes=outcomes, metrics=metrics,
                         elapsed_seconds=elapsed)

    # --------------------------------------------------------------- cleanup
    def _cleanup(self) -> None:
        with self._lock:
            tasks = list(self._tasks.values())
        for task in tasks:
            self._return_slot(task)
        for cube in self._shared_cubes:
            cube.close()
        self._shared_cubes.clear()
        if self._owns_pool and self._pool is not None:
            self._pool.close()


__all__ = ["ProcessBackend"]
