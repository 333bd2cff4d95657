"""Transport-conformance contract suite (PR 9).

One parametrized battery run against every worker transport -- in-process
threads, forked pool slots, and the socket node agent -- asserting the
behaviours the unified stage executor (repro.scp.stages) promises
regardless of substrate: submit/result round trips, typed deterministic
errors, crash retry after a mid-task SIGKILL, typed close-drain, identical
kill-accounting semantics, zero /dev/shm or spool residue, and an
event-driven router: sub-10 ms round trips, a prompt close, no idle CPU,
and correct results even when every wake datagram is lost.

The task functions live at module level on purpose: the socket transport's
node agent is a fresh interpreter that unpickles them *by reference*, so
anything a stage runs must be importable -- which is also the executor's
documented determinism contract.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import pytest

from repro.scp.pool import ProcessPool
from repro.scp.stages import (PoolStageExecutor, StageCrashError, StageError,
                              TransportStageExecutor)
from repro.scp.serialization import WAKE_NAME
from repro.scp.transport import (InProcessTransport, SocketTransport,
                                 WorkerTransport, create_transport,
                                 describe_transports, register_transport,
                                 transport_names)

#: /dev/shm residue prefixes the leak checks scan for (matches CI's check).
RESIDUE_PREFIXES = ("psm_", "wnsm_", "scp-stages-")

TRANSPORTS = ("inprocess", "forked", "socket")
KILLABLE_TRANSPORTS = ("forked", "socket")


def add(a, b):
    return a + b


def slow_add(a, b, seconds=0.4):
    time.sleep(seconds)
    return a + b


def boom():
    raise ValueError("kaboom")


def make_executor(kind, *, workers=2, max_retries=2):
    if kind == "inprocess":
        return TransportStageExecutor(InProcessTransport(workers=workers),
                                      workers=workers)
    if kind == "forked":
        return PoolStageExecutor(ProcessPool(), workers=workers,
                                 max_retries=max_retries, owns_pool=True)
    if kind == "socket":
        return TransportStageExecutor(SocketTransport(workers=workers),
                                      workers=workers, max_retries=max_retries)
    raise AssertionError(kind)


def shm_residue():
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return [n for n in names if n.startswith(RESIDUE_PREFIXES)]


# ---------------------------------------------------------------------------
# Submit / result round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_submit_round_trip(kind):
    with make_executor(kind) as executor:
        futures = [executor.submit("screen", add, i, 100) for i in range(6)]
        assert [f.result(timeout=60) for f in futures] == [100 + i
                                                           for i in range(6)]
        assert executor.in_flight == 0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_deterministic_error_is_typed_and_not_retried(kind):
    with make_executor(kind) as executor:
        future = executor.submit("screen", boom)
        with pytest.raises(StageError, match="screen") as excinfo:
            future.result(timeout=60)
        assert not isinstance(excinfo.value, StageCrashError)
        assert "kaboom" in str(excinfo.value)
        assert executor.retries == 0
        # The worker survives a failing task and stays reusable.
        assert executor.submit("screen", add, 40, 2).result(timeout=60) == 42


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_submit_after_close_raises_typed_error(kind):
    executor = make_executor(kind)
    executor.close()
    with pytest.raises(StageError, match="closed"):
        executor.submit("project", add, 1, 1)


# ---------------------------------------------------------------------------
# SIGKILL mid-task: crash retry stays bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_sigkill_mid_task_retries_bit_identically(kind):
    with make_executor(kind) as executor:
        executor.inject_kill("screen")
        future = executor.submit("screen", slow_add, 20, 22)
        assert future.result(timeout=60) == slow_add(20, 22, seconds=0)
        assert executor.retries >= 1
        assert executor.kills_delivered == {"screen": 1}
        assert executor.pending_kills == {}


@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_retry_budget_exhaustion_fails_typed(kind):
    with make_executor(kind, max_retries=0) as executor:
        executor.inject_kill("screen", kills=8)
        future = executor.submit("screen", slow_add, 1, 2)
        with pytest.raises(StageCrashError, match="screen"):
            future.result(timeout=60)
        executor.cancel_kills()
        # The substrate recovers for the next task.
        assert executor.submit("screen", add, 1, 2).result(timeout=60) == 3


@pytest.mark.flaky(reruns=2)
def test_socket_survives_whole_node_agent_kill():
    """A SIGKILL of the *agent* (every worker at once) is total substrate
    loss; the executor's retry path restarts the agent transparently."""
    with make_executor("socket") as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        pid = executor.transport.agent_pid
        assert pid is not None
        future = executor.submit("screen", slow_add, 2, 3)
        os.kill(pid, signal.SIGKILL)
        assert future.result(timeout=60) == 5
        assert executor.transport.agent_restarts >= 1
        assert executor.retries >= 1


# ---------------------------------------------------------------------------
# Close-drain semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_close_fails_in_flight_tasks_typed(kind):
    executor = make_executor(kind)
    futures = [executor.submit("project", slow_add, i, 1, 2.0)
               for i in range(2)]
    executor.close()
    for future in futures:
        with pytest.raises(StageError, match="closed with the task"):
            future.result(timeout=60)
    assert executor.in_flight == 0


def test_inprocess_close_drains_running_tasks():
    """Host threads cannot be abandoned mid-task: close() waits for the
    running task and its result resolves normally (graceful drain)."""
    executor = make_executor("inprocess")
    future = executor.submit("screen", slow_add, 5, 6)
    executor.close()
    assert future.result(timeout=5) == 11


# ---------------------------------------------------------------------------
# Event-driven router: wakes on commits, blocks while idle
# ---------------------------------------------------------------------------

def thread_cpu_seconds(native_id):
    """User + system CPU of one thread of this process, from procfs."""
    with open(f"/proc/self/task/{native_id}/stat") as fh:
        stat = fh.read()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_results_arrive_without_wake_datagrams(kind):
    """The wake datagram is only a hint: with the wake socket's name gone,
    every worker's send fails, and the router's sweep tick plus the spool
    scan still resolve every task."""
    with make_executor(kind) as executor:
        os.unlink(os.path.join(executor.transport.spool_dir, WAKE_NAME))
        start = time.monotonic()
        futures = [executor.submit("screen", add, i, 100) for i in range(6)]
        assert [f.result(timeout=2.0) for f in futures] == [100 + i
                                                           for i in range(6)]
        assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_close_of_idle_executor_is_prompt(kind):
    """An idle router blocks with no timeout, so close() must wake it."""
    executor = make_executor(kind)
    assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
    time.sleep(0.2)  # let the router settle into its idle wait
    start = time.monotonic()
    executor.close()
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_round_trip_has_no_dispatch_floor(kind):
    with make_executor(kind) as executor:
        for warm in range(4):  # spawn and connect off the clock
            executor.submit("screen", add, warm, 1).result(timeout=60)
        samples = []
        for index in range(20):
            start = time.monotonic()
            assert executor.submit("screen", add, index, 1).result(
                timeout=60) == index + 1
            samples.append(time.monotonic() - start)
    assert statistics.median(samples) < 0.010


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux procfs for per-thread CPU time")
@pytest.mark.parametrize("kind", TRANSPORTS)
def test_idle_router_uses_no_cpu(kind):
    with make_executor(kind) as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        router = executor._router.native_id
        before = thread_cpu_seconds(router)
        time.sleep(1.0)
        assert thread_cpu_seconds(router) - before < 0.020


# ---------------------------------------------------------------------------
# Kill accounting: one mixin, identical semantics everywhere (satellite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_kill_count_validated_before_capability(kind):
    """kills < 1 is a ValueError on *every* executor -- validation runs
    before the capability check, so thread and process executors reject a
    bad count identically instead of diverging."""
    with make_executor(kind) as executor:
        with pytest.raises(ValueError, match=">= 1"):
            executor.inject_kill("screen", kills=0)


def test_thread_executor_rejects_kills_with_actionable_error():
    with make_executor("inprocess") as executor:
        with pytest.raises(NotImplementedError, match="socket"):
            executor.inject_kill("screen")


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_kill_accounting_semantics_are_identical(kind):
    with make_executor(kind) as executor:
        executor.inject_kill("screen", kills=2)
        executor.inject_kill("covariance")
        assert executor.pending_kills == {"screen": 2, "covariance": 1}
        assert executor.cancel_kills("screen") == {"screen": 2}
        assert executor.cancel_kills("screen") == {}
        assert executor.cancel_kills() == {"covariance": 1}
        assert executor.pending_kills == {}
        assert executor.kills_delivered == {}
        assert executor.retries == 0


def test_capability_flags_match_substrate():
    flags = {}
    for kind in TRANSPORTS:
        with make_executor(kind) as executor:
            flags[kind] = (executor.supports_kill, executor.uses_processes)
    assert flags == {"inprocess": (False, False), "forked": (True, True),
                     "socket": (True, True)}


# ---------------------------------------------------------------------------
# Residue: nothing survives close() in /dev/shm or the spool
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_no_shm_or_spool_residue_after_close(kind):
    before = set(shm_residue())
    executor = make_executor(kind)
    futures = [executor.submit("screen", add, i, 1) for i in range(4)]
    if executor.supports_kill:
        executor.inject_kill("screen")
        futures.append(executor.submit("screen", slow_add, 1, 2))
    for future in futures:
        future.result(timeout=60)
    executor.close()
    leaked = set(shm_residue()) - before
    assert leaked == set(), f"residue leaked: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# The transport registry mirrors the engine/backend/rule registries
# ---------------------------------------------------------------------------

def test_registry_names_and_descriptions():
    assert transport_names() == ["forked-process", "inprocess", "socket"]
    descriptions = describe_transports()
    assert set(descriptions) == set(transport_names())
    assert all(descriptions.values())


def test_registry_rejects_unknown_and_duplicate_names():
    with pytest.raises(ValueError, match="registered transports"):
        create_transport("carrier-pigeon")
    with pytest.raises(ValueError, match="already registered"):
        register_transport("inprocess")(WorkerTransport)


def test_create_transport_builds_and_closes():
    transport = create_transport("inprocess", workers=1)
    try:
        assert transport.kind == "inprocess"
        assert transport.alive_workers() == 1
    finally:
        transport.close()
