"""ProcessBackend: generic runtime behaviour on real OS processes.

The thread programs used here live at module level so they stay picklable
under the ``spawn`` start method.  Most tests use ``fork`` where the platform
offers it -- an order of magnitude faster to start -- and one test explicitly
exercises the portable ``spawn`` path.

Every run executes on :class:`~repro.scp.pool.ProcessPool` slots.  The
generic runtime tests run twice: at module level on backends that own a
private pool per run (the ``make_backend`` fixture), and again in
:class:`TestBorrowedPool` on backends borrowing one long-lived pool, the way
sessions run them.
"""

import functools
import multiprocessing
import threading
import time

import pytest

from _process_utils import FAST_START, fast_backend
from repro.data.shared import SharedCube
from repro.scp.effects import Compute, Recv, Send, Sleep
from repro.scp.errors import (ReceiveTimeout, RuntimeStateError, SCPError,
                              ThreadCrashedError)
from repro.scp.pool import ProcessPool
from repro.scp.process_backend import ProcessBackend
from repro.scp.registry import create_backend
from repro.scp.runtime import Application


# ---------------------------------------------------------------------------
# module-level thread programs (picklable under spawn)
# ---------------------------------------------------------------------------

def ping_program(ctx, *, peer, rounds):
    received = []
    for i in range(rounds):
        yield Send(dst=peer, port="ping", payload=i)
        envelope = yield Recv(port="pong")
        received.append(envelope.payload)
    return received


def pong_program(ctx, *, peer, rounds):
    for _ in range(rounds):
        envelope = yield Recv(port="ping")
        yield Send(dst=peer, port="pong", payload=envelope.payload * 10)
    return "pong-done"


def adder_program(ctx, *, values):
    total = yield Compute(fn=sum, args=(values,), phase="adding")
    return total


def crasher_program(ctx):
    yield Sleep(0.01)
    raise ValueError("boom")


def patient_program(ctx):
    try:
        yield Recv(port="never", timeout=0.05)
    except ReceiveTimeout:
        return "timed_out"
    return "received"


def receiver_program(ctx):
    envelope = yield Recv(port="data")
    return envelope.payload


def late_sender_program(ctx, *, target, delay, payload, linger=0.0):
    yield Sleep(delay)
    yield Send(dst=target, port="data", payload=payload)
    if linger:
        yield Sleep(linger)
    return "sent"


def idler_program(ctx):
    yield Recv(port="nothing-ever-comes")
    return "woke"


def flaky_program(ctx):
    yield Sleep(0.01)
    if ctx.incarnation == 0:
        raise ValueError("first incarnation fails")
    return ctx.incarnation


def cube_sum_program(ctx, *, cube):
    checksum = yield Compute(fn=lambda c: float(c.data.sum()), args=(cube,),
                             phase="checksum")
    return {"type": type(cube).__name__, "sum": checksum}


# ---------------------------------------------------------------------------
# generic runtime tests (run on an owned and on a borrowed pool)
# ---------------------------------------------------------------------------

@pytest.fixture
def make_backend():
    """Backends that create a private pool per run and close it after."""
    return fast_backend


def test_ping_pong_roundtrip(make_backend):
    app = Application(name="pingpong")
    app.add_thread("ping", ping_program, params={"peer": "pong", "rounds": 3})
    app.add_thread("pong", pong_program, params={"peer": "ping", "rounds": 3})
    run = make_backend().run(app)
    assert run.return_of("ping") == [0, 10, 20]
    assert run.return_of("pong") == "pong-done"
    assert run.metrics.backend == "process"
    assert run.metrics.messages >= 6
    assert run.metrics.bytes_sent > 0
    assert run.elapsed_seconds > 0


def test_compute_records_phase_metrics(make_backend):
    app = Application(name="adder")
    app.add_thread("adder", adder_program, params={"values": [1, 2, 3, 4]})
    run = make_backend().run(app)
    assert run.return_of("adder") == 10
    assert "adding" in run.metrics.phase_seconds
    assert run.metrics.phase_invocations["adding"] == 1


def test_program_crash_raises_thread_crashed_error(make_backend):
    app = Application(name="crash")
    app.add_thread("crasher", crasher_program)
    with pytest.raises(ThreadCrashedError):
        make_backend().run(app)


def test_program_crash_recorded_under_record_policy(make_backend):
    app = Application(name="crash")
    app.add_thread("crasher", crasher_program)
    run = make_backend(crash_policy="record").run(app)
    assert run.crashed_threads() == ["crasher#0"]
    assert "boom" in run.outcomes["crasher#0"].error


def test_receive_timeout_is_catchable_inside_programs(make_backend):
    app = Application(name="patient")
    app.add_thread("patient", patient_program)
    run = make_backend().run(app)
    assert run.return_of("patient") == "timed_out"


def test_until_thread_shuts_down_stragglers(make_backend):
    app = Application(name="untilthread")
    app.add_thread("main", adder_program, params={"values": [1, 1]})
    app.add_thread("idler", idler_program)
    backend = make_backend(shutdown_grace=0.2)
    run = backend.run(app, until_thread="main")
    assert run.return_of("main") == 2
    assert run.outcomes["idler#0"].status == "killed"


def test_backends_are_single_use(make_backend):
    app = Application(name="once")
    app.add_thread("adder", adder_program, params={"values": [1]})
    backend = make_backend()
    backend.run(app)
    with pytest.raises(RuntimeStateError):
        backend.run(app)


def test_cube_params_are_shared_not_pickled(tiny_cube, make_backend):
    app = Application(name="cube")
    app.add_thread("summer", cube_sum_program, params={"cube": tiny_cube})
    run = make_backend().run(app)
    result = run.return_of("summer")
    assert result["type"] == "SharedCube"
    assert result["sum"] == pytest.approx(float(tiny_cube.data.sum()))


def test_cube_param_uses_existing_segment_when_already_shared(tiny_cube, make_backend):
    with SharedCube.from_cube(tiny_cube) as shared:
        app = Application(name="cube")
        app.add_thread("summer", cube_sum_program, params={"cube": shared})
        run = make_backend().run(app)
        assert run.return_of("summer")["sum"] == pytest.approx(float(shared.data.sum()))
        assert not shared.closed  # the backend must not close foreign segments


def test_kill_and_regenerate_replica(make_backend):
    app = Application(name="regen")
    app.add_thread("receiver", receiver_program)
    app.add_thread("sender", late_sender_program,
                   params={"target": "receiver", "delay": 1.0, "payload": 42})
    backend = make_backend()

    regenerated = []

    def on_death(pid, logical, reason):
        if logical == "receiver" and not regenerated:
            new_pid = backend.spawn_thread(app.spec(logical), replica=1,
                                           restored=None, incarnation=1)
            regenerated.append(new_pid)

    backend.subscribe_thread_death(on_death)

    def killer():
        while not backend.live_replicas("receiver"):
            time.sleep(0.01)
        time.sleep(0.2)
        backend.kill_thread("receiver#0")

    threading.Thread(target=killer, daemon=True).start()
    run = backend.run(app)

    assert regenerated == ["receiver#1"]
    assert run.outcomes["receiver#0"].status == "killed"
    assert run.outcomes["receiver#1"].status == "finished"
    assert run.return_of("receiver") == 42
    assert run.metrics.failures_injected == 1
    assert run.metrics.replicas_regenerated == 1


def test_dead_letters_are_delivered_to_late_spawned_threads(make_backend):
    # The sender addresses a logical name that has no live replica yet; the
    # parked message must reach the replica spawned afterwards.
    app = Application(name="deadletter")
    # The sender lingers so the run is still in progress when the late
    # replica is spawned and handed the parked message.
    app.add_thread("sender", late_sender_program,
                   params={"target": "ghost", "delay": 0.0, "payload": 7,
                           "linger": 1.5})
    backend = make_backend()

    spawned = []

    def spawner():
        time.sleep(0.4)
        from repro.scp.thread import ThreadSpec
        spec = ThreadSpec(name="ghost", program=receiver_program)
        spawned.append(backend.spawn_thread(spec, replica=0, incarnation=0))

    threading.Thread(target=spawner, daemon=True).start()
    run = backend.run(app)
    assert spawned == ["ghost#0"]
    assert run.return_of("ghost") == 7


@pytest.mark.slow
def test_spawn_start_method_roundtrip():
    app = Application(name="spawned")
    app.add_thread("ping", ping_program, params={"peer": "pong", "rounds": 2})
    app.add_thread("pong", pong_program, params={"peer": "ping", "rounds": 2})
    run = ProcessBackend(start_method="spawn").run(app)
    assert run.return_of("ping") == [0, 10]


def test_run_timeout_kills_stuck_processes(make_backend):
    app = Application(name="stuck")
    app.add_thread("idler", idler_program)
    backend = make_backend()
    start = time.perf_counter()
    with pytest.raises(SCPError, match="timed out"):
        backend.run(app, timeout=1.0)
    assert time.perf_counter() - start < 20.0


def test_cube_sum_program_is_a_generator(tiny_cube):
    # Guard against accidentally turning a program into a plain function.
    gen = cube_sum_program(None, cube=tiny_cube)
    effect = next(gen)
    assert isinstance(effect, Compute)
    gen.close()


# ---------------------------------------------------------------------------
# pool lifecycle
# ---------------------------------------------------------------------------

def _live_children():
    return {child.pid for child in multiprocessing.active_children()}


def test_owned_pool_leaves_no_slot_behind():
    before = _live_children()
    # Built but never run -- directly or through the registry -- a backend
    # owns no process.
    fast_backend()
    create_backend("process:" + FAST_START)
    assert _live_children() == before

    ok = Application(name="ok")
    ok.add_thread("adder", adder_program, params={"values": [1, 2]})
    assert fast_backend().run(ok).return_of("adder") == 3
    assert _live_children() <= before

    crash = Application(name="crash")
    crash.add_thread("crasher", crasher_program)
    with pytest.raises(ThreadCrashedError):
        fast_backend().run(crash)
    assert _live_children() <= before

    stuck = Application(name="stuck")
    stuck.add_thread("idler", idler_program)
    with pytest.raises(SCPError, match="timed out"):
        fast_backend().run(stuck, timeout=0.5)
    assert _live_children() <= before


def test_regenerated_replica_returns_its_predecessors_slot():
    # Regression: spawn_thread() reusing a physical name whose record had
    # crashed used to overwrite that record, and with it the only handle on
    # its slot -- the slot stayed busy until the pool closed, so every run
    # of this shape grew the pool by one.
    app = Application(name="flaky")
    app.add_thread("flaky", flaky_program)
    readings = []
    with ProcessPool(start_method=FAST_START) as pool:
        for _ in range(3):
            backend = fast_backend(pool, crash_policy="record")

            def on_death(pid, logical, reason, backend=backend):
                backend.spawn_thread(app.spec(logical), replica=0, incarnation=1)

            backend.subscribe_thread_death(on_death)
            run = backend.run(app)
            assert run.return_of("flaky") == 1
            readings.append((pool.size, pool.idle, pool.spawned_processes))
    assert readings[0] == readings[1] == readings[2]
    size, idle, _ = readings[0]
    assert idle == size


class TestBorrowedPool:
    """The generic runtime tests again, on slots of one long-lived pool."""

    @pytest.fixture(scope="class")
    def borrowed_pool(self):
        with ProcessPool(start_method=FAST_START) as pool:
            yield pool

    @pytest.fixture
    def make_backend(self, borrowed_pool):
        return functools.partial(fast_backend, borrowed_pool)

    test_ping_pong_roundtrip = staticmethod(test_ping_pong_roundtrip)
    test_compute_records_phase_metrics = staticmethod(test_compute_records_phase_metrics)
    test_program_crash_raises_thread_crashed_error = staticmethod(
        test_program_crash_raises_thread_crashed_error)
    test_program_crash_recorded_under_record_policy = staticmethod(
        test_program_crash_recorded_under_record_policy)
    test_receive_timeout_is_catchable_inside_programs = staticmethod(
        test_receive_timeout_is_catchable_inside_programs)
    test_until_thread_shuts_down_stragglers = staticmethod(
        test_until_thread_shuts_down_stragglers)
    test_backends_are_single_use = staticmethod(test_backends_are_single_use)
    test_cube_params_are_shared_not_pickled = staticmethod(
        test_cube_params_are_shared_not_pickled)
    test_cube_param_uses_existing_segment_when_already_shared = staticmethod(
        test_cube_param_uses_existing_segment_when_already_shared)
    test_kill_and_regenerate_replica = staticmethod(test_kill_and_regenerate_replica)
    test_dead_letters_are_delivered_to_late_spawned_threads = staticmethod(
        test_dead_letters_are_delivered_to_late_spawned_threads)
    test_run_timeout_kills_stuck_processes = staticmethod(
        test_run_timeout_kills_stuck_processes)
