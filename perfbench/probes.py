"""Layer probes that run through the program's public classes only."""

from __future__ import annotations

import operator
import statistics
import time
from typing import Dict

#: Sequential no-op round trips timed per transport.
ROUNDTRIPS = 20

#: Seconds an idle session is watched for background CPU.
IDLE_WINDOW_S = 1.0


def _executor(kind: str, workers: int):
    from repro.scp.pool import ProcessPool
    from repro.scp.stages import PoolStageExecutor, TransportStageExecutor
    from repro.scp.transport import InProcessTransport, SocketTransport

    if kind == "inprocess":
        return TransportStageExecutor(InProcessTransport(workers=workers),
                                      workers=workers)
    if kind == "forked":
        return PoolStageExecutor(ProcessPool(), workers=workers, owns_pool=True)
    if kind == "socket":
        return TransportStageExecutor(SocketTransport(workers=workers),
                                      workers=workers)
    raise ValueError(f"unknown transport kind {kind!r}")


def transport_roundtrip_ms(workers: int) -> Dict[str, float]:
    """Median submit-to-result time of one outstanding no-op task, per
    transport.  The task is a stdlib callable, so it pickles by reference
    into any worker interpreter, the socket node agent's included."""
    result = {}
    for kind in ("inprocess", "forked", "socket"):
        with _executor(kind, workers) as executor:
            for warm in range(2 * workers):  # spawn and connect off the clock
                executor.submit("screen", operator.add, warm, 1).result(timeout=60)
            samples = []
            for index in range(ROUNDTRIPS):
                start = time.monotonic()
                value = executor.submit("screen", operator.add, index, 1).result(timeout=60)
                samples.append(time.monotonic() - start)
                if value != index + 1:
                    raise AssertionError(f"{kind} transport returned {value!r}")
        result[kind] = 1000.0 * statistics.median(samples)
    return result


def idle_cpu_pct() -> float:
    """CPU the calling process burns while it sits idle, in % of one core.

    Called with a session open and no request in flight, this is the cost
    of the session's background threads (the stage router's polling).
    """
    cpu = time.process_time()
    wall = time.monotonic()
    time.sleep(IDLE_WINDOW_S)
    return 100.0 * (time.process_time() - cpu) / (time.monotonic() - wall)
