"""The named workloads: their inputs, their sessions and their load loops.

Every workload runs on ``process:2`` with ``workers=2`` and leaves every
other knob (compute tier, dtype, tile sizing, zero-copy) at the library
default, so a later change of default shows up in the numbers.  Load comes
from one process.  Inputs are seeded synthetic HYDICE cubes, built before
any timing starts.  Why each workload exists is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Worker processes of every workload (the host has two cores).
WORKERS = 2
BACKEND = f"process:{WORKERS}"


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    #: ``(bands, rows, cols)`` of every input cube.
    shape: Tuple[int, int, int]
    #: Distinct cubes the load cycles over.
    distinct: int
    #: Requests kept in flight: 1 fuses back to back with
    #: ``FusionSession.fuse``; more keeps a window of ``submit`` futures.
    window: int = 1
    #: Resilient engine only: replication level.
    replication: Optional[int] = None

    def session_options(self) -> Dict[str, object]:
        options: Dict[str, object] = {"engine": self.engine,
                                      "backend": BACKEND, "workers": WORKERS}
        if self.replication is not None:
            options["replication"] = self.replication
        if self.window > 1:
            options["max_inflight"] = self.window
        return options


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # 256x256x64 acceptance-size cubes fused back to back on a warm
        # session: kernel-heavy, placement cache and output pool always hit.
        # Eight cubes rather than one, so a run averages over inputs whose
        # screening work differs by up to 10% between seeds; eight is what
        # the session's placement cache holds.
        Workload("scene256", "pipeline", (64, 256, 256), distinct=8),
        # Twelve small cubes, more than the session's placement cache (8),
        # so placement misses; kernels are cheap and per-task dispatch,
        # wake-up and result commit dominate.
        Workload("thumbs-stream", "pipeline", (32, 48, 48), distinct=12,
                 window=2),
        # The paper's engine: manager/worker SCP with replication 2; it
        # never touches the stage executor or the worker transports.
        Workload("resilient-batch", "resilient", (64, 128, 128), distinct=4,
                 replication=2),
    )
}


# ---------------------------------------------------------------------------
# Inputs and references
# ---------------------------------------------------------------------------

def cube_seed(seed: int, index: int) -> int:
    """Generator seed of input ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


def make_inputs(workload: Workload, seed: int) -> list:
    """The workload's input cubes; the same seed gives the same cubes."""
    from repro.data.hydice import HydiceConfig, HydiceGenerator

    bands, rows, cols = workload.shape
    return [HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                         seed=cube_seed(seed, index))).generate()
            for index in range(workload.distinct)]


def reference_composites(cubes: Sequence) -> List[np.ndarray]:
    """Each input's composite from the sequential reference engine, with
    the workloads' worker count (the partition fixes summation order)."""
    import repro

    return [repro.fuse(cube, engine="sequential", workers=WORKERS).composite
            for cube in cubes]


def save_inputs(path: str, cubes: Sequence, references: Sequence) -> None:
    arrays = {}
    for index, (cube, reference) in enumerate(zip(cubes, references)):
        arrays[f"data_{index}"] = cube.data
        arrays[f"wavelengths_{index}"] = cube.wavelengths_nm
        arrays[f"reference_{index}"] = reference
    np.savez(path, **arrays)


def load_inputs(path: str) -> Tuple[list, List[np.ndarray]]:
    from repro.data.cube import HyperspectralCube

    with np.load(path) as archive:
        count = sum(1 for key in archive.files if key.startswith("data_"))
        cubes = [HyperspectralCube(archive[f"data_{i}"],
                                   archive[f"wavelengths_{i}"])
                 for i in range(count)]
        references = [archive[f"reference_{i}"] for i in range(count)]
    return cubes, references


def matches(report, reference: np.ndarray) -> bool:
    """Bit-for-bit equality of a composite with its reference."""
    composite = report.composite
    return (composite.shape == reference.shape
            and composite.dtype == reference.dtype
            and bool(np.array_equal(composite, reference)))


# ---------------------------------------------------------------------------
# The closed load loop
# ---------------------------------------------------------------------------

@dataclass
class LoadResult:
    #: Submit-to-report seconds of every request that succeeded.
    latencies: List[float]
    attempted: int
    #: First submit to last completion, seconds.
    elapsed: float
    #: Why each failed request failed.
    failures: List[str]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def completed(self) -> int:
        return len(self.latencies)


def drive(session, workload: Workload, cubes: Sequence,
          references: Sequence[np.ndarray], seconds: float, *,
          on_report: Optional[Callable[[int, object], None]] = None) -> LoadResult:
    """Closed-loop load for ``seconds``: a new request is issued only when
    one of the workload's ``window`` outstanding requests completes.

    Every composite is compared with its reference; a mismatch or an
    exception counts as failed and is never dropped.  Requests still
    outstanding at the deadline are awaited and counted.
    """
    latencies: List[float] = []
    failures: List[str] = []
    attempted = 0
    start = time.monotonic()
    deadline = start + seconds
    last_done = start

    def settle(index: int, outcome, issued: float, done: float) -> None:
        nonlocal last_done
        last_done = max(last_done, done)
        if isinstance(outcome, BaseException):
            failures.append(f"input {index}: {outcome!r}")
            return
        if not matches(outcome, references[index]):
            failures.append(f"input {index}: composite differs from reference")
            return
        latencies.append(done - issued)
        if on_report is not None:
            on_report(index, outcome)

    if workload.window == 1:
        while time.monotonic() < deadline:
            index = attempted % len(cubes)
            attempted += 1
            issued = time.monotonic()
            try:
                outcome = session.fuse(cubes[index])
            except Exception as err:  # noqa: BLE001 - counted as failed
                outcome = err
            settle(index, outcome, issued, time.monotonic())
    else:
        inflight: Dict[object, Tuple[int, float]] = {}
        resolved_at: Dict[object, float] = {}
        while True:
            while len(inflight) < workload.window and time.monotonic() < deadline:
                index = attempted % len(cubes)
                attempted += 1
                issued = time.monotonic()
                future = session.submit(cubes[index])
                future.add_done_callback(
                    lambda f: resolved_at.setdefault(f, time.monotonic()))
                inflight[future] = (index, issued)
            if not inflight:
                break
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                index, issued = inflight.pop(future)
                try:
                    outcome = future.result()
                except Exception as err:  # noqa: BLE001 - counted as failed
                    outcome = err
                settle(index, outcome, issued,
                       resolved_at.pop(future, time.monotonic()))
    return LoadResult(latencies=latencies, attempted=attempted,
                      elapsed=last_done - start, failures=failures)

