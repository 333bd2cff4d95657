"""Spans around the program's public layer entry points, for the traced run.

The tracer wraps public functions and methods from the outside; nothing
inside the program is instrumented.  Each span is ``(id, name, start, end,
parent, request)`` on ``time.monotonic()``: CLOCK_MONOTONIC is system-wide
on Linux, so spans from forked workers line up with the parent's.

The worker-side stage functions are looked up as module globals of
``repro.core.streaming`` and pickled by reference, so wrapping them there
*before the session forks its workers* makes every worker run the wrapper.
The parent's spans are kept in memory and written out at the end.  Workers
are other processes, so each worker appends its spans to a file of its own
as they close.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(id, name, start, end, parent, request)``
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]

REQUEST = "api.session.fuse"
NORMALISE = ("api.request.resolved_config",
             "api.request.validate_pipeline_request")
PLACE = "data.shared.place"
OUTPUT_ACQUIRE = "data.shared.output_acquire"
OUTPUT_CREATE = "data.shared.output_create"
SUBMIT = "scp.stages.submit"

#: Barrier work the pipeline engine does in the requesting process (module
#: globals of ``repro.core.streaming``).
BARRIERS = ("merge_unique_sets", "mean_vector", "covariance_matrix",
            "transformation_matrix", "component_statistics")

#: Worker-side stage functions, by the kernel metric they feed.
KERNELS = {"screen": ("screen_tile",),
           "covariance": ("covariance_partial",),
           "project": ("project_tile_into", "project_tile")}


class Tracer:
    """Records spans around the public layer entry points while installed."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.spans: List[Span] = []
        #: One record per stage-task submit: stage, call, returned,
        #: resolved, request.
        self.tasks: List[Dict[str, object]] = []
        self.recording = True
        self.window: Tuple[float, float] = (0.0, float("inf"))
        self._parent_pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _in_worker(self) -> bool:
        return os.getpid() != self._parent_pid

    def _record_worker(self, name: str, start: float, end: float) -> None:
        path = os.path.join(self.span_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps([name, start, end]) + "\n")

    def wrap(self, name: str, fn: Callable, *, root: bool = False) -> Callable:
        """``fn`` wrapped in a span; ``root`` spans start a new request."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if tracer._in_worker():
                start = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._record_worker(name, start, time.monotonic())
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outer_request = getattr(tracer._local, "request", None)
            request = span_id if root else outer_request
            tracer._local.request = request
            stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tracer._local.request = outer_request
                tracer.spans.append((span_id, name, start, end, parent, request))

        return traced

    def _wrap_submit(self, submit: Callable) -> Callable:
        """``TransportStageExecutor.submit``: a span for the time blocked in
        submit, plus a task record resolved by the future's callback."""
        tracer = self

        @functools.wraps(submit)
        def traced_submit(executor, stage, fn, *args, **kwargs):
            if not tracer.recording or tracer._in_worker():
                return submit(executor, stage, fn, *args, **kwargs)
            call = time.monotonic()
            future = submit(executor, stage, fn, *args, **kwargs)
            returned = time.monotonic()
            stack = tracer._stack()
            request = getattr(tracer._local, "request", None)
            task: Dict[str, object] = {
                "stage": stage, "call": call, "returned": returned,
                "resolved": None, "request": request}
            tracer.tasks.append(task)
            tracer.spans.append((next(tracer._ids), SUBMIT, call, returned,
                                 stack[-1] if stack else None, request))
            future.add_done_callback(
                lambda _f: task.__setitem__("resolved", time.monotonic()))
            return future

        return traced_submit

    # -------------------------------------------------------------- install
    def _patch(self, owner: object, attr: str, wrapped_for: Callable) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = wrapped_for(fn)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._undo.append((owner, attr, raw))

    def install(self) -> "Tracer":
        """Wrap the layer entry points.  Call before opening the session,
        so its forked workers inherit the stage-function wrappers."""
        import repro.api.session as session_module
        import repro.core.streaming as streaming
        from repro.api.request import FusionRequest
        from repro.api.session import FusionSession
        from repro.data.shared import OutputPool, SharedComposite, SharedCube
        from repro.scp.stages import TransportStageExecutor

        def named(name: str, *, root: bool = False) -> Callable:
            return lambda fn: self.wrap(name, fn, root=root)

        self._patch(FusionSession, "fuse", named(REQUEST, root=True))
        self._patch(FusionRequest, "resolved_config", named(NORMALISE[0]))
        self._patch(session_module, "validate_pipeline_request",
                    named(NORMALISE[1]))
        self._patch(SharedCube, "from_cube", named(PLACE))
        self._patch(OutputPool, "acquire", named(OUTPUT_ACQUIRE))
        self._patch(SharedComposite, "create", named(OUTPUT_CREATE))
        for name in BARRIERS:
            self._patch(streaming, name, named(f"core.streaming.{name}"))
        for functions in KERNELS.values():
            for name in functions:
                self._patch(streaming, name, named(f"core.kernels.{name}"))
        self._patch(TransportStageExecutor, "submit", self._wrap_submit)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # --------------------------------------------------------------- window
    def start_window(self) -> None:
        """Forget everything recorded so far; measure from now on."""
        self.spans.clear()
        self.tasks.clear()
        self.window = (time.monotonic(), float("inf"))
        self.recording = True

    def end_window(self) -> None:
        self.recording = False
        self.window = (self.window[0], time.monotonic())

    def worker_spans(self) -> List[Tuple[str, float, float]]:
        """Worker spans that started inside the measurement window."""
        spans = []
        low, high = self.window
        for entry in sorted(os.listdir(self.span_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.span_dir, entry)) as handle:
                for line in handle:
                    try:
                        name, start, end = json.loads(line)
                    except ValueError:
                        continue  # a worker stopped mid-write
                    if low <= start <= high:
                        spans.append((name, start, end))
        return spans

    def write(self, path: str) -> None:
        """Every span of the window, one JSON object a line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request}) + "\n")
            for name, start, end in self.worker_spans():
                handle.write(json.dumps({
                    "id": None, "name": name, "start": start, "end": end,
                    "parent": None, "request": None, "worker": True}) + "\n")


# ---------------------------------------------------------------------------
# Derived per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start) - _covered(children.get(span_id, ()))
            for span_id, _, start, end, _, _ in spans}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the recorded spans and task records give.

    Per-request figures divide by the requests issued in the window;
    per-task figures by the stage tasks submitted in it.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    per_request = max(requests(tracer), 1)

    def durations(name: str) -> List[float]:
        return [span[3] - span[2] for span in by_name.get(name, ())]

    places = durations(PLACE)
    acquires = durations(OUTPUT_ACQUIRE)
    creates = len(by_name.get(OUTPUT_CREATE, ()))
    normalise_ids = {span[0] for name in NORMALISE for span in by_name.get(name, ())}
    normalise = sum(span[3] - span[2] for name in NORMALISE
                    for span in by_name.get(name, ())
                    if span[4] not in normalise_ids)
    barrier = sum(selfs[span[0]] for name in BARRIERS
                  for span in by_name.get(f"core.streaming.{name}", ()))

    tasks = [task for task in tracer.tasks if task["resolved"] is not None]
    worker = tracer.worker_spans()
    kernel_seconds = {metric: sum(end - start for name, start, end in worker
                                  if name in {f"core.kernels.{fn}" for fn in fns})
                      for metric, fns in KERNELS.items()}
    in_flight = [task["resolved"] - task["returned"] for task in tasks]
    dispatch_wait = ((sum(in_flight) - sum(kernel_seconds.values())) / len(tasks)
                     if tasks else 0.0)

    metrics = {
        "api.request.normalise_ms": 1000.0 * normalise / per_request,
        "api.session.placement_hit_ratio": 1.0 - len(places) / per_request,
        "data.shared.place_ms": 1000.0 * _mean(places),
        "data.shared.output_reuse_ratio":
            1.0 - creates / len(acquires) if acquires else 0.0,
        "data.shared.output_acquire_ms": 1000.0 * _mean(acquires),
        "core.streaming.barrier_self_ms": 1000.0 * barrier / per_request,
        "core.streaming.tasks_per_request": len(tracer.tasks) / per_request,
        "scp.stages.dispatch_wait_ms": 1000.0 * dispatch_wait,
        "scp.stages.backpressure_ms":
            1000.0 * _mean([task["returned"] - task["call"] for task in tracer.tasks]),
    }
    for metric, seconds in kernel_seconds.items():
        metrics[f"core.kernels.{metric}_ms"] = 1000.0 * seconds / per_request
    for stage, seconds in stage_critical_paths(tracer).items():
        metrics[f"core.streaming.{stage}_ms"] = 1000.0 * seconds
    return metrics


def stage_critical_paths(tracer: Tracer) -> Dict[str, float]:
    """Mean per request of each pipeline stage's time on the requesting
    thread, in seconds, from the spans and task records of the window:

    * screening: first ``screen`` submit to the end of ``merge_unique_sets``;
    * covariance: first ``covariance`` submit to the end of
      ``covariance_matrix``;
    * eigendecomposition: start of ``transformation_matrix`` to the end of
      ``component_statistics``;
    * projection: first ``project`` submit to the last ``project`` task's
      resolve.

    A request contributes only when every mark of a stage was recorded.
    """
    first_submit: Dict[Tuple[object, str], float] = {}
    last_resolve: Dict[object, float] = {}
    unresolved = set()
    for task in tracer.tasks:
        request = task["request"]
        key = (request, task["stage"])
        first_submit[key] = min(first_submit.get(key, task["call"]), task["call"])
        if task["stage"] != "project":
            continue
        if task["resolved"] is None:
            unresolved.add(request)
        else:
            last_resolve[request] = max(last_resolve.get(request, 0.0),
                                        task["resolved"])
    starts: Dict[Tuple[object, str], float] = {}
    ends: Dict[Tuple[object, str], float] = {}
    for _, name, start, end, _, request in tracer.spans:
        key = (request, name)
        starts[key] = min(starts.get(key, start), start)
        ends[key] = max(ends.get(key, end), end)

    def barrier(request: object, name: str, marks: Dict) -> Optional[float]:
        return marks.get((request, f"core.streaming.{name}"))

    paths: Dict[str, List[float]] = {stage: [] for stage in (
        "screening", "covariance", "eigendecomposition", "projection")}
    for request in {span[5] for span in tracer.spans if span[1] == REQUEST}:
        marks = {
            "screening": (first_submit.get((request, "screen")),
                          barrier(request, "merge_unique_sets", ends)),
            "covariance": (first_submit.get((request, "covariance")),
                           barrier(request, "covariance_matrix", ends)),
            "eigendecomposition": (
                barrier(request, "transformation_matrix", starts),
                barrier(request, "component_statistics", ends)),
            "projection": (first_submit.get((request, "project")),
                           None if request in unresolved
                           else last_resolve.get(request)),
        }
        for stage, (begin, finish) in marks.items():
            if begin is not None and finish is not None:
                paths[stage].append(finish - begin)
    return {stage: _mean(values) for stage, values in paths.items()}


def requests(tracer: Tracer) -> int:
    """Requests issued in the measurement window."""
    return sum(1 for span in tracer.spans if span[1] == REQUEST)
