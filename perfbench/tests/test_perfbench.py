"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from perfbench import ROOT, require_program

require_program()

import repro  # noqa: E402
from perfbench import child, run  # noqa: E402
from perfbench import workloads as workloads_module  # noqa: E402
from perfbench.measure import tail  # noqa: E402
from perfbench.tracer import (Tracer, self_times, span_metrics,  # noqa: E402
                              stage_critical_paths)
from perfbench.workloads import (Workload, drive, make_inputs,  # noqa: E402
                                 reference_composites, save_inputs)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(ROOT, "perfbench", "predictions.json")) as _handle:
    PREDICTIONS = json.load(_handle)

TINY_STREAM = Workload("tiny-stream", "pipeline", (8, 24, 24), distinct=3,
                       window=2)
TINY_RESILIENT = Workload("tiny-resilient", "resilient", (8, 24, 24),
                          distinct=2, replication=2)


def _load(workload, tmp_path, monkeypatch, *, seed=3, seconds=0.5, trace=0):
    """One in-process load run of a tiny workload, as the load child does it."""
    monkeypatch.setitem(workloads_module.WORKLOADS, workload.name, workload)
    cubes = make_inputs(workload, seed)
    inputs = str(tmp_path / f"inputs-{seed}.npz")
    save_inputs(inputs, cubes, reference_composites(cubes))
    span_dir = tmp_path / f"spans-{seed}-{trace}"
    span_dir.mkdir(exist_ok=True)
    args = argparse.Namespace(
        workload=workload.name, inputs=inputs, seconds=seconds, trace=trace,
        span_dir=str(span_dir), trace_out=str(tmp_path / "trace.jsonl"),
        baseline_engine="distributed" if workload.engine == "resilient" else None)
    return args, child.load_main(args)


# ---------------------------------------------------------------------------
# Names and units
# ---------------------------------------------------------------------------

def test_end_to_end_names_match_benchmark_json(tmp_path, monkeypatch):
    args, load = _load(TINY_STREAM, tmp_path, monkeypatch)
    setups = [child.setup_main(args)]
    assert setups[0]["ok"]
    metrics = run.with_units(run.end_to_end(setups, load, attempted=10, failed=0),
                             "end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_names_match_benchmark_json(tmp_path, monkeypatch):
    args, plain = _load(TINY_RESILIENT, tmp_path, monkeypatch)
    _, traced = _load(TINY_RESILIENT, tmp_path, monkeypatch, trace=1)
    setups = [child.setup_main(args)]
    metrics = run.with_units(run.per_layer(setups, plain, traced), "per_layer")
    assert metrics["resilience.replication_overhead"][0] > 0
    assert metrics["scp.stages.dispatch_wait_ms"][0] == 0  # no stage executor
    with pytest.raises(RuntimeError, match="trace.overhead_pct"):
        run.with_units({name: value for name, (value, _) in metrics.items()
                        if name != "trace.overhead_pct"}, "per_layer")


def test_predictions_cover_every_layer_metric():
    assert list(PREDICTIONS["per_layer"]) == list(run.declared("per_layer"))
    names = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert names == set(workloads_module.WORKLOADS)
    for prediction in PREDICTIONS["per_layer"].values():
        assert set(prediction["moves"]) <= set(run.declared("end_to_end"))
        assert set(prediction["on"]) | set(prediction["stays_flat_on"]) <= names


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_gives_same_inputs():
    first = make_inputs(TINY_STREAM, 11)
    again = make_inputs(TINY_STREAM, 11)
    other = make_inputs(TINY_STREAM, 12)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(first[0].data, other[0].data)


def test_same_seed_gives_same_exact_counts(tmp_path, monkeypatch):
    counts = []
    for _ in range(2):
        _, traced = _load(TINY_STREAM, tmp_path, monkeypatch, trace=1)
        layer = traced["layer"]
        counts.append((layer["core.steps.screening.unique_set_size"],
                       layer["core.streaming.tasks_per_request"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_resilient_message_count_repeats_for_the_same_seed(tmp_path, monkeypatch):
    counts = []
    for _ in range(2):
        _, traced = _load(TINY_RESILIENT, tmp_path, monkeypatch, trace=1,
                          seconds=1.0)
        counts.append(traced["layer"]["scp.process_backend.messages_per_request"])
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# Correctness checking
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window", [1, 2])
def test_corrupted_composite_is_counted_as_failed(window):
    workload = Workload("tiny-threads", "pipeline", (8, 24, 24), distinct=2,
                        window=window)
    cubes = make_inputs(workload, 5)
    references = reference_composites(cubes)
    corrupted = [references[0], references[1].copy()]
    corrupted[1][0, 0, 0] = np.nextafter(corrupted[1][0, 0, 0], 2.0)
    with repro.open_session(engine="pipeline", backend="local:2",
                            max_inflight=window) as session:
        load = drive(session, workload, cubes, corrupted, 0.3)
    assert load.attempted >= 2
    assert load.failed == load.attempted // 2  # every request on input 1
    assert load.completed == load.attempted - load.failed
    metrics = run.end_to_end(
        [{"setup_s": 1.0, "ok": True}],
        {"p50_ms": 1.0, "tail_ms": 1.0, "throughput_cubes_s": 1.0,
         "cpu_ms_per_cube": 1.0, "peak_rss_mb": 1.0},
        attempted=load.attempted, failed=load.failed)
    assert metrics["success_frac"] == pytest.approx(
        (load.attempted - load.failed) / load.attempted)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [*BENCHMARK["command"], "--workload", "scene256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, timeout=60)
    assert completed.returncode != 0
    assert b"{" not in completed.stdout


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples = tail(list(range(1, 31)))
    assert (value, samples) == (20, 30)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(1 for v in range(1, 31) if v > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "parent", 0.0, 10.0, None, 1),
             (2, "child", 1.0, 4.0, 1, 1),
             (3, "child", 3.0, 5.0, 1, 1),
             (4, "grandchild", 3.5, 4.5, 3, 1)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[3] == pytest.approx(1.0)


def test_stage_critical_paths_come_from_spans_and_task_records(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.spans.extend([
        (1, "api.session.fuse", 0.0, 20.0, None, 1),
        (2, "core.streaming.merge_unique_sets", 3.0, 4.0, 1, 1),
        (3, "core.streaming.covariance_matrix", 7.0, 8.0, 1, 1),
        (4, "core.streaming.transformation_matrix", 8.0, 9.0, 1, 1),
        (5, "core.streaming.component_statistics", 10.0, 11.0, 1, 1)])
    for stage, call, resolved in [("screen", 1.0, 2.5), ("screen", 1.5, 2.8),
                                  ("covariance", 5.0, 6.0),
                                  ("project", 12.0, 15.0), ("project", 12.5, 16.0)]:
        tracer.tasks.append({"stage": stage, "call": call, "returned": call,
                             "resolved": resolved, "request": 1})
    assert stage_critical_paths(tracer) == {
        "screening": 3.0, "covariance": 3.0, "eigendecomposition": 3.0,
        "projection": 4.0}
    tracer.tasks[-1]["resolved"] = None  # still in flight: no projection mark
    assert stage_critical_paths(tracer)["projection"] == 0.0


def test_tracer_uninstall_restores_entry_points(tmp_path):
    import repro.core.streaming as streaming
    from repro.api.session import FusionSession
    from repro.data.shared import SharedCube

    before = (FusionSession.fuse, streaming.screen_tile,
              vars(SharedCube)["from_cube"])
    tracer = Tracer(str(tmp_path)).install()
    assert streaming.screen_tile is not before[1]
    tracer.uninstall()
    assert (FusionSession.fuse, streaming.screen_tile,
            vars(SharedCube)["from_cube"]) == before
    assert span_metrics(tracer)["core.streaming.tasks_per_request"] == 0
