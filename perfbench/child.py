"""Child interpreters of one benchmark run.

``python3 -m perfbench.child setup ...`` times one cold start: a fresh
interpreter from ``import repro`` to the workload's first composite.
``python3 -m perfbench.child load ...`` opens the workload's session, warms
it, drives the closed load loop for the given seconds and reports what it
measured; with ``--trace 1`` it records spans and runs the layer probes.
Each prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from perfbench import require_program


def _fuse_one(session, workload, cube):
    if workload.window > 1:
        return session.submit(cube).result()
    return session.fuse(cube)


def setup_main(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    require_program()
    import repro
    imported = time.monotonic()

    from perfbench.workloads import WORKLOADS, load_inputs, matches
    workload = WORKLOADS[args.workload]
    cubes, references = load_inputs(args.inputs)
    loaded = time.monotonic()
    session = repro.open_session(**workload.session_options())
    try:
        opened = time.monotonic()
        report = _fuse_one(session, workload, cubes[0])
        first = time.monotonic()
        ok = matches(report, references[0])
    finally:
        session.close()
    import_s = imported - started
    open_s = opened - loaded
    first_s = first - opened
    return {"import_s": import_s, "open_s": open_s, "first_s": first_s,
            "setup_s": import_s + open_s + first_s, "ok": ok}


def _report_facts(index: int, report) -> dict:
    """What the per-layer metrics need from one report (public fields)."""
    metrics = report.metrics
    metadata = report.result.metadata
    facts = {
        "input": index,
        "messages": metrics.messages,
        "bytes_sent": metrics.bytes_sent,
        "duplicates": metrics.duplicate_messages_suppressed,
        "phase_seconds": sum(metrics.phase_seconds.values()),
        "elapsed": metrics.elapsed_seconds,
        "output_bytes": report.components.nbytes + report.composite.nbytes,
        "projection_flops": 0.0,
    }
    if report.engine == "pipeline":
        facts["projection_flops"] = float(metadata["stage_flops"]["projection"])
    return facts


def _payload_bytes(session) -> int:
    """Result bytes the session's stage executor has carried so far."""
    if session.engine != "pipeline":
        return 0
    return sum(dict(session.stage_executor().stage_payload_bytes).values())


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _per_input_median(facts, value) -> float:
    """Mean over inputs of each input's median ``value``.

    The process backend counts a message only when it reaches a live
    replica; one sent to a replica that has already finished is
    dead-lettered and not counted, so a request's count can fall one or
    two short of the protocol's.  The median per input is the count the
    protocol sends; the mean over inputs does not depend on how often each
    input came up in the window.
    """
    by_input: dict = {}
    for fact in facts:
        by_input.setdefault(fact["input"], []).append(value(fact))
    return _mean([statistics.median(values) for values in by_input.values()])


def _layer_metrics(tracer, facts, payload_bytes, session, cube_bytes) -> dict:
    from perfbench.tracer import requests, span_metrics

    metrics = span_metrics(tracer)
    project_seconds = metrics["core.kernels.project_ms"] * requests(tracer) / 1000.0
    tasks = len(tracer.tasks)
    metrics["scp.transport.result_bytes_per_task"] = (
        payload_bytes / tasks if tasks else 0.0)
    flops = sum(fact["projection_flops"] for fact in facts)
    metrics["core.kernels.project_gflop_s"] = (
        flops / project_seconds / 1e9 if project_seconds > 0 else 0.0)
    moved = [cube_bytes + fact["output_bytes"] for fact in facts
             if fact["projection_flops"]]
    metrics["core.kernels.flop_per_byte"] = (
        flops / sum(moved) if moved else 0.0)
    metrics["scp.process_backend.messages_per_request"] = _per_input_median(
        facts, lambda fact: float(fact["messages"]))
    metrics["scp.process_backend.mb_per_request"] = _per_input_median(
        facts, lambda fact: fact["bytes_sent"] / 1e6)
    metrics["scp.process_backend.compute_share"] = _mean(
        [fact["phase_seconds"] / fact["elapsed"] for fact in facts
         if fact["elapsed"] > 0])
    metrics["scp.pool.spawned_processes"] = float(session.spawned_processes)
    metrics["resilience.duplicates_suppressed"] = _mean(
        [float(fact["duplicates"]) for fact in facts])
    return metrics


def load_main(args: argparse.Namespace) -> dict:
    require_program()
    import repro
    from perfbench.measure import (peak_rss_mb, process_tree_cpu_seconds,
                                   summarise_latencies)
    from perfbench.workloads import (WORKLOADS, WORKERS, drive, load_inputs,
                                     matches)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer
        tracer = Tracer(args.span_dir).install()  # before any worker forks
    cubes, references = load_inputs(args.inputs)
    # The decoded inputs and references are the benchmark's own data, held
    # for the whole run: the RSS metric leaves them out.
    inputs_mb = sum(cube.data.nbytes + cube.wavelengths_nm.nbytes
                    for cube in cubes) + sum(ref.nbytes for ref in references)
    inputs_mb /= 1024.0 * 1024.0
    out: dict = {"attempted": 0, "failed": 0}
    facts: list = []
    session = repro.open_session(**workload.session_options())
    try:
        # Warm-up, untimed: every input once.  Its unique-set sizes are the
        # exact per-input counts (the timed loop's request mix varies).
        unique_sizes = []
        for index, (cube, reference) in enumerate(zip(cubes, references)):
            out["attempted"] += 1
            try:
                report = _fuse_one(session, workload, cube)
            except Exception as err:  # noqa: BLE001 - counted as failed
                report = err
            if isinstance(report, Exception) or not matches(report, reference):
                out["failed"] += 1
                reason = (repr(report) if isinstance(report, Exception)
                          else "composite differs from reference")
                print(f"perfbench: warm-up request on input {index} failed: "
                      f"{reason}", file=sys.stderr)
            else:
                unique_sizes.append(report.unique_set_size)
        payload_bytes = _payload_bytes(session)
        cpu = process_tree_cpu_seconds()
        if tracer is not None:
            tracer.start_window()
        load = drive(session, workload, cubes, references, args.seconds,
                     on_report=(lambda index, report:
                                facts.append(_report_facts(index, report)))
                     if tracer is not None else None)
        if tracer is not None:
            tracer.end_window()
        cpu = process_tree_cpu_seconds() - cpu
        payload_bytes = _payload_bytes(session) - payload_bytes
        out["attempted"] += load.attempted
        out["failed"] += load.failed
        for failure in load.failures:
            print(f"perfbench: request failed: {failure}", file=sys.stderr)
        out.update(summarise_latencies(load.latencies))
        out["throughput_cubes_s"] = (load.completed / load.elapsed
                                     if load.elapsed > 0 else 0.0)
        out["cpu_ms_per_cube"] = 1000.0 * cpu / max(load.completed, 1)
        if tracer is not None:
            from perfbench.probes import idle_cpu_pct
            layer = _layer_metrics(tracer, facts, payload_bytes, session,
                                   cubes[0].data.nbytes)
            layer["core.steps.screening.unique_set_size"] = _mean(unique_sizes)
            layer["scp.stages.idle_cpu_pct"] = idle_cpu_pct()
            tracer.write(args.trace_out)
            out["layer"] = layer
    finally:
        session.close()
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb() - inputs_mb
    out["inputs_mb"] = inputs_mb
    if tracer is not None:
        from repro.core.profiling import measured_gemm_peak_gflops
        from perfbench.probes import transport_roundtrip_ms
        for kind, ms in transport_roundtrip_ms(WORKERS).items():
            out["layer"][f"scp.transport.roundtrip_ms.{kind}"] = ms
        peak = measured_gemm_peak_gflops(refresh=True)
        out["layer"]["core.kernels.project_pct_peak"] = (
            100.0 * out["layer"]["core.kernels.project_gflop_s"] / peak)
    if args.baseline_engine:
        out["baseline_p50_ms"] = _baseline_p50_ms(args, workload, cubes,
                                                  references, out)
    return out


def _baseline_p50_ms(args, workload, cubes, references, out) -> float:
    """p50 latency of the same cubes on another engine (same backend)."""
    import dataclasses

    import repro
    from perfbench.measure import median
    from perfbench.workloads import drive

    baseline = dataclasses.replace(workload, engine=args.baseline_engine,
                                   replication=None)
    with repro.open_session(**baseline.session_options()) as session:
        load = drive(session, baseline, cubes, references, args.seconds)
    out["attempted"] += load.attempted
    out["failed"] += load.failed
    return 1000.0 * median(load.latencies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "load"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--baseline-engine", default=None,
                        help="also time the cubes on this engine, after "
                             "the measured window")
    args = parser.parse_args(argv)
    result = setup_main(args) if args.mode == "setup" else load_main(args)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
