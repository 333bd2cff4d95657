"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scene256 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures as a table.  The exit code is 0 only when a result was printed.

One run:

1. builds the workload's seeded input cubes and each one's reference
   composite from the sequential engine, before anything is timed;
2. times :data:`SETUP_REPEATS` cold starts, each in a fresh interpreter,
   and reports their median as ``setup_s``;
3. drives the workload for ``--seconds`` in a fresh interpreter and checks
   every composite bit for bit against its reference.

With ``--trace 1`` step 3 runs twice, each for half the seconds: untraced,
then traced; the difference of their median latencies is the tracing
overhead.  Spans of the traced half are written to
``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import (ROOT, WORK_DIR, ProgramMissing,  # noqa: E402
                       child_env, require_program)
from perfbench.measure import median  # noqa: E402

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seconds a cold start may take, and seconds a load child may take beyond
#: its measured window.  Together they keep a hung run under three minutes.
SETUP_TIMEOUT = 20.0
CHILD_GRACE = 40.0


class ChildFailed(RuntimeError):
    pass


def run_child(argv, timeout: float) -> dict:
    """Run ``python3 -m perfbench.child <argv>`` and parse its JSON line.

    The child leads its own process group, so on timeout the child and
    every worker it started are killed together and reaped.
    """
    process = subprocess.Popen([sys.executable, "-m", "perfbench.child", *argv],
                               cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"perfbench.child {argv[0]} ran past {timeout:.0f} s")
    finally:
        try:  # the child on timeout; otherwise workers that outlived it
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise ChildFailed(f"perfbench.child {argv[0]} exited with "
                          f"{process.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"perfbench.child {argv[0]} printed nothing")
    return json.loads(lines[-1])


def declared(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


def with_units(values: Dict[str, float], section: str) -> Dict[str, Tuple[float, str]]:
    """``values`` as name -> (value, unit), in the order ``BENCHMARK.json``
    declares them; the names must be exactly the declared ones."""
    units = declared(section)
    if set(values) != set(units):
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: (values[name], unit) for name, unit in units.items()}


def end_to_end(setups, load, attempted: int, failed: int) -> Dict[str, float]:
    return {
        "latency_p50_ms": load["p50_ms"],
        "latency_tail_ms": load["tail_ms"],
        "throughput_cubes_s": load["throughput_cubes_s"],
        "cpu_ms_per_cube": load["cpu_ms_per_cube"],
        "peak_rss_mb": load["peak_rss_mb"],
        "success_frac": (attempted - failed) / attempted,
        "setup_s": median([setup["setup_s"] for setup in setups]),
    }


def per_layer(setups, plain, traced) -> Dict[str, float]:
    layer = dict(traced["layer"])
    layer["import.repro_s"] = median([s["import_s"] for s in setups])
    layer["setup.open_session_s"] = median([s["open_s"] for s in setups])
    layer["setup.first_fusion_s"] = median([s["first_s"] for s in setups])
    base = plain.get("baseline_p50_ms")
    layer["resilience.replication_overhead"] = (
        plain["p50_ms"] / base if base else 0.0)
    layer["trace.overhead_pct"] = (
        100.0 * (traced["p50_ms"] / plain["p50_ms"] - 1.0)
        if plain["p50_ms"] else 0.0)
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    from perfbench.workloads import (WORKLOADS, make_inputs,
                                     reference_composites, save_inputs)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        inputs = os.path.join(scratch, "inputs.npz")
        cubes = make_inputs(workload, args.seed)
        save_inputs(inputs, cubes, reference_composites(cubes))
        del cubes
        common = ["--workload", workload.name, "--inputs", inputs]
        setups = [run_child(["setup", *common], SETUP_TIMEOUT)
                  for _ in range(SETUP_REPEATS)]
        if not args.trace:
            load = run_child(["load", *common, "--seconds", str(args.seconds)],
                             args.seconds + CHILD_GRACE)
            loads = [load]
            print(f"{workload.name}: {load['samples']} requests timed; "
                  f"tail = p{load['tail_percentile']:.1f} of "
                  f"n={load['samples']}; peak RSS {load['peak_rss_mb']:.1f} MiB "
                  f"besides the {load['inputs_mb']:.1f} MiB of decoded inputs")
        else:
            half = args.seconds / 2
            baseline = (["--baseline-engine", "distributed"]
                        if workload.engine == "resilient" else [])
            plain = run_child(["load", *common, "--seconds", str(half), *baseline],
                              2 * half + CHILD_GRACE)
            span_dir = os.path.join(scratch, "spans")
            os.makedirs(span_dir)
            traced = run_child(
                ["load", *common, "--seconds", str(half), "--trace", "1",
                 "--span-dir", span_dir, "--trace-out",
                 os.path.join(WORK_DIR, f"trace-{workload.name}.jsonl")],
                half + CHILD_GRACE)
            loads = [plain, traced]
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Every composite of the run was checked: cold starts, warm-ups and
    # the timed requests alike.
    attempted = len(setups) + sum(load["attempted"] for load in loads)
    failed = (sum(1 for setup in setups if not setup["ok"])
              + sum(load["failed"] for load in loads))
    metrics = (with_units(per_layer(setups, *loads), "per_layer") if args.trace
               else with_units(end_to_end(setups, loads[0], attempted, failed),
                               "end_to_end"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
