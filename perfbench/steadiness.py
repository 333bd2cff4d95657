"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Runs the benchmark command of ``BENCHMARK.json`` once per seed on each
workload and reports, per metric, the inter-quartile distance of the values
as a share of their median (``statistics.quantiles(values, n=4)``), beside
the metric's bound::

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --workloads thumbs-stream --seeds 5

A spread above a third of its bound is flagged; ``setup_s`` is judged by
its median alone, so its spread is shown but not flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT  # noqa: E402
from perfbench.measure import median, spread  # noqa: E402


def run_once(benchmark: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    completed = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                               check=True, timeout=180)
    result = json.loads(completed.stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--out", default=None, help="write the record here")
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    record = {"seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(benchmark, workload, seed, args.seconds)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        entry = {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                 "correct": all(run["correct"] for run in runs),
                 "wall_s": [round(run["wall_s"], 1) for run in runs],
                 "metrics": {}}
        print(f"{workload}: {args.seeds} runs, wall "
              f"{sum(entry['wall_s']):.0f} s, correct={entry['correct']}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values)
            flagged = name != "setup_s" and share > bound / 3
            steady &= not flagged and entry["correct"]
            entry["metrics"][name] = {"median": median(values), "spread": share,
                                      "bound": bound, "values": values}
            print(f"  {name:20s} median {median(values):12.4f}  spread "
                  f"{share:7.4f}  bound {bound:5.2f}{'  WIDE' if flagged else ''}")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
