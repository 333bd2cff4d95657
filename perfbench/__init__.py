"""The repository benchmark: named fusion workloads, end-to-end and per-layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints one JSON object as its last line of output.  The workloads, metrics
and bounds are declared in ``BENCHMARK.json``; which end-to-end metric each
per-layer metric is expected to move, and on which workload, is recorded in
``perfbench/predictions.json``.

The benchmark drives the library through its public API only and builds
nothing: the program is imported straight from ``<checkout>/src``.
"""

from __future__ import annotations

import os
import sys

#: Root of the checkout the benchmark runs in (the directory above this one).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where the program's sources live in a checkout.
SRC = os.path.join(ROOT, "src")

#: Scratch space for one run's inputs and traces, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".perfbench")


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def require_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``, or raise.

    The benchmark must measure the checkout it sits in, never an installed
    copy of the package, so the source tree is required to exist.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources under {SRC!r}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for the benchmark's child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env
