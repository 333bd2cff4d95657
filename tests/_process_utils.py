"""Shared helpers for the process-backend test modules.

Kept in a plain module (the same idiom as ``benchmarks/_bench_utils.py``) so
both test files and any future process tests share one definition of the
"fast" backend configuration: ``fork`` where the platform offers it -- an
order of magnitude quicker to start than ``spawn`` -- with a generous but
bounded safety timeout.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.measured import default_start_method
from repro.scp.pool import ProcessPool
from repro.scp.process_backend import ProcessBackend

FAST_START = default_start_method()


def fast_backend(pool: Optional[ProcessPool] = None, **kwargs) -> ProcessBackend:
    """A backend borrowing ``pool``'s slots, or owning a private pool
    started with :data:`FAST_START` when ``pool`` is ``None``."""
    kwargs.setdefault("start_method", FAST_START)
    kwargs.setdefault("default_timeout", 120.0)
    return ProcessBackend(pool=pool, **kwargs)
