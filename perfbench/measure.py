"""Measurement helpers: latency summaries and process accounting from /proc."""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES_BEYOND = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples that is
    the value ranked ``n - 10`` in ascending order (ten strictly larger
    samples remain), reported as percentile ``100 * (n - 10) / n``.  With
    ten or fewer samples there is no such percentile and the maximum is
    returned, labelled as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_SAMPLES_BEYOND:
        return float(ordered[-1]), 100.0, n
    rank = n - TAIL_SAMPLES_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------

def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name may contain spaces; the fields after it do not.
    return raw[raw.rindex(")") + 2:].split()


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                kids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return kids


def process_tree_cpu_seconds(pid: int = 0) -> float:
    """CPU seconds of ``pid`` and every process descended from it.

    Counts user and system time of the live processes plus the time the
    kernel folded into each parent when it reaped a child (``cutime`` and
    ``cstime``), so workers that exited or were killed and reaped during a
    measurement window still count.
    """
    root = pid or os.getpid()
    total_ticks = 0
    seen = set()
    frontier = [root]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            fields = _stat_fields(current)
        except OSError:
            continue
        # Fields 14-17 of /proc/<pid>/stat (1-based): utime stime cutime cstime.
        total_ticks += sum(int(value) for value in fields[11:15])
        frontier.extend(_children(current))
    return total_ticks / _CLOCK_TICKS


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def summarise_latencies(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and tail of request latencies, in milliseconds."""
    ms = [1000.0 * value for value in seconds]
    value, percentile, samples = tail(ms)
    return {"p50_ms": median(ms), "tail_ms": value,
            "tail_percentile": percentile, "samples": samples}
