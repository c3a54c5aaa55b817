"""Process CPU time and peak RSS, children included (Linux ``/proc``).

``resource.RUSAGE_CHILDREN`` only covers children that have exited and
been waited for, so the persistent worker pool of the ``chip`` workload
would be invisible to it. Live children are read from ``/proc`` instead.
Peak RSS is ``VmHWM``, which :func:`reset_peak_rss` restarts at the
current RSS, so a peak covers only what ran since the reset.
"""

from __future__ import annotations

import multiprocessing
import os
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return 0.0
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _proc_hwm_mb(pid: int | str) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process plus its live children."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in _child_pids())


def reset_peak_rss() -> None:
    """Restart the peak RSS of this process and its live children at their
    current RSS (``clear_refs`` value 5, Linux 4.0 and later)."""
    for pid in ["self", *_child_pids()]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except (FileNotFoundError, ProcessLookupError):
            pass  # a child that has just exited


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children, in MB,
    since the last :func:`reset_peak_rss`."""
    return _proc_hwm_mb("self") + sum(_proc_hwm_mb(pid) for pid in _child_pids())
