"""What the run ran on: a fingerprint, a calibration loop and /proc readings.

The calibration loop is timed before and after every run so that a run
which landed in one of a shared VM's slow phases can be recognised.  It
never rescales a metric.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def fingerprint(root: Path, seed: int) -> dict:
    """nproc, CPU model, Python and NumPy versions, the commit and the seed."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed NumPy-plus-interpreter loop, in ms."""
    values = np.random.default_rng(0).normal(size=20_000)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for _ in range(20):
            total += float(np.sort(values)[100])
        for index in range(50_000):
            total += index * 0.5
        times.append(time.perf_counter() - started)
    return 1000.0 * statistics.median(times)


def peak_rss_kb(pid: int | str = "self") -> int:
    """High-water resident set size (``VmHWM``) of a live process, in kB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time a live process has used, all threads."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
