"""Helpers shared by the workloads: paths, statistics, failure tallies."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space for checkpoints and span files, inside the checkout.
WORK = ROOT / ".perfbench_work"

#: The tail percentile every workload reports.  In a 22-second run the
#: serve reference rung sends 251 requests, so p96 has ten samples beyond
#: it; a label run times about 600 graphs and a train run about 450 epochs.
#: On the serve workloads p96 sits inside the stall mode (7-18% of requests
#: today), below the rarer requests that also queue behind a stalled
#: connection, which made p97 swing by a quarter from run to run.
TAIL_PERCENTILE = 96

#: Failure kinds every workload reports, in print order.
FAILURE_KINDS = (
    "non_200",
    "connection",
    "timeout",
    "wrong_answer",
    "label_task",
    "eval_task",
    "train_nonfinite",
)


class RepoMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def import_repro():
    """Put ``src`` on the path and import the package under test."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RepoMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    return repro


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Tally:
    """Operations attempted and failed, failures broken down by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        if count:
            self.failed[kind] += count

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def by_kind(self) -> Dict[str, int]:
        return {kind: self.failed.get(kind, 0) for kind in FAILURE_KINDS}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low or ordered[high] == ordered[low]:
        return ordered[low]  # also keeps inf (a failed request) out of inf - inf
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read VmHWM of pid {pid}")
