"""Throughput and progress reporting for parallel runs.

The executor reports task completions to a :class:`ProgressReporter`,
which logs periodic progress lines (count, percentage, tasks/sec, ETA)
and accumulates the final :class:`ThroughputStats` the executor
exposes as ``last_report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class ThroughputStats:
    """Aggregate throughput of one executor run.

    Attributes
    ----------
    total_tasks, completed, failed:
        Task counts; ``completed`` includes tasks that eventually
        succeeded after retries, ``failed`` those that exhausted them.
    retried:
        Extra attempts beyond the first, summed over all tasks — the
        price paid to the fault-tolerance machinery.
    timed_out:
        Tasks whose *final* attempt exceeded the per-task budget.
    wall_time:
        Seconds from first submission to last completion.
    tasks_per_second:
        ``completed / wall_time`` (0 when nothing completed).
    """

    total_tasks: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    wall_time: float = 0.0

    @property
    def tasks_per_second(self) -> float:
        if self.wall_time <= 0.0 or self.completed == 0:
            return 0.0
        return self.completed / self.wall_time

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable form for benchmark trajectories."""
        return {
            "total_tasks": self.total_tasks,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "wall_time": self.wall_time,
            "tasks_per_second": self.tasks_per_second,
        }


@dataclass
class ProgressReporter:
    """Logs progress every ``report_every`` completions.

    ``report_every=0`` disables periodic logging but still tracks the
    final stats. ``on_progress`` (if given) is invoked after every
    completion with ``(done, total)`` — hook for CLI progress bars.
    """

    total_tasks: int
    report_every: int = 0
    on_progress: Optional[Callable[[int, int], None]] = None
    _done: int = field(default=0, init=False)
    _failed: int = field(default=0, init=False)
    _retried: int = field(default=0, init=False)
    _timed_out: int = field(default=0, init=False)
    _start: Optional[float] = field(default=None, init=False)
    _elapsed: float = field(default=0.0, init=False)

    def start(self) -> None:
        """Mark the beginning of the run."""
        self._start = time.perf_counter()

    def task_done(
        self,
        failed: bool = False,
        attempts: int = 1,
        timed_out: bool = False,
    ) -> None:
        """Record one task completion (successful or failed).

        ``attempts`` is the number of attempts the task consumed (extra
        ones count as retries); ``timed_out`` marks failures whose final
        attempt blew the per-task budget.
        """
        if self._start is None:
            self.start()
        self._done += 1
        self._retried += max(0, attempts - 1)
        if timed_out:
            self._timed_out += 1
        if failed:
            self._failed += 1
        self._elapsed = time.perf_counter() - self._start
        if self.on_progress is not None:
            self.on_progress(self._done, self.total_tasks)
        if self.report_every > 0 and self._done % self.report_every == 0:
            rate = self._done / self._elapsed if self._elapsed > 0 else 0.0
            remaining = self.total_tasks - self._done
            eta = remaining / rate if rate > 0 else float("inf")
            logger.info(
                "progress %d/%d (%.0f%%) — %.1f tasks/s, eta %.1fs",
                self._done,
                self.total_tasks,
                100.0 * self._done / max(1, self.total_tasks),
                rate,
                eta,
            )

    def stats(self) -> ThroughputStats:
        """Final (or running) throughput snapshot."""
        return ThroughputStats(
            total_tasks=self.total_tasks,
            completed=self._done - self._failed,
            failed=self._failed,
            retried=self._retried,
            timed_out=self._timed_out,
            wall_time=self._elapsed,
        )
