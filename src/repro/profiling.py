"""Lightweight per-phase wall-time profiling for hot loops.

A :class:`PhaseProfiler` accumulates wall time into named phases
through a context manager, then renders a machine-readable report and a
one-screen table. :class:`TrainingProfiler` (batch assembly / forward /
backward / optimizer step / …) and :class:`EvaluationProfiler`
(bucketing / simulate / aggregate) are thin subclasses that only fix
the report title. The :data:`NULL_PROFILER` singleton implements the
same interface as no-ops, so hot loops pay a single attribute lookup
when profiling is off.

Example::

    profiler = TrainingProfiler()
    with profiler.phase("forward"):
        loss = model(batch)
    print(profiler.format_report())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional

#: Schema version of the report dict (bumped on breaking changes).
PROFILE_SCHEMA_VERSION = 1


class PhaseProfiler:
    """Accumulates wall time per named phase.

    Parameters
    ----------
    clock:
        Monotonic time source returning seconds; injectable for tests.
    title:
        Heading used by :meth:`format_report`.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        title: str = "profile",
    ):
        self._clock = clock
        self._title = title
        self._start = clock()
        # Insertion-ordered: phases report in first-use order.
        self._totals: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block under ``name`` (re-entrant safe)."""
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._calls[name] = self._calls.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Record already-measured time under ``name``."""
        self._totals[name] = self._totals.get(name, 0.0) + float(seconds)
        self._calls[name] = self._calls.get(name, 0) + 1

    def report(self) -> dict:
        """Machine-readable summary.

        Returns ``{"schema", "total_s", "accounted_s", "phases": {name:
        {"total_s", "calls", "mean_s", "share"}}}`` where ``share`` is
        the fraction of *accounted* time (phases can nest, so shares
        are relative to the phase sum, not wall time).
        """
        accounted = sum(self._totals.values())
        phases = {}
        for name, total in self._totals.items():
            calls = self._calls[name]
            phases[name] = {
                "total_s": total,
                "calls": calls,
                "mean_s": total / calls if calls else 0.0,
                "share": total / accounted if accounted > 0 else 0.0,
            }
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "total_s": self._clock() - self._start,
            "accounted_s": accounted,
            "phases": phases,
        }

    def format_report(self) -> str:
        """One-screen human-readable table of the report."""
        report = self.report()
        lines = [
            f"{self._title} ({report['total_s']:.3f}s wall, "
            f"{report['accounted_s']:.3f}s accounted)",
            f"  {'phase':<16} {'total':>10} {'calls':>8} "
            f"{'mean':>10} {'share':>7}",
        ]
        for name, stats in report["phases"].items():
            lines.append(
                f"  {name:<16} {stats['total_s'] * 1e3:>8.1f}ms "
                f"{stats['calls']:>8} {stats['mean_s'] * 1e6:>8.1f}us "
                f"{stats['share'] * 100:>6.1f}%"
            )
        return "\n".join(lines)


class TrainingProfiler(PhaseProfiler):
    """Per-phase profiler for the GNN training loop."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock, title="training profile")


class EvaluationProfiler(PhaseProfiler):
    """Per-phase profiler for the warm-start evaluation sweep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock, title="evaluation profile")


class _NullProfiler:
    """No-op stand-in with the :class:`PhaseProfiler` interface."""

    enabled = False
    __slots__ = ()

    @contextmanager
    def phase(self, name: str):
        yield

    def add(self, name: str, seconds: float) -> None:
        pass

    def report(self) -> Optional[dict]:
        return None

    def format_report(self) -> str:
        return "profiling disabled"


#: Shared no-op profiler used when profiling is off.
NULL_PROFILER = _NullProfiler()
