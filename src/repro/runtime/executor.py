"""Parallel execution runtime: serial / thread / process backends.

:class:`ParallelExecutor` is the one fan-out primitive the pipeline hot
paths (dataset labeling, warm-start evaluation, benchmarks) share. It
provides:

- **Backends.** ``serial`` (a plain loop — the reference semantics),
  ``thread`` (``ThreadPoolExecutor`` — cheap, shares memory, wins when
  the task releases the GIL or is I/O bound), and ``process``
  (``ProcessPoolExecutor`` — true CPU parallelism; task functions and
  arguments must be picklable module-level callables).
- **Chunked dispatch.** Tasks are grouped into chunks to amortize
  submission and IPC overhead; results are always returned in input
  order regardless of completion order.
- **Determinism.** The executor itself introduces no randomness; pair
  it with :func:`repro.runtime.seeding.derive_task_seeds` so each task
  owns an independent RNG stream and parallel output is bit-identical
  to serial.
- **Fault tolerance.** Worker exceptions are caught per task and
  retried under a :class:`~repro.runtime.faults.RetryPolicy`
  (exponential backoff with deterministic per-task jitter). Tasks can
  carry a wall-clock budget (``task_timeout_s``) and the whole run an
  overall ``deadline_s``; a :class:`~repro.runtime.faults.FaultInjector`
  can deterministically force failures/delays for testing. Exhausted
  tasks are either raised as one aggregated
  :class:`~repro.exceptions.ExecutionError` (``error_mode="raise"``) or
  returned in-place as :class:`TaskFailure` records
  (``error_mode="collect"``).
- **Reporting.** Every ``map`` records wall time, throughput, retries,
  and timeouts in ``last_report`` (a
  :class:`~repro.runtime.progress.ThroughputStats`), which callers
  log (labeling's summary line) or assert on (the retry tests).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ExecutionError, TaskTimeout
from repro.runtime.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.runtime.progress import ProgressReporter, ThroughputStats
from repro.utils.logging import get_logger

logger = get_logger(__name__)

BACKENDS = ("serial", "thread", "process")

#: ``TaskFailure.kind`` values.
FAILURE_ERROR = "error"
FAILURE_TIMEOUT = "timeout"
FAILURE_DEADLINE = "deadline"


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget (or ran out of time).

    Attributes
    ----------
    index:
        Position of the task in the input sequence.
    label:
        Human-readable task label (e.g. a graph name).
    attempts:
        Number of attempts made (0 when the overall deadline expired
        before the task ever ran).
    error:
        ``repr`` of the final exception.
    traceback:
        Formatted traceback of the final exception.
    kind:
        ``"error"`` (the task raised), ``"timeout"`` (the final attempt
        exceeded ``task_timeout_s``), or ``"deadline"`` (the run's
        overall deadline expired before the task could finish).
    """

    index: int
    label: str
    attempts: int
    error: str
    traceback: str
    kind: str = FAILURE_ERROR

    def __str__(self) -> str:
        return f"{self.label} (task {self.index}): {self.error}"


def _call_with_timeout(
    fn: Callable[[Any], Any], item: Any, timeout_s: Optional[float]
) -> Any:
    """Run ``fn(item)``, raising :class:`TaskTimeout` past ``timeout_s``.

    The budgeted call runs in a daemon helper thread; on timeout the
    runaway attempt keeps executing in the background (Python offers no
    safe preemption) but its eventual result is discarded, and the task
    is handed back to the retry machinery immediately.
    """
    if timeout_s is None:
        return fn(item)
    outcome: dict = {}

    def runner() -> None:
        try:
            outcome["value"] = fn(item)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome["error"] = exc

    worker = threading.Thread(
        target=runner, name="repro-task-timeout", daemon=True
    )
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        raise TaskTimeout(f"task exceeded its {timeout_s}s budget")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _deadline_failure(index: int, label: str, attempts: int) -> TaskFailure:
    return TaskFailure(
        index=index,
        label=label,
        attempts=attempts,
        error="DeadlineExceeded('overall deadline expired')",
        traceback="",
        kind=FAILURE_DEADLINE,
    )


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[Tuple[int, str, Any]],
    plan: FaultPlan,
) -> List[Tuple[int, bool, Any, int]]:
    """Run one chunk of ``(index, label, item)`` tasks in this worker.

    Module-level so the process backend can pickle it. Returns
    ``(index, ok, result_or_TaskFailure, attempts)`` quadruples.
    """
    out: List[Tuple[int, bool, Any, int]] = []
    for position, (index, label, item) in enumerate(chunk):
        if plan.expired():
            # Deadline hit mid-chunk: cut the remaining tasks without
            # running them.
            for rest_index, rest_label, _ in chunk[position:]:
                out.append(
                    (
                        rest_index,
                        False,
                        _deadline_failure(rest_index, rest_label, 0),
                        0,
                    )
                )
            break
        attempts = 0
        while True:
            attempts += 1
            try:
                if plan.injector is not None:
                    plan.injector.before_attempt(index, label, attempts)
                out.append(
                    (
                        index,
                        True,
                        _call_with_timeout(fn, item, plan.task_timeout_s),
                        attempts,
                    )
                )
                break
            except Exception as exc:  # noqa: BLE001 — captured per task
                timed_out = isinstance(exc, TaskTimeout)
                if attempts <= plan.policy.retries and not plan.expired():
                    delay = plan.policy.delay_s(index, attempts)
                    if delay > 0.0:
                        left = plan.time_left()
                        if left is not None:
                            delay = min(delay, max(0.0, left))
                        time.sleep(delay)
                    if not plan.expired():
                        continue
                out.append(
                    (
                        index,
                        False,
                        TaskFailure(
                            index=index,
                            label=label,
                            attempts=attempts,
                            error=repr(exc),
                            traceback=traceback.format_exc(),
                            kind=(
                                FAILURE_TIMEOUT
                                if timed_out
                                else FAILURE_ERROR
                            ),
                        ),
                        attempts,
                    )
                )
                break
    return out


def default_worker_count(backend: str) -> int:
    """Sensible worker default: all cores for pools, 1 for serial."""
    if backend == "serial":
        return 1
    return max(1, os.cpu_count() or 1)


class ParallelExecutor:
    """Ordered, chunked, fault-tolerant map over a task list.

    Parameters
    ----------
    backend:
        One of ``"serial"``, ``"thread"``, ``"process"``.
    max_workers:
        Pool size; defaults to the machine's core count (1 for serial).
    chunk_size:
        Tasks per dispatch unit. Defaults to ``ceil(n / (4 * workers))``
        so each worker sees ~4 chunks — small enough to balance load,
        large enough to amortize IPC.
    retries:
        Extra attempts per task before it is recorded as failed.
        Shorthand for ``retry_policy=RetryPolicy(retries=...)``.
    retry_policy:
        Full :class:`~repro.runtime.faults.RetryPolicy` (backoff,
        deterministic jitter). Overrides ``retries`` when given.
    error_mode:
        ``"raise"`` aggregates failures into one
        :class:`~repro.exceptions.ExecutionError` after the run;
        ``"collect"`` leaves :class:`TaskFailure` records in the result
        list at the failing positions.
    task_timeout_s:
        Per-attempt wall-clock budget; an attempt past it counts as a
        (retryable) failure of kind ``"timeout"``.
    deadline_s:
        Overall budget for one ``map`` call. Tasks that cannot start
        (or finish retrying) before it expires fail with kind
        ``"deadline"``; already-running attempts are allowed to finish.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` that
        deterministically forces failures/delays (testing only).
    report_every:
        Log a progress line every N completions (0 disables).
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retries: int = 0,
        error_mode: str = "raise",
        report_every: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if error_mode not in ("raise", "collect"):
            raise ExecutionError(
                f"unknown error_mode {error_mode!r}; "
                "expected 'raise' or 'collect'"
            )
        if max_workers is not None and max_workers < 1:
            raise ExecutionError("max_workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionError("chunk_size must be >= 1")
        if retries < 0:
            raise ExecutionError("retries must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ExecutionError("task_timeout_s must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ExecutionError("deadline_s must be positive")
        self.backend = backend
        self.max_workers = (
            int(max_workers)
            if max_workers is not None
            else default_worker_count(backend)
        )
        self.chunk_size = chunk_size
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(retries=int(retries))
        )
        self.error_mode = error_mode
        self.task_timeout_s = task_timeout_s
        self.deadline_s = deadline_s
        self.fault_injector = fault_injector
        self.report_every = int(report_every)
        self.last_report: ThroughputStats = ThroughputStats()

    @property
    def retries(self) -> int:
        """Retry budget (from the policy) — kept for back-compat."""
        return self.retry_policy.retries

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
        on_progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item, preserving input order.

        ``labels`` (parallel to ``items``) name tasks in error reports.
        With the process backend, ``fn`` and the items must be
        picklable. Returns one result per item; failing positions hold
        :class:`TaskFailure` records when ``error_mode="collect"``.
        """
        items = list(items)
        n = len(items)
        if labels is None:
            labels = [f"task-{i}" for i in range(n)]
        else:
            labels = [str(label) for label in labels]
            if len(labels) != n:
                raise ExecutionError(
                    f"labels length {len(labels)} != items length {n}"
                )
        plan = FaultPlan(
            policy=self.retry_policy,
            injector=self.fault_injector,
            task_timeout_s=self.task_timeout_s,
            deadline=(
                time.monotonic() + self.deadline_s
                if self.deadline_s is not None
                else None
            ),
        )
        reporter = ProgressReporter(
            total_tasks=n,
            report_every=self.report_every,
            on_progress=on_progress,
        )
        reporter.start()
        results: List[Any] = [None] * n
        failures: List[TaskFailure] = []

        def consume(chunk_output: List[Tuple[int, bool, Any, int]]) -> None:
            for index, ok, value, attempts in chunk_output:
                results[index] = value
                if not ok:
                    failures.append(value)
                reporter.task_done(
                    failed=not ok,
                    attempts=attempts,
                    timed_out=not ok and value.kind == FAILURE_TIMEOUT,
                )

        chunks = self._chunk([(i, labels[i], items[i]) for i in range(n)])
        if self.backend == "serial" or n == 0 or self.max_workers == 1:
            for chunk in chunks:
                consume(_run_chunk(fn, chunk, plan))
        else:
            pool_cls = (
                ThreadPoolExecutor
                if self.backend == "thread"
                else ProcessPoolExecutor
            )
            with pool_cls(max_workers=self.max_workers) as pool:
                pending = {
                    pool.submit(_run_chunk, fn, chunk, plan): chunk
                    for chunk in chunks
                }
                while pending:
                    done, _ = wait(
                        set(pending),
                        timeout=plan.time_left(),
                        return_when=FIRST_COMPLETED,
                    )
                    if not done and plan.expired():
                        # Deadline expired with chunks still queued or
                        # running: cancel what has not started; chunks
                        # already running finish and cut their own
                        # remaining tasks (the plan travels with them).
                        for future in list(pending):
                            if future.cancel():
                                chunk = pending.pop(future)
                                consume(
                                    [
                                        (
                                            index,
                                            False,
                                            _deadline_failure(
                                                index, label, 0
                                            ),
                                            0,
                                        )
                                        for index, label, _ in chunk
                                    ]
                                )
                        continue
                    for future in done:
                        pending.pop(future)
                        consume(future.result())

        self.last_report = reporter.stats()
        if failures and self.error_mode == "raise":
            failures.sort(key=lambda f: f.index)
            summary = "; ".join(str(f) for f in failures[:5])
            if len(failures) > 5:
                summary += f"; ... ({len(failures) - 5} more)"
            raise ExecutionError(
                f"{len(failures)}/{n} tasks failed: {summary}",
                failures=failures,
            )
        return results

    # ------------------------------------------------------------------
    def _chunk(
        self, tasks: List[Tuple[int, str, Any]]
    ) -> List[List[Tuple[int, str, Any]]]:
        n = len(tasks)
        if n == 0:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n // (4 * self.max_workers)))
        return [tasks[i : i + size] for i in range(0, n, size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(backend={self.backend!r}, "
            f"max_workers={self.max_workers})"
        )
