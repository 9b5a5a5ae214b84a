"""Micro-batching request queue for online inference.

Concurrent prediction requests are coalesced into a single
:class:`~repro.gnn.batching.GraphBatch` forward pass. Batching is
greedy: whenever the dispatcher thread is free it takes whatever is
queued, up to ``max_batch_size`` graphs, and runs it at once. A lone
request never waits for companions; requests that arrive during a
forward form the next batch, so batches grow exactly as far as the load
outruns the forward pass.

Because model inference runs under batch-invariant kernels
(:func:`repro.nn.tensor.batch_invariant`), the response for a request is
bit-identical no matter which other requests happened to share its
batch or whether it ran unbatched — coalescing is purely a throughput
decision.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.graphs.graph import Graph


class BatchingError(ReproError):
    """Invalid micro-batcher configuration or a failed request."""


class PendingPrediction:
    """Handle for one submitted request; ``result()`` blocks until done."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.batch_size: Optional[int] = None

    def _resolve(self, value: np.ndarray, batch_size: int) -> None:
        self._value = value
        self.batch_size = batch_size
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        """Whether a result (or error) is available."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The prediction row ``(2p,)``; re-raises worker errors."""
        if not self._event.wait(timeout):
            raise BatchingError("timed out waiting for a batched prediction")
        if self._error is not None:
            raise self._error
        return self._value


class MicroBatcher:
    """Coalesce concurrent requests into shared forward passes.

    Parameters
    ----------
    forward_fn:
        ``graphs -> (len(graphs), 2p)`` array; typically
        ``model.predict``.
    max_batch_size:
        Most graphs dispatched in one forward pass.
    """

    def __init__(
        self,
        forward_fn: Callable[[Sequence[Graph]], np.ndarray],
        max_batch_size: int = 32,
    ):
        if max_batch_size < 1:
            raise BatchingError("max_batch_size must be >= 1")
        self.forward_fn = forward_fn
        self.max_batch_size = int(max_batch_size)
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._queue: List[PendingPrediction] = []
        self._closed = False
        self.num_requests = 0
        self.num_batches = 0
        self.total_batched = 0
        self.max_occupancy = 0
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-microbatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, graph: Graph) -> PendingPrediction:
        """Queue one graph; returns a handle resolved by the dispatcher."""
        pending = PendingPrediction(graph)
        with self._has_work:
            if self._closed:
                raise BatchingError("micro-batcher is closed")
            self._queue.append(pending)
            self.num_requests += 1
            self._has_work.notify_all()
        return pending

    def predict(
        self, graph: Graph, timeout: Optional[float] = 30.0
    ) -> np.ndarray:
        """Blocking convenience: submit and wait for the row."""
        return self.submit(graph).result(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, and join the thread."""
        with self._has_work:
            if self._closed:
                return
            self._closed = True
            self._has_work.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> Optional[List[PendingPrediction]]:
        with self._has_work:
            while not self._queue and not self._closed:
                self._has_work.wait()
            if not self._queue:
                return None  # closed and drained
            batch = self._queue[: self.max_batch_size]
            del self._queue[: self.max_batch_size]
            self.num_batches += 1
            self.total_batched += len(batch)
            self.max_occupancy = max(self.max_occupancy, len(batch))
            return batch

    def _run_batch(self, batch: List[PendingPrediction]) -> None:
        graphs = [pending.graph for pending in batch]
        try:
            outputs = np.asarray(self.forward_fn(graphs))
            if outputs.shape[0] != len(graphs):
                raise BatchingError(
                    f"forward returned {outputs.shape[0]} rows for "
                    f"{len(graphs)} graphs"
                )
        except BaseException as exc:  # noqa: BLE001 — fanned out per request
            for pending in batch:
                pending._fail(exc)
            return
        for pending, row in zip(batch, outputs):
            pending._resolve(row, len(batch))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Occupancy counters for the metrics endpoint."""
        with self._lock:
            return {
                "requests": self.num_requests,
                "batches": self.num_batches,
                "mean_occupancy": (
                    self.total_batched / self.num_batches
                    if self.num_batches
                    else 0.0
                ),
                "max_occupancy": self.max_occupancy,
                "max_batch_size": self.max_batch_size,
                "queued": len(self._queue),
            }
