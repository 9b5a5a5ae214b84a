"""Serving metrics: latency percentiles, source counts, throughput.

:class:`ServingMetrics` is the service's per-request sink. Latencies go
into a bounded ring buffer (newest ``window`` samples) so percentile
queries stay O(window) regardless of uptime; counters are cumulative.
The snapshot format is JSON-safe and is what the ``/metrics`` HTTP
endpoint serves.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Dict, Optional

import numpy as np

DEFAULT_WINDOW = 4096


class ServingMetrics:
    """Thread-safe request metrics for the prediction service."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=int(window))
        self._sources: Counter = Counter()
        self._started_at = time.monotonic()
        self.requests = 0
        self.cache_hits = 0
        self.errors = 0
        self.model_failures = 0
        self.model_retries = 0
        self.timeouts = 0
        self.breaker_trips = 0
        self.breaker_rejections = 0
        self.dropped_responses = 0
        self.replay_logged = 0
        self.replay_drops = 0
        self.hot_swaps = 0
        self.promotion_version: Optional[int] = None

    def record_request(
        self, latency_s: float, source: str, cached: bool
    ) -> None:
        """Record one answered request."""
        with self._lock:
            self.requests += 1
            self._latencies.append(float(latency_s))
            self._sources[source] += 1
            if cached:
                self.cache_hits += 1

    def record_error(self) -> None:
        """Record one failed request."""
        with self._lock:
            self.errors += 1

    def record_model_failure(self, timed_out: bool = False) -> None:
        """One model-path attempt failed (rescued by the fallback chain)."""
        with self._lock:
            self.model_failures += 1
            if timed_out:
                self.timeouts += 1

    def record_model_retry(self) -> None:
        """One in-request retry of the model path."""
        with self._lock:
            self.model_retries += 1

    def record_breaker_trip(self) -> None:
        """The circuit breaker opened."""
        with self._lock:
            self.breaker_trips += 1

    def record_breaker_rejection(self) -> None:
        """A request skipped the model because the breaker was open."""
        with self._lock:
            self.breaker_rejections += 1

    def record_dropped_response(self) -> None:
        """A client disconnected before its response could be written."""
        with self._lock:
            self.dropped_responses += 1

    def record_replay_logged(self) -> None:
        """One request was durably appended to the replay log."""
        with self._lock:
            self.replay_logged += 1

    def record_replay_drop(self) -> None:
        """One replay-log append failed (serving carried on)."""
        with self._lock:
            self.replay_drops += 1

    def record_hot_swap(self) -> None:
        """The serving model was replaced without a restart."""
        with self._lock:
            self.hot_swaps += 1

    def set_promotion_version(self, version: int) -> None:
        """Note the flywheel version number now being served."""
        with self._lock:
            self.promotion_version = int(version)

    def latency_percentiles(self) -> Dict[str, Optional[float]]:
        """p50/p90/p99/max over the sliding window, in milliseconds.

        An empty window reports ``None`` (JSON ``null``) for every
        percentile — there is no latency to summarize, and a literal
        zero would read as "instant".

        Only a plain O(window) list copy happens under the lock; the
        numpy conversion and the percentile sort run on the copy, so a
        ``/metrics`` scrape never stalls request recorders behind an
        O(n log n) sort.
        """
        with self._lock:
            window = list(self._latencies)
        samples = np.asarray(window, dtype=np.float64)
        if samples.size == 0:
            return {
                "p50_ms": None, "p90_ms": None, "p99_ms": None, "max_ms": None,
            }
        p50, p90, p99 = np.percentile(samples, [50.0, 90.0, 99.0]) * 1e3
        return {
            "p50_ms": float(p50),
            "p90_ms": float(p90),
            "p99_ms": float(p99),
            "max_ms": float(samples.max() * 1e3),
        }

    def snapshot(
        self,
        cache_stats: Optional[dict] = None,
        batcher_stats: Optional[dict] = None,
        models: Optional[list] = None,
        breakers: Optional[dict] = None,
        replay_stats: Optional[dict] = None,
        admission: Optional[dict] = None,
    ) -> dict:
        """JSON-safe aggregate, optionally embedding collaborator stats."""
        with self._lock:
            uptime = time.monotonic() - self._started_at
            requests = self.requests
            sources = dict(self._sources)
            cache_hits = self.cache_hits
            errors = self.errors
            fault_tolerance = {
                "model_failures": self.model_failures,
                "model_retries": self.model_retries,
                "timeouts": self.timeouts,
                "breaker_trips": self.breaker_trips,
                "breaker_rejections": self.breaker_rejections,
                "dropped_responses": self.dropped_responses,
            }
            flywheel = {
                "replay_logged": self.replay_logged,
                "replay_drops": self.replay_drops,
                "hot_swaps": self.hot_swaps,
                "promotion_version": self.promotion_version,
            }
        result = {
            "uptime_s": uptime,
            "requests": requests,
            "requests_per_second": requests / uptime if uptime > 0 else 0.0,
            "errors": errors,
            "cache_hits": cache_hits,
            "sources": sources,
            "fallback_requests": sum(
                count
                for source, count in sources.items()
                if source != "model"
            ),
            "fault_tolerance": fault_tolerance,
            "flywheel": flywheel,
            "latency": self.latency_percentiles(),
        }
        if replay_stats is not None:
            result["flywheel"]["replay_log"] = replay_stats
        if cache_stats is not None:
            result["cache"] = cache_stats
        if batcher_stats is not None:
            result["batcher"] = batcher_stats
        if models is not None:
            result["models"] = models
        if breakers is not None:
            result["breakers"] = breakers
        if admission is not None:
            result["admission"] = admission
        return result
