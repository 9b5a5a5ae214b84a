"""Admission control: the admit / degrade / shed gate of ``/predict``.

The threaded server never lets load grow its work without bound. Each
``/predict`` whose body has arrived passes through one three-way
decision, keyed on how many requests are currently inside the gate:

- ``admit`` — fewer than ``max_inflight`` admitted requests are running:
  take the full path (cache, micro-batched model forward, fallbacks).
- ``degrade`` — the model path is saturated: answer a cache hit as
  usual, and a miss straight from the classical fallback chain, with a
  200 tagged ``"degraded": true``. Capacity overflow costs fidelity, not
  queueing.
- ``shed`` — :data:`SHED_FACTOR` × ``max_inflight`` requests are already
  inside (admitted and degraded together): even fallback work would pile
  up, so answer 503 with ``Retry-After`` before the graph is built.

Two counters under one lock carry the policy: ``inflight`` (admitted
requests) and ``concurrent`` (every request inside the gate). A request
changes them once on :meth:`AdmissionController.decide` and once on
:meth:`AdmissionController.release`.
"""

from __future__ import annotations

import threading

from repro.exceptions import ReproError

ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"

#: Default admitted requests in flight (``repro serve --max-inflight``).
DEFAULT_MAX_INFLIGHT = 64
#: Requests inside the gate, as a multiple of ``max_inflight``, past
#: which new ones are shed with 503.
SHED_FACTOR = 2
#: Seconds a shed client is told to wait (the ``Retry-After`` header).
RETRY_AFTER_S = 1


class AdmissionController:
    """Thread-safe inflight accounting plus the admit/degrade/shed gate."""

    def __init__(self, max_inflight: int = DEFAULT_MAX_INFLIGHT):
        if max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.shed_limit = SHED_FACTOR * self.max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self._concurrent = 0
        self.admitted = 0
        self.degraded = 0
        self.shed = 0
        self.max_observed_concurrent = 0

    @property
    def inflight(self) -> int:
        """Admitted requests not yet released."""
        return self._inflight

    @property
    def concurrent(self) -> int:
        """Admitted plus degraded requests not yet released."""
        return self._concurrent

    def decide(self) -> str:
        """Admit, degrade, or shed one request.

        ``admit`` and ``degrade`` enter the gate and *must* be paired
        with :meth:`release`; ``shed`` takes nothing.
        """
        with self._lock:
            if self._concurrent >= self.shed_limit:
                self.shed += 1
                return SHED
            self._concurrent += 1
            if self._concurrent > self.max_observed_concurrent:
                self.max_observed_concurrent = self._concurrent
            if self._inflight >= self.max_inflight:
                self.degraded += 1
                return DEGRADE
            self._inflight += 1
            self.admitted += 1
            return ADMIT

    def release(self, decision: str) -> None:
        """Leave the gate after an ``admit`` or ``degrade`` decision."""
        with self._lock:
            self._concurrent -= 1
            if decision == ADMIT:
                self._inflight -= 1

    def stats(self) -> dict:
        """JSON-safe counters for the ``/metrics`` admission section."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "concurrent": self._concurrent,
                "max_inflight": self.max_inflight,
                "shed_limit": self.shed_limit,
                "admitted": self.admitted,
                "degraded": self.degraded,
                "shed": self.shed,
                "max_observed_concurrent": self.max_observed_concurrent,
            }
