"""The online prediction service: warm-start angles for any graph.

:class:`PredictionService` is the composition root of the serving
subsystem. A request walks:

1. **Cache** — WL-canonical key under the model fingerprint; a hit
   returns the stored angles (isomorphic copies included).
2. **Model** — if a model is registered and the graph fits its feature
   cap, the request joins the micro-batch queue and is answered by a
   shared forward pass.
3. **Fallback chain** — fixed-angle table, analytic closed form, seeded
   random — when there is no usable model or the model path fails.

Every answer is tagged with its source, cached, and measured. A request
the admission gate degrades (``degraded=True``) skips step 2 on a miss
and is neither cached nor replay-logged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.graph import Graph
from repro.qaoa.fixed_angles import FixedAngleTable
from repro.serving.batcher import BatchingError, MicroBatcher
from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import PredictionCache, cache_key
from repro.serving.fallbacks import SOURCE_MODEL, FallbackChain
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for cache, batching, fallback, and fault tolerance."""

    cache_size: int = 4096
    cache_ttl_s: Optional[float] = None
    max_batch_size: int = 32
    batching: bool = True
    #: Deadline for the model path of one request (micro-batch queueing
    #: included); past it the request degrades to the fallback chain and
    #: the breaker records a failure.
    request_timeout_s: float = 30.0
    default_p: int = 1  # fallback depth when no model is registered
    #: In-request retries of the model path before falling back.
    model_retries: int = 0
    #: Consecutive model failures that trip the circuit breaker.
    breaker_threshold: int = 5
    #: Seconds a tripped breaker waits before a half-open probe.
    breaker_reset_s: float = 30.0


@dataclass(frozen=True)
class PredictionResult:
    """One answered request."""

    gammas: Tuple[float, ...]
    betas: Tuple[float, ...]
    p: int
    source: str
    cached: bool
    latency_s: float
    cache_key: str = field(repr=False, default="")
    #: Answered off the fallback chain because the admission gate
    #: degraded the request (see :mod:`repro.serving.admission`).
    degraded: bool = False

    def to_dict(self) -> dict:
        """JSON-safe response payload."""
        payload = {
            "gammas": list(self.gammas),
            "betas": list(self.betas),
            "p": self.p,
            "source": self.source,
            "cached": self.cached,
            "latency_ms": self.latency_s * 1e3,
        }
        if self.degraded:
            payload["degraded"] = True
        return payload


class PredictionService:
    """Registry + cache + micro-batcher + fallbacks behind one call.

    Construct with either a bare ``model`` (registered as ``"default"``)
    or a pre-populated :class:`ModelRegistry`; with neither, every
    request is served by the fallback chain at ``config.default_p``.
    """

    def __init__(
        self,
        model: Optional[QAOAParameterPredictor] = None,
        registry: Optional[ModelRegistry] = None,
        config: Optional[ServingConfig] = None,
        fixed_angle_table: Optional[FixedAngleTable] = None,
        clock: Optional[Callable[[], float]] = None,
        replay_log=None,
    ):
        self.config = config if config is not None else ServingConfig()
        self.registry = registry if registry is not None else ModelRegistry()
        if model is not None:
            self.registry.register("default", model)
        self.cache = PredictionCache(
            max_size=self.config.cache_size, ttl_s=self.config.cache_ttl_s
        )
        self.metrics = ServingMetrics()
        #: Optional flywheel sink (duck-typed to
        #: :class:`repro.flywheel.replay.ReplayLog`): every answered
        #: request is offered to ``replay_log.log_prediction``.
        self.replay_log = replay_log
        #: name -> (model fingerprint, batcher). The fingerprint pins a
        #: batcher to the exact model it wraps, so a hot-swapped entry
        #: can never be served by a stale queue.
        self._batchers: Dict[str, Tuple[str, MicroBatcher]] = {}
        self._batcher_lock = threading.Lock()
        self._fallbacks: Dict[int, FallbackChain] = {}
        self._fixed_angle_table = fixed_angle_table
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._breaker_clock = clock
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop every micro-batcher; release the replay log."""
        self._closed = True
        with self._batcher_lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for _, batcher in batchers:
            batcher.close()
        if self.replay_log is not None:
            self.replay_log.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        graph: Graph,
        model_name: Optional[str] = None,
        degraded: bool = False,
    ) -> PredictionResult:
        """Warm-start ``(gammas, betas)`` for ``graph``, from the best
        available source.

        ``degraded`` is set by the admission gate when the model path is
        saturated: a cache hit is answered as usual, a miss straight
        from the fallback chain. That answer is tagged ``degraded``, is
        not cached (a later admitted request for the same class still
        reaches the model), and is not replay-logged (it says nothing
        about what the model cannot serve).

        Never raises for a structurally valid graph: every model-path
        failure — unknown model name, forward-pass exception, micro-batch
        timeout, tripped circuit breaker — degrades to the classical
        fallback chain, which always answers. The only exceptions that
        escape are for graphs the *fallback chain itself* cannot serve
        (i.e. malformed input), and those are counted in
        ``metrics.errors``.
        """
        start = time.perf_counter()
        try:
            result = self._predict_inner(graph, model_name, start, degraded)
        except Exception:
            self.metrics.record_error()
            raise
        self.metrics.record_request(result.latency_s, result.source, result.cached)
        if self.replay_log is not None and not result.degraded:
            try:
                outcome = self.replay_log.log_prediction(graph, result)
            except Exception as exc:  # noqa: BLE001 — log must not break serving
                logger.warning("replay logging failed (%s); dropped", exc)
                self.metrics.record_replay_drop()
            else:
                if outcome is True:
                    self.metrics.record_replay_logged()
                elif outcome is False:
                    self.metrics.record_replay_drop()
        return result

    def _predict_inner(
        self,
        graph: Graph,
        model_name: Optional[str],
        start: float,
        degraded: bool,
    ) -> PredictionResult:
        entry = None
        try:
            entry = self._entry(model_name)
        except Exception as exc:  # noqa: BLE001 — degrade, never raise
            logger.warning(
                "model lookup %r failed (%s); serving from the fallback "
                "chain",
                model_name,
                exc,
            )
        p = entry.model.p if entry is not None else self.config.default_p
        key = cache_key(
            graph,
            entry.fingerprint if entry is not None else f"fallback-p{p}",
        )
        hit = self.cache.get(key)
        if hit is not None:
            gammas, betas, source = hit
            return PredictionResult(
                gammas, betas, p, source, True,
                time.perf_counter() - start, key,
            )
        if degraded:
            fallback = self._fallback_chain(p).resolve(graph)
            return PredictionResult(
                fallback.gammas, fallback.betas, p, fallback.source, False,
                time.perf_counter() - start, key, degraded=True,
            )

        gammas = betas = None
        source = None
        if entry is not None and self._model_supports(entry, graph):
            row = self._guarded_model_row(entry, graph)
            if row is not None:
                gammas = tuple(float(g) for g in row[:p])
                betas = tuple(float(b) for b in row[p:])
                source = SOURCE_MODEL
        if source is None:
            fallback = self._fallback_chain(p).resolve(graph)
            gammas, betas, source = (
                fallback.gammas, fallback.betas, fallback.source,
            )
        self.cache.put(key, (gammas, betas, source))
        return PredictionResult(
            gammas, betas, p, source, False,
            time.perf_counter() - start, key,
        )

    def _guarded_model_row(
        self, entry: RegisteredModel, graph: Graph
    ) -> Optional[np.ndarray]:
        """The model forward, wrapped in breaker + retries + deadline.

        Returns ``None`` whenever the model cannot answer — breaker
        open, every attempt failed or timed out — so the caller walks
        the fallback chain instead of raising.
        """
        breaker = self._breaker(entry.name)
        if not breaker.allow():
            self.metrics.record_breaker_rejection()
            return None
        attempts = 1 + max(0, int(self.config.model_retries))
        for attempt in range(1, attempts + 1):
            try:
                row = self._model_row(entry, graph)
            except Exception as exc:  # noqa: BLE001 — degrade, never raise
                timed_out = isinstance(exc, BatchingError) and "timed out" in str(exc)
                self.metrics.record_model_failure(timed_out=timed_out)
                if breaker.record_failure():
                    self.metrics.record_breaker_trip()
                    logger.warning(
                        "circuit breaker for model %r tripped after %d "
                        "consecutive failures; serving fallbacks for %.1fs",
                        entry.name,
                        breaker.failure_threshold,
                        breaker.reset_timeout_s,
                    )
                    return None
                if attempt < attempts and breaker.allow():
                    self.metrics.record_model_retry()
                    continue
                logger.warning(
                    "model path failed for graph n=%d (%s); falling back",
                    graph.num_nodes,
                    exc,
                )
                return None
            breaker.record_success()
            return row
        return None

    def swap_model(
        self,
        model: QAOAParameterPredictor,
        name: str = "default",
        source: str = "<hot-swap>",
        version: Optional[int] = None,
    ) -> dict:
        """Replace the model serving under ``name`` without a restart.

        The swap is atomic at the registry level — every request sees
        either the old entry or the new one. Afterwards the old model
        cannot answer again: its micro-batcher is drained and closed,
        its circuit-breaker state is discarded, and every cache entry
        keyed under its fingerprint is invalidated (a swapped model must
        never serve a stale cached prediction).

        Returns a JSON-safe summary of what changed.
        """
        old = self.registry.get(name) if name in self.registry else None
        entry = self.registry.register(name, model, source=source)
        stale = None
        with self._batcher_lock:
            current = self._batchers.get(name)
            if current is not None and current[0] != entry.fingerprint:
                stale = self._batchers.pop(name)[1]
        if stale is not None:
            stale.close()
        with self._breaker_lock:
            self._breakers.pop(name, None)
        invalidated = 0
        if old is not None and old.fingerprint != entry.fingerprint:
            invalidated = self.cache.invalidate_model(old.fingerprint)
        self.metrics.record_hot_swap()
        if version is not None:
            self.metrics.set_promotion_version(version)
        logger.info(
            "hot-swapped model %r: %s -> %s (%d cache entries invalidated)",
            name,
            old.fingerprint if old is not None else "<none>",
            entry.fingerprint,
            invalidated,
        )
        return {
            "name": name,
            "old_fingerprint": old.fingerprint if old is not None else None,
            "new_fingerprint": entry.fingerprint,
            "invalidated_cache_entries": invalidated,
            "version": version,
        }

    def predict_angles(
        self, graph: Graph, model_name: Optional[str] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array convenience mirroring the predictor's interface."""
        result = self.predict(graph, model_name)
        return np.asarray(result.gammas), np.asarray(result.betas)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entry(self, model_name: Optional[str]) -> Optional[RegisteredModel]:
        if model_name is None and len(self.registry) == 0:
            return None
        return self.registry.get(model_name)

    @staticmethod
    def _model_supports(entry: RegisteredModel, graph: Graph) -> bool:
        """Inside the model's size capability (beyond it falls back).

        ``max_nodes`` is None for size-agnostic feature kinds — those
        models serve graphs of any size. Gating on ``in_dim`` here used
        to conflate feature width with graph size and sent every graph
        larger than the feature dimension to the fallback chain.
        """
        cap = entry.model.max_nodes
        return cap is None or graph.num_nodes <= cap

    def _model_row(self, entry: RegisteredModel, graph: Graph) -> np.ndarray:
        if not self.config.batching:
            return entry.model.predict([graph])[0]
        stale = None
        with self._batcher_lock:
            current = self._batchers.get(entry.name)
            if current is None or current[0] != entry.fingerprint:
                # First request for this (name, model) pair — or the
                # model under this name was hot-swapped and the cached
                # batcher still wraps the predecessor's forward pass.
                stale = current[1] if current is not None else None
                batcher = MicroBatcher(
                    entry.model.predict,
                    max_batch_size=self.config.max_batch_size,
                )
                self._batchers[entry.name] = (entry.fingerprint, batcher)
            else:
                batcher = current[1]
        if stale is not None:
            stale.close()
        return batcher.predict(graph, timeout=self.config.request_timeout_s)

    def _fallback_chain(self, p: int) -> FallbackChain:
        chain = self._fallbacks.get(p)
        if chain is None:
            chain = FallbackChain(p, table=self._fixed_angle_table)
            self._fallbacks[p] = chain
        return chain

    def _breaker(self, model_name: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(model_name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_threshold,
                    reset_timeout_s=self.config.breaker_reset_s,
                    clock=self._breaker_clock,
                )
                self._breakers[model_name] = breaker
            return breaker

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self, admission: Optional[dict] = None) -> dict:
        """Aggregate service metrics (the /metrics payload).

        ``admission`` is the HTTP gate's counter snapshot, embedded as
        the ``admission`` section.
        """
        with self._batcher_lock:
            batcher_stats = {
                name: batcher.stats()
                for name, (_, batcher) in self._batchers.items()
            }
        with self._breaker_lock:
            breaker_stats = {
                name: breaker.snapshot()
                for name, breaker in self._breakers.items()
            }
        return self.metrics.snapshot(
            cache_stats=self.cache.stats(),
            batcher_stats=batcher_stats or None,
            models=self.registry.describe(),
            breakers=breaker_stats or None,
            replay_stats=(
                self.replay_log.stats()
                if self.replay_log is not None
                else None
            ),
            admission=admission,
        )

    def describe(self) -> dict:
        """Health payload: models plus the live config."""
        return {
            "status": "ok",
            "models": self.registry.describe(),
            "config": {
                "cache_size": self.config.cache_size,
                "cache_ttl_s": self.config.cache_ttl_s,
                "max_batch_size": self.config.max_batch_size,
                "batching": self.config.batching,
                "default_p": self.config.default_p,
                "request_timeout_s": self.config.request_timeout_s,
                "model_retries": self.config.model_retries,
                "breaker_threshold": self.config.breaker_threshold,
                "breaker_reset_s": self.config.breaker_reset_s,
            },
        }
