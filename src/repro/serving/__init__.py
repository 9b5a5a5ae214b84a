"""Online serving: registry, cache, micro-batching, fallbacks, HTTP.

Turns trained predictors into a prediction service: load checkpoints
through :class:`ModelRegistry`, answer requests through
:class:`PredictionService` (WL-canonical cache -> micro-batched model
forward -> classical fallback chain), and expose it over HTTP with
:class:`ServingHTTPServer`, whose :class:`AdmissionController` admits,
degrades or sheds each request. See DESIGN.md ("Serving subsystem") for
the architecture and guarantees.
"""

from repro.serving.admission import AdmissionController
from repro.serving.batcher import BatchingError, MicroBatcher, PendingPrediction
from repro.serving.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.serving.cache import (
    CacheError,
    PredictionCache,
    cache_key,
)
from repro.serving.fallbacks import (
    FALLBACK_ORDER,
    SOURCE_ANALYTIC,
    SOURCE_FIXED_ANGLE,
    SOURCE_MODEL,
    SOURCE_RANDOM,
    FallbackChain,
    FallbackResult,
)
from repro.serving.http import ServingHTTPServer, graph_from_payload
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import (
    CHECKPOINT_FORMAT_VERSION,
    ModelRegistry,
    RegisteredModel,
    build_checkpoint_state,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
    validate_checkpoint_state,
)
from repro.serving.service import (
    PredictionResult,
    PredictionService,
    ServingConfig,
)

__all__ = [
    "AdmissionController",
    "BatchingError",
    "MicroBatcher",
    "PendingPrediction",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "CircuitBreaker",
    "CacheError",
    "PredictionCache",
    "cache_key",
    "FALLBACK_ORDER",
    "SOURCE_ANALYTIC",
    "SOURCE_FIXED_ANGLE",
    "SOURCE_MODEL",
    "SOURCE_RANDOM",
    "FallbackChain",
    "FallbackResult",
    "ServingHTTPServer",
    "graph_from_payload",
    "ServingMetrics",
    "CHECKPOINT_FORMAT_VERSION",
    "ModelRegistry",
    "RegisteredModel",
    "build_checkpoint_state",
    "load_checkpoint",
    "model_fingerprint",
    "save_checkpoint",
    "validate_checkpoint_state",
    "PredictionResult",
    "PredictionService",
    "ServingConfig",
]
