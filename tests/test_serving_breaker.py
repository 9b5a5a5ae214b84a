"""Tests for the serving circuit breaker and model-path degradation.

Unit tests drive :class:`CircuitBreaker` through its state machine with
a fake clock; integration tests verify :class:`PredictionService` never
raises when the model path fails — it degrades to the fallback chain,
counts every failure mode in the metrics, and recovers through a
half-open probe.
"""

import numpy as np
import pytest

from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.generators import random_regular_graph
from repro.serving import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    PredictionService,
    ServingConfig,
)
from repro.serving.fallbacks import SOURCE_MODEL


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)

    def test_trips_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third failure trips
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_after_reset_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock.advance(9.9)
        assert breaker.state == STATE_OPEN
        clock.advance(0.2)
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()  # wins the probe slot
        assert not breaker.allow()  # everyone else waits

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_counts_a_trip(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, reset_timeout_s=1.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        assert breaker.trips == 1
        clock.advance(2.0)
        assert breaker.allow()
        assert breaker.record_failure()  # failed probe trips again
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        # The window restarts from the failed probe.
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.allow()

    def test_snapshot_is_json_safe(self):
        import json

        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        snapshot = breaker.snapshot()
        json.dumps(snapshot)
        assert snapshot["state"] == STATE_CLOSED
        assert snapshot["consecutive_failures"] == 1
        assert snapshot["trips"] == 0


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
@pytest.fixture
def graphs():
    return [random_regular_graph(n, 2, rng=n) for n in range(4, 12)]


def make_service(clock=None, **config_kwargs):
    model = QAOAParameterPredictor(arch="gcn", p=1, hidden_dim=8, rng=0)
    model.eval()
    defaults = dict(batching=False, breaker_threshold=2, breaker_reset_s=30.0)
    defaults.update(config_kwargs)
    return PredictionService(
        model=model, config=ServingConfig(**defaults), clock=clock
    )


class TestServiceDegradation:
    def test_failing_model_degrades_instead_of_raising(self, graphs):
        service = make_service()
        entry = service.registry.get("default")
        entry.model.predict = lambda batch: (_ for _ in ()).throw(
            RuntimeError("forward pass exploded")
        )
        result = service.predict(graphs[0])
        assert result.source != SOURCE_MODEL
        assert len(result.gammas) == 1
        assert service.metrics.model_failures == 1
        assert service.metrics.errors == 0

    def test_breaker_trips_then_rejects_the_model_path(self, graphs):
        service = make_service()
        entry = service.registry.get("default")
        calls = []

        def failing(batch):
            calls.append(len(batch))
            raise RuntimeError("down")

        entry.model.predict = failing
        for graph in graphs[:2]:  # threshold=2: second failure trips
            service.predict(graph)
        assert service.metrics.breaker_trips == 1
        assert len(calls) == 2
        # Breaker open: the model is never consulted, requests still
        # answer from the fallback chain.
        for graph in graphs[2:5]:
            result = service.predict(graph)
            assert result.source != SOURCE_MODEL
        assert len(calls) == 2
        assert service.metrics.breaker_rejections == 3

    def test_half_open_probe_recovers_the_model_path(self, graphs):
        clock = FakeClock()
        service = make_service(clock=clock, breaker_reset_s=10.0)
        entry = service.registry.get("default")
        healthy_predict = entry.model.predict

        def failing(batch):
            raise RuntimeError("down")

        entry.model.predict = failing
        for graph in graphs[:2]:
            service.predict(graph)
        assert service.metrics.breaker_trips == 1
        entry.model.predict = healthy_predict
        clock.advance(11.0)
        result = service.predict(graphs[5])
        assert result.source == SOURCE_MODEL
        assert service._breaker("default").state == STATE_CLOSED

    def test_model_retries_rescue_transient_failures(self, graphs):
        service = make_service(model_retries=2, breaker_threshold=10)
        entry = service.registry.get("default")
        healthy_predict = entry.model.predict
        calls = []

        def flaky(batch):
            calls.append(len(batch))
            if len(calls) <= 2:
                raise RuntimeError("transient")
            return healthy_predict(batch)

        entry.model.predict = flaky
        result = service.predict(graphs[0])
        assert result.source == SOURCE_MODEL
        assert len(calls) == 3
        assert service.metrics.model_retries == 2
        assert service.metrics.model_failures == 2

    def test_unknown_model_name_degrades(self, graphs):
        service = make_service()
        result = service.predict(graphs[0], model_name="not-registered")
        assert result.source != SOURCE_MODEL
        assert service.metrics.errors == 0

    def test_batch_timeout_counts_as_timeout(self, graphs):
        import time as _time

        service = make_service(
            batching=True,
            request_timeout_s=0.05,
            breaker_threshold=1,
        )
        entry = service.registry.get("default")

        def glacial(batch):
            _time.sleep(0.5)
            raise RuntimeError("unreachable in time")

        entry.model.predict = glacial
        try:
            result = service.predict(graphs[0])
        finally:
            service.close()
        assert result.source != SOURCE_MODEL
        assert service.metrics.timeouts == 1
        assert service.metrics.breaker_trips == 1

    def test_metrics_snapshot_reports_breakers(self, graphs):
        service = make_service()
        entry = service.registry.get("default")
        entry.model.predict = lambda batch: (_ for _ in ()).throw(
            RuntimeError("down")
        )
        for graph in graphs[:2]:
            service.predict(graph)
        snapshot = service.metrics_snapshot()
        assert snapshot["fault_tolerance"]["model_failures"] == 2
        assert snapshot["fault_tolerance"]["breaker_trips"] == 1
        assert snapshot["breakers"]["default"]["state"] == STATE_OPEN

    def test_describe_reports_fault_config(self):
        service = make_service()
        config = service.describe()["config"]
        assert config["breaker_threshold"] == 2
        assert config["model_retries"] == 0
        assert "breaker_reset_s" in config
        assert "request_timeout_s" in config
