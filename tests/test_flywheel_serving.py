"""Serving-side flywheel satellites: cache invalidation, hot-swap,
and the ``flywheel`` metrics section."""

import json

import pytest

from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.graph import Graph
from repro.serving import (
    SOURCE_MODEL,
    PredictionService,
    ServingConfig,
    cache_key,
)
from repro.serving.cache import PredictionCache
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import model_fingerprint


def make_model(seed: int) -> QAOAParameterPredictor:
    model = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=8, rng=seed)
    model.eval()
    return model


class TestCacheInvalidation:
    def test_invalidate_model_removes_only_matching_prefix(self):
        cache = PredictionCache(max_size=16)
        for graph_hash in ("aaa", "bbb"):
            cache.put(f"old:{graph_hash}", 1)
            cache.put(f"new:{graph_hash}", 2)
        removed = cache.invalidate_model("old")
        assert removed == 2
        assert len(cache) == 2
        assert cache.get("new:aaa") == 2
        assert cache.get("old:aaa") is None

    def test_prefix_match_is_exact_on_model_key(self):
        """'old' must not sweep away 'older:...' entries."""
        cache = PredictionCache(max_size=16)
        cache.put("old:aaa", 1)
        cache.put("older:aaa", 2)
        assert cache.invalidate_model("old") == 1
        assert cache.get("older:aaa") == 2

    def test_swap_evictions_counted_in_stats(self):
        cache = PredictionCache(max_size=16)
        cache.put("fp:one", 1)
        cache.invalidate_model("fp")
        stats = cache.stats()
        assert stats["evictions_swap"] == 1
        assert cache.invalidate_model("fp") == 0  # idempotent


class TestHotSwap:
    @pytest.fixture
    def service(self):
        service = PredictionService(
            model=make_model(1),
            config=ServingConfig(default_p=1, batching=False),
        )
        yield service
        service.close()

    def test_swap_invalidates_old_cache_and_keeps_serving(self, service):
        graph = Graph.cycle(5)
        old_fp = service.registry.get().fingerprint
        first = service.predict(graph)
        assert first.source == SOURCE_MODEL
        assert service.cache.get(cache_key(graph, old_fp)) is not None

        new_model = make_model(2)
        summary = service.swap_model(new_model, version=7)
        assert summary["old_fingerprint"] == old_fp
        assert summary["new_fingerprint"] == model_fingerprint(new_model)
        assert summary["invalidated_cache_entries"] == 1
        assert summary["version"] == 7
        assert service.cache.get(cache_key(graph, old_fp)) is None

        # The new model answers immediately, and its answer differs.
        after = service.predict(graph)
        assert after.source == SOURCE_MODEL
        assert after.cache_key.startswith(summary["new_fingerprint"] + ":")
        assert (after.gammas, after.betas) != (first.gammas, first.betas)

    def test_swap_same_weights_invalidates_nothing(self, service):
        graph = Graph.cycle(4)
        service.predict(graph)
        summary = service.swap_model(make_model(1))  # identical weights
        assert summary["old_fingerprint"] == summary["new_fingerprint"]
        assert summary["invalidated_cache_entries"] == 0
        assert service.predict(graph).cached is True

    def test_swap_replaces_batcher(self):
        service = PredictionService(
            model=make_model(1),
            config=ServingConfig(
                default_p=1, batching=True, max_batch_size=2
            ),
        )
        try:
            first = service.predict(Graph.cycle(5))
            assert first.source == SOURCE_MODEL
            service.swap_model(make_model(2))
            after = service.predict(Graph.cycle(6))
            assert after.source == SOURCE_MODEL
            fingerprint = service.registry.get().fingerprint
            assert after.cache_key.startswith(fingerprint + ":")
        finally:
            service.close()

    def test_swap_metrics_recorded(self, service):
        service.swap_model(make_model(2), version=3)
        service.swap_model(make_model(3))
        flywheel = service.metrics_snapshot()["flywheel"]
        assert flywheel["hot_swaps"] == 2
        # Last promoted version sticks even when a later swap has none.
        assert flywheel["promotion_version"] == 3


class TestMetricsSection:
    def test_snapshot_flywheel_section_json_safe(self):
        service = PredictionService(
            config=ServingConfig(default_p=1, batching=False)
        )
        service.predict(Graph.cycle(4))
        snapshot = service.metrics_snapshot()
        payload = json.loads(json.dumps(snapshot))
        flywheel = payload["flywheel"]
        assert flywheel["replay_logged"] == 0
        assert flywheel["replay_drops"] == 0
        assert flywheel["hot_swaps"] == 0
        assert flywheel["promotion_version"] is None
        assert "replay_log" not in flywheel  # no log attached
        service.close()

    def test_empty_window_percentiles_are_null(self):
        metrics = ServingMetrics()
        percentiles = metrics.latency_percentiles()
        assert percentiles == {
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
            "max_ms": None,
        }
        # And the snapshot stays JSON-serializable (null, not NaN).
        assert "NaN" not in json.dumps(metrics.snapshot())

    def test_replay_stats_embedded_when_log_attached(self, tmp_path):
        from repro.flywheel.replay import ReplayLog

        service = PredictionService(
            config=ServingConfig(default_p=1, batching=False),
            replay_log=ReplayLog(tmp_path / "replay"),
        )
        service.predict(Graph.cycle(4))
        flywheel = service.metrics_snapshot()["flywheel"]
        assert flywheel["replay_logged"] == 1
        assert flywheel["replay_log"]["logged"] == 1
        service.close()
