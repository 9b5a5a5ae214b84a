"""Tests for the online serving subsystem (`repro.serving`)."""

import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.generators import random_connected_graph, random_regular_graph
from repro.graphs.graph import Graph
from repro.serving import (
    CHECKPOINT_FORMAT_VERSION,
    FALLBACK_ORDER,
    SOURCE_ANALYTIC,
    SOURCE_FIXED_ANGLE,
    SOURCE_MODEL,
    SOURCE_RANDOM,
    BatchingError,
    CacheError,
    FallbackChain,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    PredictionService,
    ServingConfig,
    build_checkpoint_state,
    cache_key,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def model():
    """A small deterministic predictor (untrained weights are fine)."""
    predictor = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=7)
    predictor.eval()
    return predictor


def relabel(graph: Graph, perm) -> Graph:
    edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
    return Graph.from_edges(graph.num_nodes, edges, graph.weights)


class HeldForward:
    """A forward pass whose first call waits until ``total`` graphs are
    in: the ones it was handed plus ``queued()`` still in the queue.

    Every submission then lands while the first forward runs, so the
    greedy batcher hands all the rest to the second forward: coalescing
    is deterministic instead of racing a wait window.
    """

    def __init__(self, forward, total, queued):
        self.forward = forward
        self.total = total
        self.queued = queued
        self.first = True

    def __call__(self, graphs):
        if self.first:
            self.first = False
            deadline = time.monotonic() + 10.0
            while len(graphs) + self.queued() < self.total:
                if time.monotonic() > deadline:
                    raise AssertionError("submissions never queued")
                time.sleep(0.001)
        return self.forward(graphs)


def run_threads(target, items) -> None:
    threads = [threading.Thread(target=target, args=(item,)) for item in items]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)


# ----------------------------------------------------------------------
# Registry + checkpoints
# ----------------------------------------------------------------------
class TestCheckpoints:
    def test_save_load_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(model, path, final_loss=0.5)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert loaded.p == model.p
        assert not loaded.training
        graph = random_regular_graph(8, 3, rng=0)
        np.testing.assert_array_equal(
            model.predict([graph]), loaded.predict([graph])
        )

    def test_checkpoint_carries_format_version(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        state = json.loads(path.read_text())
        assert state["format_version"] == CHECKPOINT_FORMAT_VERSION

    def test_missing_file_raises_model_error(self, tmp_path):
        with pytest.raises(ModelError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.json")

    def test_truncated_json_raises_model_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"arch": "gin", "p"')
        with pytest.raises(ModelError, match="not valid JSON"):
            load_checkpoint(path)

    def test_pre_versioning_checkpoint_gets_hint(self, model, tmp_path):
        state = build_checkpoint_state(model)
        del state["format_version"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ModelError, match="pre-versioning"):
            load_checkpoint(path)

    def test_future_format_version_rejected(self, model, tmp_path):
        state = build_checkpoint_state(model)
        state["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ModelError, match="format_version"):
            load_checkpoint(path)

    def test_unknown_arch_rejected(self, model, tmp_path):
        state = build_checkpoint_state(model)
        state["arch"] = "transformer"
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ModelError, match="transformer"):
            load_checkpoint(path)

    def test_wrong_shape_rejected_as_model_error(self, model, tmp_path):
        state = build_checkpoint_state(model)
        first = next(iter(state["state"]))
        state["state"][first] = [[0.0, 1.0]]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ModelError, match=str(path)):
            load_checkpoint(path)

    def test_missing_keys_never_surface_keyerror(self, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(ModelError, match="missing checkpoint keys"):
            load_checkpoint(path)


class TestRegistry:
    def test_first_registered_is_default(self, model):
        registry = ModelRegistry()
        registry.register("a", model)
        registry.register("b", model)
        assert registry.get().name == "a"
        assert registry.get("b").name == "b"
        assert registry.names() == ["a", "b"]

    def test_empty_registry_raises(self):
        with pytest.raises(ModelError, match="empty"):
            ModelRegistry().get()

    def test_unknown_name_lists_registered(self, model):
        registry = ModelRegistry()
        registry.register("a", model)
        with pytest.raises(ModelError, match="'a'"):
            registry.get("missing")

    def test_load_registers_with_source(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        registry = ModelRegistry()
        entry = registry.load("served", path)
        assert entry.source == str(path)
        assert "served" in registry
        assert registry.describe()[0]["fingerprint"] == entry.fingerprint

    def test_fingerprint_tracks_weights(self, model):
        before = model_fingerprint(model)
        other = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=8)
        assert before == model_fingerprint(model)
        assert before != model_fingerprint(other)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_isomorphic_graphs_share_key(self, rng):
        graph = random_connected_graph(9, rng=3)
        permuted = relabel(graph, rng.permutation(9))
        assert cache_key(graph, "m") == cache_key(permuted, "m")

    def test_model_key_separates_entries(self, triangle):
        assert cache_key(triangle, "a") != cache_key(triangle, "b")

    def test_lru_eviction(self):
        cache = PredictionCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now LRU
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.evictions_lru == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = PredictionCache(max_size=8, ttl_s=10.0, clock=lambda: now[0])
        cache.put("k", "v")
        now[0] = 5.0
        assert cache.get("k") == "v"
        now[0] = 11.0
        assert cache.get("k") is None
        assert cache.evictions_ttl == 1

    def test_purge_expired(self):
        now = [0.0]
        cache = PredictionCache(max_size=8, ttl_s=1.0, clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        now[0] = 2.0
        assert cache.purge_expired() == 2
        assert len(cache) == 0

    def test_stats_and_hit_rate(self):
        cache = PredictionCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_invalid_config_rejected(self):
        with pytest.raises(CacheError):
            PredictionCache(max_size=0)
        with pytest.raises(CacheError):
            PredictionCache(ttl_s=-1.0)


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_single_request_answered(self, model, triangle):
        with MicroBatcher(model.predict) as batcher:
            row = batcher.predict(triangle)
        assert row.shape == (2 * model.p,)

    def test_batched_bit_identical_to_single(self, model, rng):
        """The acceptance criterion: coalescing never changes a result."""
        graphs = [
            random_connected_graph(
                int(rng.integers(5, 12)), rng=int(rng.integers(0, 2**31))
            )
            for _ in range(12)
        ]
        singles = [model.predict([g])[0] for g in graphs]
        results = [None] * len(graphs)
        held = HeldForward(
            model.predict, len(graphs), lambda: batcher.stats()["queued"]
        )
        with MicroBatcher(held) as batcher:
            def worker(i):
                results[i] = batcher.predict(graphs[i])
            run_threads(worker, range(len(graphs)))
            stats = batcher.stats()
        # Whatever the first forward took, the rest came in one batch.
        assert stats["batches"] <= 2
        assert stats["max_occupancy"] >= len(graphs) // 2
        for single, batched in zip(singles, results):
            np.testing.assert_array_equal(single, batched)

    def test_forward_error_fans_out(self, triangle):
        def broken(graphs):
            raise BatchingError("boom")

        with MicroBatcher(broken) as batcher:
            pending = batcher.submit(triangle)
            with pytest.raises(BatchingError, match="boom"):
                pending.result(timeout=5.0)

    def test_row_count_mismatch_detected(self, triangle):
        with MicroBatcher(
            lambda graphs: np.zeros((len(graphs) + 1, 2))
        ) as batcher:
            with pytest.raises(BatchingError, match="rows"):
                batcher.predict(triangle, timeout=5.0)

    def test_closed_batcher_rejects_work(self, model, triangle):
        batcher = MicroBatcher(model.predict)
        batcher.close()
        with pytest.raises(BatchingError, match="closed"):
            batcher.submit(triangle)

    def test_invalid_config_rejected(self, model):
        with pytest.raises(BatchingError):
            MicroBatcher(model.predict, max_batch_size=0)


# ----------------------------------------------------------------------
# Fallback chain
# ----------------------------------------------------------------------
class TestFallbackChain:
    def test_order_constant(self):
        assert FALLBACK_ORDER == (
            SOURCE_FIXED_ANGLE, SOURCE_ANALYTIC, SOURCE_RANDOM,
        )

    def test_regular_covered_degree_uses_fixed_angles(self, petersen_like):
        result = FallbackChain(p=1).resolve(petersen_like)
        assert result.source == SOURCE_FIXED_ANGLE
        assert len(result.gammas) == len(result.betas) == 1

    def test_irregular_graph_skips_to_analytic(self):
        chain = FallbackChain(p=1)
        star = Graph.star(6)  # irregular: no fixed-angle entry
        assert chain.try_fixed_angle(star) is None
        result = chain.resolve(star)
        assert result.source == SOURCE_ANALYTIC

    def test_uncovered_degree_skips_to_analytic(self):
        cycle = Graph.cycle(20)  # 2-regular: below the table's range
        result = FallbackChain(p=1).resolve(cycle)
        assert result.source == SOURCE_ANALYTIC

    def test_edgeless_graph_lands_on_random(self):
        lonely = Graph(4, ())
        chain = FallbackChain(p=1)
        assert chain.try_analytic(lonely) is None
        result = chain.resolve(lonely)
        assert result.source == SOURCE_RANDOM
        assert len(result.gammas) == 1

    def test_random_rung_reproducible_per_iso_class(self, rng):
        graph = random_connected_graph(8, rng=5)
        permuted = relabel(graph, rng.permutation(8))
        chain = FallbackChain(p=2)
        assert chain.random(graph) == chain.random(permuted)

    def test_deep_p_uses_linear_ramp(self):
        result = FallbackChain(p=3).resolve(Graph.star(6))
        assert result.source == SOURCE_ANALYTIC
        assert len(result.gammas) == 3
        # annealing-style ramp: gammas rise, betas fall
        assert result.gammas[0] < result.gammas[-1]
        assert result.betas[0] > result.betas[-1]

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain(p=0)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class TestPredictionService:
    def test_isomorphic_copy_is_cache_hit(self, model, rng):
        graph = random_connected_graph(9, rng=11)
        permuted = relabel(graph, rng.permutation(9))
        with PredictionService(model=model) as service:
            first = service.predict(graph)
            second = service.predict(permuted)
        assert first.source == SOURCE_MODEL
        assert not first.cached
        assert second.cached
        assert second.gammas == first.gammas
        assert second.betas == first.betas
        assert service.cache.hits == 1

    def test_batched_service_matches_direct_predict(self, model, rng):
        graph = random_connected_graph(10, rng=13)
        direct = model.predict([graph])[0]
        with PredictionService(model=model) as service:
            result = service.predict(graph)
        np.testing.assert_array_equal(
            np.concatenate([result.gammas, result.betas]), direct
        )

    def test_unbatched_config_matches_batched(self, model, rng):
        graph = random_connected_graph(10, rng=17)
        with PredictionService(model=model) as batched:
            a = batched.predict(graph)
        with PredictionService(
            model=model, config=ServingConfig(batching=False)
        ) as unbatched:
            b = unbatched.predict(graph)
        assert a.gammas == b.gammas
        assert a.betas == b.betas

    def test_oversized_graph_falls_back_without_error(self, model):
        too_big = Graph.cycle(model.in_dim + 5)
        with PredictionService(model=model) as service:
            result = service.predict(too_big)
        assert result.source in FALLBACK_ORDER

    def test_no_model_serves_fallbacks(self, petersen_like):
        with PredictionService(config=ServingConfig(default_p=1)) as service:
            result = service.predict(petersen_like)
        assert result.source == SOURCE_FIXED_ANGLE

    def test_model_failure_degrades_gracefully(self, model, monkeypatch):
        graph = random_regular_graph(8, 3, rng=2)

        def explode(graphs):
            raise ModelError("synthetic failure")

        monkeypatch.setattr(model, "predict", explode)
        with PredictionService(
            model=model, config=ServingConfig(batching=False)
        ) as service:
            result = service.predict(graph)
        assert result.source == SOURCE_FIXED_ANGLE

    def test_metrics_snapshot_shape(self, model, triangle):
        with PredictionService(model=model) as service:
            service.predict(triangle)
            service.predict(triangle)
            snapshot = service.metrics_snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["cache_hits"] == 1
        assert snapshot["sources"] == {SOURCE_MODEL: 2}
        assert snapshot["fallback_requests"] == 0
        assert snapshot["cache"]["hit_rate"] == 0.5
        latency = snapshot["latency"]
        assert (
            latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]
            <= latency["max_ms"]
        )
        assert snapshot["models"][0]["arch"] == "gin"

    def test_retrained_model_invalidates_cache(self, triangle):
        a = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=1)
        b = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=2)
        a.eval()
        b.eval()
        with PredictionService(model=a) as service_a:
            first = service_a.predict(triangle)
        with PredictionService(model=b) as service_b:
            second = service_b.predict(triangle)
        assert first.cache_key != second.cache_key

    def test_concurrent_requests_coalesce(self, model, rng, monkeypatch):
        graphs = [
            random_connected_graph(
                int(rng.integers(5, 12)), rng=int(rng.integers(0, 2**31))
            )
            for _ in range(8)
        ]
        with PredictionService(model=model) as service:
            monkeypatch.setattr(model, "predict", HeldForward(
                model.predict, len(graphs),
                lambda: service.metrics_snapshot()["batcher"]["default"][
                    "queued"
                ],
            ))
            run_threads(service.predict, graphs)
            snapshot = service.metrics_snapshot()
        assert snapshot["requests"] == 8
        assert snapshot["sources"] == {SOURCE_MODEL: 8}
        batcher = snapshot["batcher"]["default"]
        assert batcher["batches"] <= 2
        assert batcher["max_occupancy"] >= 4
