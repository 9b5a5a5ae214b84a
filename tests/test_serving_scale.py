"""End-to-end tests for the multi-process scale serving stack.

Covers the PR's headline contracts: shard routing partitions the
WL-hash space, N forked workers over shared weights answer
bit-identically to the single-process service, hot-swap drains every
worker, snapshots warm a fresh pool, and the admission gate sheds with
503 + Retry-After instead of hanging.
"""

import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import numpy as np
import pytest

from repro.flywheel import ReplayLog
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.canonical import wl_canonical_hash
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import (
    PredictionService,
    ScaleConfig,
    ScaleServingServer,
    ServingConfig,
    WorkerPool,
    shard_index,
)
from repro.serving.scale import graph_request_bodies, run_load
from repro.serving.scale.pool import WorkerError, _WorkerHandle
from repro.serving.scale.shared import SharedWeights

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def make_model(rng=42, p=2):
    model = QAOAParameterPredictor(arch="gcn", p=p, hidden_dim=16, rng=rng)
    model.eval()
    return model


def graphs_for_test(count=8, nodes=8):
    return [erdos_renyi_graph(nodes, 0.5, rng=100 + i) for i in range(count)]


def post_predict(port, graph, timeout=15):
    body = json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [list(e) for e in graph.edges]}
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def get(port, route, timeout=15):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{route}", timeout=timeout
    ) as response:
        return response.status, json.load(response)


@pytest.fixture(scope="module")
def model():
    return make_model()


@pytest.fixture(scope="module")
def server(model):
    config = ScaleConfig(workers=2, max_inflight=32)
    pool = WorkerPool(
        model=model,
        serving_config=ServingConfig(),
        scale_config=config,
    )
    running = ScaleServingServer(
        pool, model=model, port=0, scale_config=config
    )
    running.start_background()
    yield running
    running.close()


@pytest.fixture(scope="module")
def reference(model):
    service = PredictionService(model=model, config=ServingConfig())
    yield service
    service.close()


class TestBitIdentical:
    def test_multi_worker_matches_single_process(self, server, reference):
        for graph in graphs_for_test():
            status, payload, _ = post_predict(server.port, graph)
            assert status == 200
            expected = reference.predict(graph)
            assert tuple(payload["gammas"]) == expected.gammas
            assert tuple(payload["betas"]) == expected.betas
            assert payload["source"] == expected.source

    def test_both_workers_serve(self, server):
        shards = set()
        for graph in graphs_for_test(count=16):
            _, payload, _ = post_predict(server.port, graph)
            if "shard" in payload:
                shards.add(payload["shard"])
        assert shards == {0, 1}


class TestShardRouting:
    def test_response_shard_matches_wl_routing(self, server):
        for graph in graphs_for_test():
            wl_hash = wl_canonical_hash(graph)
            _, payload, _ = post_predict(server.port, graph)
            if "shard" in payload:  # L1 hits carry no shard tag
                assert payload["shard"] == shard_index(wl_hash, 2)

    def test_worker_caches_partition_the_hash_space(self, server):
        # Every cached entry must live on the shard its WL hash routes
        # to: keys are "<fingerprint>:<wl_hash>" and the owning shard
        # is shard_index(wl_hash, n). Drive traffic, then audit every
        # worker's cache via the snapshot protocol.
        for graph in graphs_for_test(count=12):
            post_predict(server.port, graph)
        per_shard = server.pool._broadcast("snapshot", timeout=15)
        total = 0
        for shard, entries in per_shard.items():
            for key, _value, _age in entries:
                wl_hash = str(key).rpartition(":")[2]
                assert shard_index(wl_hash, 2) == shard
                total += 1
        assert total > 0


class TestHealthAndMetrics:
    def test_healthz_reports_all_workers(self, server):
        status, payload = get(server.port, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["mode"] == "scale"
        assert sorted(w["shard"] for w in payload["workers"]) == [0, 1]
        assert all(w["alive"] for w in payload["workers"])

    def test_metrics_embed_admission_and_worker_sections(self, server):
        post_predict(server.port, graphs_for_test()[0])
        status, payload = get(server.port, "/metrics")
        assert status == 200
        assert payload["admission"]["admitted"] >= 1
        assert set(payload["workers"]) == {"0", "1"}
        assert "worker_breakers" in payload["admission"]

    def test_bad_payload_is_400(self, server):
        for headers in (
            {"Content-Type": "application/json"},
            {"Content-Type": "application/json", "Content-Length": "abc"},
        ):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/predict",
                data=b"not json",
                headers=headers,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_keepalive_predicts_do_not_stall(
        self, server, keepalive_predict_median_ms
    ):
        assert keepalive_predict_median_ms(server.port) < 20.0

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=10
            )
        assert excinfo.value.code == 404


class TestHotSwap:
    def test_swap_drains_and_switches_every_worker(self, server):
        new_model = make_model(rng=777)
        graphs = graphs_for_test(count=6)
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                for graph in graphs:
                    status, payload, _ = post_predict(server.port, graph)
                    if status != 200:
                        errors.append((status, payload))

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            summary = server.swap_model(new_model, source="<test-swap>")
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        # Barrier: every worker acked the swap with the new fingerprint.
        assert sorted(summary["workers"]) == [0, 1]
        for shard_summary in summary["workers"].values():
            assert (
                shard_summary["new_fingerprint"]
                == summary["new_fingerprint"]
            )
        # Post-swap answers are bit-identical to the new model.
        expected_service = PredictionService(
            model=new_model, config=ServingConfig()
        )
        try:
            for graph in graphs:
                _, payload, _ = post_predict(server.port, graph)
                expected = expected_service.predict(graph)
                assert tuple(payload["gammas"]) == expected.gammas
                assert tuple(payload["betas"]) == expected.betas
        finally:
            expected_service.close()
        status, payload = get(server.port, "/healthz")
        fingerprints = {w.get("fingerprint") for w in payload["workers"]}
        assert fingerprints == {summary["new_fingerprint"]}


class TestSwapSafety:
    def test_shared_slab_double_buffers_swap_writes(self):
        # The active region must never be overwritten mid-swap: a
        # request in flight keeps computing over exactly the weights
        # it started with.
        model_a = make_model(rng=1)
        model_b = make_model(rng=2)
        shared, manifest_a = SharedWeights.for_model(model_a)
        try:
            before = {
                name: view.copy()
                for name, view in shared.views(manifest_a).items()
            }
            manifest_b = shared.write(model_b)
            assert manifest_b["region"] != manifest_a["region"]
            # Old views (what in-flight requests read) are untouched.
            for name, view in shared.views(manifest_a).items():
                np.testing.assert_array_equal(view, before[name])
            # New views carry model B exactly.
            state_b = model_b.state_dict()
            for name, view in shared.views(manifest_b).items():
                np.testing.assert_array_equal(
                    view,
                    np.ascontiguousarray(state_b[name], dtype=np.float64),
                )
            # Until activate(), another write reuses the same inactive
            # region — a failed swap never burns the live weights.
            assert shared.write(model_b)["region"] == manifest_b["region"]
            shared.activate(manifest_b["region"])
            assert shared.write(model_a)["region"] == manifest_a["region"]
        finally:
            shared.close()

    def test_reader_survives_late_reply_to_cancelled_request(self):
        # A deadline-dropped request cancels its future; the worker's
        # late reply must be swallowed, not kill the reader thread
        # (which would permanently blackhole the shard).
        parent, child = multiprocessing.get_context().Pipe()
        handle = _WorkerHandle(0, process=None, conn=parent)
        try:
            future = handle.request("ping")
            _kind, req_id = child.recv()
            assert future.cancel()  # deadline drop before the reply
            child.send((req_id, "ok", {"late": True}))
            second = handle.request("ping")
            _kind, req_id2 = child.recv()
            child.send((req_id2, "ok", {"pong": True}))
            assert second.result(timeout=10) == {"pong": True}
            assert handle.alive
        finally:
            child.close()
            handle.reader.join(timeout=10)
            parent.close()

    def test_swap_drain_timeout_keeps_old_model(self):
        # One hung inference must not wedge the worker loop: the drain
        # is bounded and the worker declines the swap with "err".
        from repro.serving.scale.worker import _WorkerState, _handle_swap

        class Conn:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        state = _WorkerState(
            Conn(), service=None, shard=0, num_shards=1, shared=None,
            drain_timeout_s=0.05,
        )
        state.inflight.add(Future())  # never completes
        _handle_swap(state, 7, {"fingerprint": "deadbeef"})
        req_id, status, payload = state.conn.sent[-1]
        assert (req_id, status) == (7, "err")
        assert "drain timed out" in payload

    def test_partial_swap_failure_rolls_back_and_flags(self, model):
        config = ScaleConfig(workers=2, swap_timeout_s=5.0)
        pool = WorkerPool(model=model, scale_config=config)
        try:
            old_fingerprint = pool.manifest["fingerprint"]
            broken = pool.worker(1)
            real_request = broken.request

            def black_hole(kind, *args):
                if kind == "swap":
                    return Future()  # never acks -> parent times out
                return real_request(kind, *args)

            broken.request = black_hole
            with pytest.raises(WorkerError):
                pool.swap_model(make_model(rng=99))
            # Manifest only commits after *all* acks; ambiguous state
            # (an ack timeout) is flagged for /healthz.
            assert pool.manifest["fingerprint"] == old_fingerprint
            assert pool.swap_inconsistent
            # The acked worker was rolled back onto the old manifest.
            assert (
                pool.worker(0)
                .request("ping")
                .result(timeout=10)["fingerprint"]
                == old_fingerprint
            )
            # Recovery: a clean swap converges and clears the flag.
            broken.request = real_request
            summary = pool.swap_model(make_model(rng=99))
            assert not pool.swap_inconsistent
            fingerprints = {
                status["fingerprint"] for status in pool.ping_all()
            }
            assert fingerprints == {summary["fingerprint"]}
        finally:
            pool.close()

    def test_healthz_surfaces_fingerprint_inconsistency(self, server):
        server.pool.swap_inconsistent = True
        try:
            status, payload = get(server.port, "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            assert payload["fingerprint_consistent"] is False
        finally:
            server.pool.swap_inconsistent = False
        _, payload = get(server.port, "/healthz")
        assert payload["fingerprint_consistent"] is True


class TestSnapshotWarmup:
    def test_snapshot_warms_a_fresh_pool(self, tmp_path):
        model = make_model(rng=5, p=1)
        graphs = graphs_for_test(count=4, nodes=6)
        snapshot_path = tmp_path / "cache_snapshot.json"
        config = ScaleConfig(workers=2)
        first = ScaleServingServer(
            WorkerPool(model=model, scale_config=config),
            model=model,
            port=0,
            scale_config=config,
            cache_snapshot_path=snapshot_path,
        )
        first.start_background()
        try:
            for graph in graphs:
                status, payload, _ = post_predict(first.port, graph)
                assert status == 200
        finally:
            first.close()  # writes the snapshot
        assert snapshot_path.exists()

        second = ScaleServingServer(
            WorkerPool(model=model, scale_config=config),
            model=model,
            port=0,
            scale_config=config,
        )
        second.start_background()
        try:
            loaded = second.load_cache_snapshot(snapshot_path)
            assert loaded > 0
            # Disable the L1 read path? No — a warm L1 is part of the
            # warm-start contract; the first request must come back
            # cached instead of recomputed.
            status, payload, _ = post_predict(second.port, graphs[0])
            assert status == 200
            assert payload["cached"] is True
        finally:
            second.close()


class TestWorkerRespawn:
    def test_dead_worker_respawns_warm_and_counts_in_metrics(self, tmp_path):
        model = make_model(rng=9, p=1)
        graphs = graphs_for_test(count=12, nodes=6)
        snapshot_path = tmp_path / "cache_snapshot.json"
        config = ScaleConfig(workers=2)
        server = ScaleServingServer(
            WorkerPool(model=model, scale_config=config),
            model=model,
            port=0,
            scale_config=config,
            cache_snapshot_path=snapshot_path,
        )
        server.start_background()
        try:
            for graph in graphs:
                status, _, _ = post_predict(server.port, graph)
                assert status == 200
            assert server.save_cache_snapshot(snapshot_path) > 0

            # Kill the worker owning graphs[0]'s shard: its snapshot
            # partition is non-empty, so the respawn warm-up below has
            # something to restore.
            victim = server.pool.route(wl_canonical_hash(graphs[0]))
            handle = server.pool.worker(victim)
            handle.process.terminate()
            handle.process.join(10)
            deadline = time.time() + 10
            while server.pool.worker_alive(victim) and time.time() < deadline:
                time.sleep(0.05)
            assert not server.pool.worker_alive(victim)

            # A request for the dead shard (fresh graphs, so the L1
            # cannot short-circuit) degrades to fallbacks and schedules
            # the respawn.
            triggered = False
            for i in range(64):
                fresh = erdos_renyi_graph(6, 0.5, rng=900 + i)
                if server.pool.route(wl_canonical_hash(fresh)) != victim:
                    continue
                status, payload, _ = post_predict(server.port, fresh)
                assert status == 200
                assert payload.get("degraded") is True
                triggered = True
                break
            assert triggered

            # The replacement comes up in the background, warmed from
            # the snapshot partition it owns.
            deadline = time.time() + 20
            warmed = []
            while time.time() < deadline:
                if server.pool.worker_alive(victim):
                    warmed = server.pool.worker(victim).request(
                        "snapshot"
                    ).result(timeout=10)
                    if warmed:
                        break
                time.sleep(0.1)
            assert server.pool.worker_alive(victim)
            assert len(warmed) > 0
            assert server.pool.worker_restarts.get(victim) == 1

            status, payload = get(server.port, "/metrics")
            assert status == 200
            assert payload["workers"][str(victim)]["restarts"] == 1

            status, payload = get(server.port, "/healthz")
            assert payload["status"] == "ok"
            assert all(w["alive"] for w in payload["workers"])
        finally:
            server.close()


class TestAdmissionOverHTTP:
    @pytest.fixture()
    def tiny_server(self, model):
        config = ScaleConfig(
            workers=2, max_inflight=2, shed_factor=2.0, retry_after_s=3.0
        )
        pool = WorkerPool(model=model, scale_config=config)
        running = ScaleServingServer(
            pool, model=model, port=0, scale_config=config
        )
        running.start_background()
        yield running
        running.close()

    def test_shed_is_503_with_retry_after(self, tiny_server):
        # Deterministically saturate the front-end concurrency gauge,
        # then hit the HTTP path: it must shed, not queue.
        shed_limit = tiny_server.scale_config.shed_limit
        for _ in range(shed_limit):
            tiny_server.admission.enter()
        try:
            graph = graphs_for_test(count=1)[0]
            status, payload, headers = post_predict(tiny_server.port, graph)
            assert status == 503
            assert "error" in payload
            retry_after = {k.lower(): v for k, v in headers.items()}.get(
                "retry-after"
            )
            assert retry_after is not None
            assert int(retry_after) >= 1
        finally:
            for _ in range(shed_limit):
                tiny_server.admission.exit()
        # Pressure gone: the same request is served normally again.
        status, payload, _ = post_predict(
            tiny_server.port, graphs_for_test(count=1)[0]
        )
        assert status == 200

    def test_degrade_band_answers_from_fallbacks(self, tiny_server):
        # Fill exactly to max_inflight: next request lands in the
        # degrade band and must get an immediate fallback 200.
        taken = 0
        while tiny_server.admission.inflight < 2:
            assert tiny_server.admission.decide() == "admit"
            taken += 1
        try:
            graph = graphs_for_test(count=1)[0]
            # Use a graph the L1 has never seen (fresh server).
            status, payload, _ = post_predict(tiny_server.port, graph)
            assert status == 200
            assert payload.get("degraded") is True
            assert payload["source"] != "model"
        finally:
            for _ in range(taken):
                tiny_server.admission.release()

    def test_predict_never_hangs_under_overload(self, tiny_server):
        graphs = graphs_for_test(count=6)
        bodies = graph_request_bodies(graphs)
        report = run_load(
            "127.0.0.1", tiny_server.port, bodies, concurrency=8,
            duration_s=1.5,
        )
        assert report["requests"] > 0
        # Only 200s and shed 503s — and every 503 carried Retry-After.
        assert set(report["statuses"]) <= {"200", "503"}
        assert report["retry_after"]["missing"] == 0
        assert report["connection_errors"] == 0


class TestReplaySingleWriter:
    def test_frontend_owns_the_replay_log(self, tmp_path, model):
        replay = ReplayLog(tmp_path / "replay")
        config = ScaleConfig(workers=2)
        running = ScaleServingServer(
            WorkerPool(model=model, scale_config=config),
            model=model,
            port=0,
            scale_config=config,
            replay_log=replay,
        )
        running.start_background()
        try:
            graphs = graphs_for_test(count=3)
            for graph in graphs:
                post_predict(running.port, graph)
            records = replay.load()
            assert len(records) == 3
        finally:
            running.close()
