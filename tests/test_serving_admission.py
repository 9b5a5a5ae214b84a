"""Admission control on the threaded server: admit, degrade, shed.

The gate's bookkeeping in isolation, then the overload contract over
live HTTP: admitted answers are bit-identical to the in-process
service, a degraded answer is a fallback 200 that is never cached, a
shed request is a 503 with ``Retry-After``, and no load makes
``/predict`` hang.
"""

import contextlib
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ReproError
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.transforms import relabel
from repro.serving import (
    AdmissionController,
    PredictionService,
    ServingConfig,
    ServingHTTPServer,
)
from repro.serving.admission import (
    ADMIT,
    DEGRADE,
    RETRY_AFTER_S,
    SHED,
    SHED_FACTOR,
)


def make_model(rng=42, p=2):
    model = QAOAParameterPredictor(arch="gcn", p=p, hidden_dim=16, rng=rng)
    model.eval()
    return model


def graph_for_test(seed, nodes=8):
    return erdos_renyi_graph(nodes, 0.5, rng=seed)


def relabeled(graph):
    """An isomorphic copy: same WL class, different request bytes."""
    n = graph.num_nodes
    return relabel(graph, [(i + 3) % n for i in range(n)])


def body_of(graph):
    return json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [list(e) for e in graph.edges]}
    ).encode()


def post_predict(port, graph, timeout=15):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict",
        data=body_of(graph),
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


@contextlib.contextmanager
def held_gate(gate, count):
    """Hold ``count`` places in ``gate`` for the length of a block."""
    decisions = [gate.decide() for _ in range(count)]
    try:
        yield decisions
    finally:
        for decision in decisions:
            if decision != SHED:
                gate.release(decision)


class TestAdmissionController:
    def test_admit_degrade_shed_progression(self):
        control = AdmissionController(max_inflight=2)
        assert [control.decide() for _ in range(2)] == [ADMIT, ADMIT]
        # Model path saturated: degrade until the gate holds the shed
        # limit, then shed.
        assert [control.decide() for _ in range(2)] == [DEGRADE, DEGRADE]
        assert [control.decide() for _ in range(3)] == [SHED] * 3
        assert control.inflight == 2  # degrades take no model slot
        assert control.concurrent == control.shed_limit

    def test_shed_past_limit(self):
        control = AdmissionController(max_inflight=1)
        assert control.decide() == ADMIT
        assert control.decide() == DEGRADE
        assert control.decide() == SHED  # two inside: the shed limit
        control.release(DEGRADE)
        assert control.decide() == DEGRADE  # back under the limit

    def test_release_reopens_admission(self):
        control = AdmissionController(max_inflight=1)
        assert control.decide() == ADMIT
        assert control.decide() == DEGRADE
        control.release(ADMIT)
        assert control.decide() == ADMIT

    def test_stats_counts_every_outcome(self):
        control = AdmissionController(max_inflight=1)
        decisions = [control.decide() for _ in range(3)]
        assert decisions == [ADMIT, DEGRADE, SHED]
        stats = control.stats()
        assert stats["admitted"] == 1
        assert stats["degraded"] == 1
        assert stats["shed"] == 1
        assert stats["inflight"] == 1
        assert stats["concurrent"] == 2
        assert stats["max_inflight"] == 1
        assert stats["shed_limit"] == 2
        assert stats["max_observed_concurrent"] == 2
        json.dumps(stats)

    def test_shed_limit_always_exceeds_max_inflight(self):
        # A degrade band of at least one request always exists, so
        # DEGRADE is reachable before anything sheds.
        for max_inflight in (1, 4, 64):
            control = AdmissionController(max_inflight)
            assert control.shed_limit == SHED_FACTOR * max_inflight
            assert control.shed_limit > control.max_inflight

    @pytest.mark.parametrize("max_inflight", [0, -3])
    def test_max_inflight_must_be_positive(self, max_inflight):
        with pytest.raises(ReproError, match="max_inflight"):
            AdmissionController(max_inflight)

    def test_concurrent_decisions_balance(self):
        control = AdmissionController(max_inflight=3)

        def worker():
            for _ in range(500):
                decision = control.decide()
                if decision != SHED:
                    control.release(decision)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = control.stats()
        assert stats["inflight"] == 0
        assert stats["concurrent"] == 0
        assert stats["admitted"] + stats["degraded"] + stats["shed"] == 4000


@pytest.fixture(scope="module")
def model():
    return make_model()


@pytest.fixture(scope="module")
def server(model):
    service = PredictionService(model=model, config=ServingConfig())
    with ServingHTTPServer(
        service, port=0, max_inflight=2
    ).start_background() as running:
        yield running


@pytest.fixture(scope="module")
def reference(model):
    service = PredictionService(model=model, config=ServingConfig())
    yield service
    service.close()


class TestGateOverHTTP:
    def test_admitted_answers_match_in_process_service(
        self, server, reference
    ):
        for seed in range(100, 108):
            graph = graph_for_test(seed)
            status, payload, _ = post_predict(server.port, graph)
            assert status == 200
            assert "degraded" not in payload
            expected = reference.predict(graph)
            assert tuple(payload["gammas"]) == expected.gammas
            assert tuple(payload["betas"]) == expected.betas
            assert payload["source"] == expected.source == "model"

    def test_shed_is_503_with_retry_after(self, server, monkeypatch):
        import repro.serving.http as http

        built = []
        build = http.graph_from_payload
        monkeypatch.setattr(
            http, "graph_from_payload",
            lambda *a, **k: built.append(1) or build(*a, **k),
        )
        graph = graph_for_test(200)
        with held_gate(server.admission, server.admission.shed_limit):
            status, payload, headers = post_predict(server.port, graph)
        assert status == 503
        assert "error" in payload
        retry_after = {k.lower(): v for k, v in headers.items()}.get(
            "retry-after"
        )
        assert retry_after == str(RETRY_AFTER_S)
        assert built == []  # shed before the graph is built
        # Pressure gone: the same request is served normally again.
        status, payload, _ = post_predict(server.port, graph)
        assert status == 200
        assert "degraded" not in payload

    def test_degrade_band_answers_from_fallbacks(self, server):
        graph = graph_for_test(300)
        with held_gate(server.admission, server.admission.max_inflight) as held:
            assert held == [ADMIT] * server.admission.max_inflight
            status, payload, _ = post_predict(server.port, graph)
        assert status == 200
        assert payload["degraded"] is True
        assert payload["source"] != "model"
        assert payload["cached"] is False

    def test_degraded_answer_is_never_cached(self, server, reference):
        graph = graph_for_test(400)
        with held_gate(server.admission, server.admission.max_inflight):
            _, degraded, _ = post_predict(server.port, graph)
        assert degraded["degraded"] is True
        # A later admitted request for the same WL class reaches the
        # model instead of the degraded fallback answer.
        copy = relabeled(graph)
        status, payload, _ = post_predict(server.port, copy)
        assert status == 200
        assert "degraded" not in payload
        assert payload["cached"] is False
        assert payload["source"] == "model"
        expected = reference.predict(copy)
        assert tuple(payload["gammas"]) == expected.gammas
        assert tuple(payload["betas"]) == expected.betas

    def test_degrade_band_serves_cache_hits_as_usual(self, server):
        graph = graph_for_test(500)
        _, first, _ = post_predict(server.port, graph)
        with held_gate(server.admission, server.admission.max_inflight):
            status, payload, _ = post_predict(server.port, relabeled(graph))
        assert status == 200
        assert "degraded" not in payload
        assert payload["cached"] is True
        assert payload["source"] == "model"
        assert payload["gammas"] == first["gammas"]
        assert payload["betas"] == first["betas"]

    def test_metrics_embed_admission_section(self, server):
        post_predict(server.port, graph_for_test(600))
        status, payload = get(server.port, "/metrics")
        assert status == 200
        admission = payload["admission"]
        assert admission["admitted"] >= 1
        assert admission["max_inflight"] == 2
        assert admission["shed_limit"] == 2 * SHED_FACTOR
        assert admission["inflight"] == 0

    def test_healthz_reports_max_inflight(self, server):
        status, payload = get(server.port, "/healthz")
        assert status == 200
        assert payload["config"]["max_inflight"] == 2

    def test_replay_log_records_admitted_answers_only(self, model, tmp_path):
        from repro.flywheel import ReplayLog

        replay = ReplayLog(tmp_path / "replay")
        service = PredictionService(
            model=model, config=ServingConfig(), replay_log=replay
        )
        with ServingHTTPServer(
            service, port=0, max_inflight=1
        ).start_background() as running:
            for seed in (800, 801, 802):
                post_predict(running.port, graph_for_test(seed))
            with held_gate(running.admission, 1):
                _, payload, _ = post_predict(running.port, graph_for_test(803))
            assert payload["degraded"] is True
            records = replay.load()
        # A degraded answer says nothing about what the model cannot
        # serve, so the flywheel never sees it as fallback pressure.
        assert len(records) == 3
        assert {record.source for record in records} == {"model"}

    def test_predict_never_hangs_under_overload(
        self, server, closed_loop_load
    ):
        bodies = [body_of(graph_for_test(700 + i)) for i in range(6)]
        report = closed_loop_load(
            server.port, bodies, clients=8, duration_s=1.5
        )
        statuses = report["statuses"]
        assert sum(statuses.values()) > 0
        # Only 200s and shed 503s, and every 503 carried Retry-After.
        assert set(statuses) <= {200, 503}
        assert report["missing_retry_after"] == 0
        assert report["connection_errors"] == 0
        assert report["max_ms"] < 10_000
        stats = server.admission.stats()
        assert stats["inflight"] == stats["concurrent"] == 0


def test_server_rejects_non_positive_max_inflight():
    service = PredictionService(config=ServingConfig())
    try:
        with pytest.raises(ReproError, match="max_inflight"):
            ServingHTTPServer(service, port=0, max_inflight=0)
    finally:
        service.close()
