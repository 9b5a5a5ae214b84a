"""The threaded server run the way it is run under load: gate tight.

``repro serve --max-inflight`` is how the one serving stack scales:
the admission gate bounds the model path while the handler threads
keep answering. These tests drive the plain endpoints of a server whose
gate admits only two requests at a time and check that requests which
never reach the model (bad bodies, unknown routes) get their 4xx
without leaking a place in the gate, and that serial keep-alive
traffic stays fast and admitted.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import PredictionService, ServingConfig, ServingHTTPServer


def post_predict(port, graph, timeout=15):
    body = json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [list(e) for e in graph.edges]}
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


@pytest.fixture(scope="module")
def server():
    model = QAOAParameterPredictor(arch="gcn", p=2, hidden_dim=16, rng=42)
    model.eval()
    service = PredictionService(model=model, config=ServingConfig())
    with ServingHTTPServer(
        service, port=0, max_inflight=2
    ).start_background() as running:
        yield running


class TestHealthAndMetrics:
    def test_bad_payload_is_400(self, server):
        gate = server.admission
        # More bad bodies than the shed limit: a leaked gate place per
        # rejection would shed every request after them.
        for _ in range(gate.shed_limit + 1):
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
        stats = gate.stats()
        assert stats["inflight"] == stats["concurrent"] == 0
        assert stats["shed"] == 0
        status, payload = post_predict(
            server.port, erdos_renyi_graph(8, 0.5, rng=900)
        )
        assert status == 200
        assert "degraded" not in payload
        assert payload["source"] == "model"

    def test_keepalive_predicts_do_not_stall(
        self, server, keepalive_predict_median_ms
    ):
        before = server.admission.stats()
        assert keepalive_predict_median_ms(server.port) < 20.0
        after = server.admission.stats()
        # One request at a time never leaves the admit band.
        assert after["degraded"] == before["degraded"]
        assert after["shed"] == before["shed"]
        assert after["admitted"] - before["admitted"] == 30

    def test_unknown_route_is_404(self, server):
        before = server.admission.stats()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=10
            )
        excinfo.value.close()
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/nope",
            data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 404
        # Neither request took a gate decision.
        assert server.admission.stats() == before
