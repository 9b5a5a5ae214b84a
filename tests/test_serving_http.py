"""End-to-end tests for the HTTP serving front-end."""

import json
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.graph import Graph
from repro.graphs.io import graph_to_text
from repro.serving import (
    AdmissionController,
    PredictionService,
    ServingConfig,
    ServingHTTPServer,
    graph_from_payload,
)
import repro.serving.http as serving_http
from repro.serving.http import MAX_REQUEST_BYTES, parse_content_length


@pytest.fixture(scope="module")
def server():
    """A live server on an ephemeral port, shared across this module."""
    model = QAOAParameterPredictor(arch="gcn", p=1, hidden_dim=16, rng=3)
    model.eval()
    service = PredictionService(model=model, config=ServingConfig())
    with ServingHTTPServer(service, port=0).start_background() as running:
        yield running


def get(server, route):
    url = f"http://127.0.0.1:{server.port}{route}"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.load(response)


def post(server, route, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{route}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestGraphFromPayload:
    def test_edge_list_form(self):
        graph = graph_from_payload(
            {"num_nodes": 3, "edges": [[0, 1], [1, 2]]}
        )
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_weighted_edge_list(self):
        graph = graph_from_payload(
            {
                "num_nodes": 3,
                "edges": [[0, 1], [1, 2]],
                "weights": [2.0, 0.5],
            }
        )
        assert graph.weights == (2.0, 0.5)

    def test_text_form(self, triangle):
        graph = graph_from_payload({"graph": graph_to_text(triangle)})
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_missing_keys_raises_repro_error(self):
        with pytest.raises(ReproError, match="num_nodes"):
            graph_from_payload({"edges": [[0, 1]]})

    def test_malformed_edges_raise_repro_error(self):
        with pytest.raises(ReproError, match="malformed"):
            graph_from_payload({"num_nodes": 2, "edges": [["x", "y"]]})

    def test_non_object_raises_repro_error(self):
        with pytest.raises(ReproError, match="JSON object"):
            graph_from_payload([1, 2, 3])

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_nodes": float("inf"), "edges": []},
            {"num_nodes": float("-inf"), "edges": []},
            {"num_nodes": float("nan"), "edges": []},
            {"num_nodes": 3, "edges": [[0, float("inf")]]},
            {"num_nodes": 2, "edges": [[0, 1]], "weights": [float("nan")]},
            {"num_nodes": 2, "edges": [[0, 1]], "weights": [float("inf")]},
            {"graph": "nodes 2\nedge 0 1 nan\n"},
        ],
    )
    def test_non_finite_numbers_raise_repro_error(self, payload):
        with pytest.raises(ReproError):
            graph_from_payload(payload)


class TestContentLength:
    @pytest.mark.parametrize(
        "value, expected", [(None, 0), ("0", 0), ("12", 12), (" 7 ", 7)]
    )
    def test_byte_counts_parse(self, value, expected):
        assert parse_content_length(value) == expected

    @pytest.mark.parametrize(
        "value", ["abc", "", "-5", "+5", "1_0", "1e3", "\u0661\u0662"]
    )
    def test_non_counts_raise_repro_error(self, value):
        with pytest.raises(ReproError, match="not a byte count"):
            parse_content_length(value)

    def test_over_the_cap_raises_repro_error(self):
        with pytest.raises(ReproError, match="exceeds"):
            parse_content_length(str(MAX_REQUEST_BYTES + 1))


class TestHTTPEndpoints:
    def test_predict_round_trip(self, server):
        status, body = post(
            server,
            "/predict",
            {"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        )
        assert status == 200
        assert body["source"] == "model"
        assert len(body["gammas"]) == 1
        assert len(body["betas"]) == 1
        assert body["latency_ms"] >= 0

    def test_isomorphic_repeat_is_cached(self, server):
        edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]
        _, first = post(server, "/predict", {"num_nodes": 5, "edges": edges})
        relabeled = [[(u + 2) % 5, (v + 2) % 5] for u, v in edges]
        _, second = post(
            server, "/predict", {"num_nodes": 5, "edges": relabeled}
        )
        assert second["cached"]
        assert second["gammas"] == first["gammas"]
        assert second["betas"] == first["betas"]

    def test_oversized_graph_falls_back(self, server):
        n = 25  # beyond the model's 15-node feature cap
        edges = [[i, (i + 1) % n] for i in range(n)]
        status, body = post(
            server, "/predict", {"num_nodes": n, "edges": edges}
        )
        assert status == 200
        assert body["source"] in ("fixed_angle", "analytic", "random")

    def test_bad_payload_is_400_with_message(self, server):
        status, body = post(server, "/predict", {"edges": [[0, 1]]})
        assert status == 400
        assert "num_nodes" in body["error"]

    def test_invalid_json_is_400(self, server):
        for headers in (
            {"Content-Type": "application/json"},
            {"Content-Type": "application/json", "Content-Length": "abc"},
        ):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/predict",
                data=b"{not json",
                headers=headers,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_keepalive_predicts_do_not_stall(
        self, server, keepalive_predict_median_ms
    ):
        assert keepalive_predict_median_ms(server.port) < 20.0

    def test_unknown_route_is_404(self, server):
        status, body = post(server, "/frobnicate", {})
        assert status in (400, 404)

    def test_metrics_endpoint(self, server):
        post(server, "/predict", {"num_nodes": 3, "edges": [[0, 1], [1, 2]]})
        status, body = get(server, "/metrics")
        assert status == 200
        assert body["requests"] >= 1
        assert "latency" in body
        assert "cache" in body

    def test_healthz_endpoint(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"][0]["arch"] == "gcn"
        assert body["config"]["max_batch_size"] == 32
        assert "max_wait_ms" not in body["config"]  # batching is greedy

    def test_ephemeral_port_reported(self, server):
        assert server.port > 0


def raw_status(port, data, timeout=10.0, hold_open=False):
    """Write raw bytes on a fresh connection; the first response's
    status code and the seconds it took (``None`` if no response)."""
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        if not hold_open:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while b"\r\n" not in response:
            try:
                chunk = sock.recv(4096)
            except socket.timeout:
                break
            if not chunk:
                break
            response += chunk
    elapsed = time.monotonic() - start
    if not response.startswith(b"HTTP/"):
        return None, elapsed
    return int(response.split(b" ", 2)[1]), elapsed


def predict_request(body, length=None):
    """A complete ``POST /predict`` with ``body`` (and an optionally
    lying ``Content-Length``)."""
    if length is None:
        length = len(body)
    return (
        b"POST /predict HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode()
        + body
    )


def hostile_bodies():
    """Malformed ``/predict`` bodies, each of which must get a 4xx."""
    rng = np.random.default_rng(2024)
    valid = json.dumps(
        {"num_nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
    ).encode()
    bodies = {
        "empty": b"",
        "deep_nesting": b"[" * 100_000,
        "deep_edges": b'{"num_nodes": 3, "edges": '
        + b"[" * 500 + b"]" * 500 + b"}",
        "non_utf8": b'{"num_nodes": 3, "edges": [], "name": "\xff\xfe"}',
        "num_nodes_infinity": b'{"num_nodes": Infinity, "edges": []}',
        "num_nodes_1e400": b'{"num_nodes": 1e400, "edges": []}',
        "num_nodes_nan": b'{"num_nodes": NaN, "edges": []}',
        "edge_infinity": b'{"num_nodes": 3, "edges": [[0, -Infinity]]}',
        "weight_nan": b'{"num_nodes": 2, "edges": [[0, 1]], "weights": [NaN]}',
        "weight_1e400": b'{"num_nodes": 2, "edges": [[0, 1]], '
        b'"weights": [1e400]}',
        "text_weight_nan": json.dumps({"graph": "nodes 2\nedge 0 1 nan"}).encode(),
        "oversized_nodes": b'{"num_nodes": 1000000000, "edges": []}',
        "oversized_edges": json.dumps(
            {"num_nodes": 1000, "edges": [[0, 1]] * 40_000}
        ).encode(),
        "not_an_object": b"[1, 2, 3]",
        "edges_not_pairs": b'{"num_nodes": 3, "edges": [[0, 1, 2]]}',
        "edge_out_of_range": b'{"num_nodes": 3, "edges": [[0, 7]]}',
        "negative_nodes": b'{"num_nodes": -4, "edges": []}',
    }
    for cut in sorted(rng.choice(len(valid) - 1, size=8, replace=False)):
        bodies[f"truncated_{cut}"] = valid[: int(cut)]
    for i in range(12):
        size = int(rng.integers(1, 400))
        bodies[f"random_{i}"] = rng.integers(0, 256, size, np.uint8).tobytes()
    return bodies


class TestHostileInput:
    """Malformed requests get a 4xx quickly; the server keeps serving."""

    @pytest.fixture(autouse=True)
    def short_body_deadline(self, monkeypatch):
        monkeypatch.setattr(serving_http, "BODY_READ_TIMEOUT_S", 0.5)

    def assert_still_serving(self, server):
        status, body = post(
            server, "/predict", {"num_nodes": 4, "edges": [[0, 1], [1, 2]]}
        )
        assert status == 200, body

    @pytest.mark.parametrize(
        "body",
        [pytest.param(body, id=name)
         for name, body in sorted(hostile_bodies().items())],
    )
    def test_malformed_body_is_4xx(self, server, body):
        status, elapsed = raw_status(server.port, predict_request(body))
        assert status is not None and 400 <= status < 500, status
        assert elapsed < 5.0
        self.assert_still_serving(server)

    def test_oversized_content_length_is_400(self, server):
        request = predict_request(b"{}", length=MAX_REQUEST_BYTES + 1)
        status, _ = raw_status(server.port, request)
        assert status == 400
        self.assert_still_serving(server)

    def test_garbage_request_line_is_400(self, server):
        status, _ = raw_status(server.port, b"\x00\xff\x13garbage\r\n\r\n")
        assert status == 400
        self.assert_still_serving(server)

    def test_body_shorter_than_content_length_is_408(self, server):
        # The client announces 100 bytes, sends 10 and keeps the socket
        # open: the read gives up at the deadline and closes.
        status, elapsed = raw_status(
            server.port,
            predict_request(b'{"num_node', length=100),
            hold_open=True,
        )
        assert status == 408
        assert elapsed < 5.0
        self.assert_still_serving(server)

    def test_body_closed_early_is_400(self, server):
        status, _ = raw_status(
            server.port, predict_request(b'{"num_node', length=100)
        )
        assert status == 400
        self.assert_still_serving(server)

    def test_slow_drip_body_hits_the_deadline(self, server):
        # Bytes keep arriving, but the whole body is overdue.
        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(predict_request(b"", length=100))
            response = b""
            sock.settimeout(0.1)
            while time.monotonic() - start < 5.0 and b"\r\n" not in response:
                try:
                    sock.sendall(b" ")
                    response += sock.recv(4096)
                except socket.timeout:
                    continue
                except OSError:
                    break
        assert response.startswith(b"HTTP/1.1 408"), response
        assert time.monotonic() - start < 5.0
        self.assert_still_serving(server)

    def test_keepalive_idle_wait_has_no_deadline(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            for _ in range(2):
                connection.request(
                    "POST", "/predict",
                    body=json.dumps({"num_nodes": 3, "edges": [[0, 1]]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                time.sleep(1.0)  # idle for twice the body deadline
        finally:
            connection.close()


class TestCLIServePieces:
    def test_parse_edge_spec(self):
        from repro.cli import _parse_edge_spec

        graph = _parse_edge_spec("0-1,1-2,2-0", None)
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        explicit = _parse_edge_spec("0-1", 5)
        assert explicit.num_nodes == 5

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.max_batch_size == 32
        assert args.cache_size == 4096

    def test_predict_requires_graph_or_edges(self):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["predict"])
        assert args.command == "predict"
        with pytest.raises(SystemExit):
            main(["predict"])


class TestClientDisconnects:
    """Satellite: a client hanging up mid-response must not crash the
    handler thread — the response is logged, counted, and dropped."""

    def _bare_handler(self, service, wfile):
        from repro.serving.http import _make_handler

        handler_cls = _make_handler(service, AdmissionController())
        handler = object.__new__(handler_cls)
        handler.wfile = wfile
        handler.rfile = None
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /predict HTTP/1.1"
        handler.command = "POST"
        handler.path = "/predict"
        handler.client_address = ("127.0.0.1", 1234)
        handler.close_connection = False
        return handler

    def test_broken_pipe_in_send_is_dropped_and_counted(self):
        service = PredictionService(config=ServingConfig())

        class BrokenWfile:
            def write(self, data):
                raise BrokenPipeError("client went away")

            def flush(self):
                pass

        handler = self._bare_handler(service, BrokenWfile())
        handler._send(200, {"ok": True})  # must not raise
        assert service.metrics.dropped_responses == 1
        assert handler.close_connection is True

    def test_connection_reset_in_send_is_dropped_and_counted(self):
        service = PredictionService(config=ServingConfig())

        class ResetWfile:
            def write(self, data):
                raise ConnectionResetError("reset by peer")

            def flush(self):
                pass

        handler = self._bare_handler(service, ResetWfile())
        handler._send(500, {"error": "x"})
        assert service.metrics.dropped_responses == 1

    def test_intact_pipe_still_writes(self):
        service = PredictionService(config=ServingConfig())

        class RecordingWfile:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))

            def flush(self):
                pass

        wfile = RecordingWfile()
        handler = self._bare_handler(service, wfile)
        handler._send(200, {"ok": True})
        # One write carries the whole response: a head written on its
        # own leaves the body waiting for the client's delayed ACK.
        assert len(wfile.writes) == 1
        head, blank, body = wfile.writes[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nContent-Type: application/json" in head
        assert b"\r\nContent-Length: 12" in head
        assert blank == b"\r\n\r\n"
        assert body == b'{"ok": true}'
        assert service.metrics.dropped_responses == 0

    def test_dropped_responses_surface_in_metrics_snapshot(self):
        service = PredictionService(config=ServingConfig())
        service.metrics.record_dropped_response()
        snapshot = service.metrics_snapshot()
        assert snapshot["fault_tolerance"]["dropped_responses"] == 1
