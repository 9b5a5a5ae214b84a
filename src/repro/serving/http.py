"""Stdlib HTTP front-end for the prediction service.

A deliberately dependency-free JSON API on ``http.server``:

- ``POST /predict`` — body ``{"num_nodes": n, "edges": [[u, v], ...],
  "weights": [...]?}`` or ``{"graph": "<text format>"}``; responds with
  ``{"gammas": [...], "betas": [...], "p": ..., "source": ...,
  "cached": ..., "latency_ms": ...}``.
- ``GET /metrics`` — the service metrics snapshot.
- ``GET /healthz`` — model + config health payload.

The server is a ``ThreadingHTTPServer``, so concurrent requests hit the
service from separate threads and get coalesced by the micro-batcher —
the HTTP layer adds no queuing of its own.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_text
from repro.serving.service import PredictionService
from repro.utils.logging import get_logger

logger = get_logger(__name__)

MAX_REQUEST_BYTES = 1 << 20  # 1 MiB body cap

#: Default request-size caps. Large enough for every supported
#: workload (size-agnostic models serve hundreds of nodes), small
#: enough that one hostile request cannot allocate a huge adjacency or
#: stall WL hashing on the hot path. Both are configurable on the
#: servers (``repro serve --max-request-nodes/--max-request-edges``).
DEFAULT_MAX_REQUEST_NODES = 1024
DEFAULT_MAX_REQUEST_EDGES = 32768


def graph_from_payload(
    payload: dict,
    max_nodes: int = DEFAULT_MAX_REQUEST_NODES,
    max_edges: int = DEFAULT_MAX_REQUEST_EDGES,
) -> Graph:
    """Build a graph from a /predict request body.

    Accepts either the edge-list form (``num_nodes`` + ``edges`` [+
    ``weights``]) or the text form (``graph``). Raises
    :class:`ReproError` subclasses on malformed structure, ``KeyError``/
    ``TypeError`` never escape to the handler. Graphs over the
    ``max_nodes`` / ``max_edges`` caps are rejected *before* any
    adjacency is materialized, so oversized requests cost nothing.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    if "graph" in payload:
        if not isinstance(payload["graph"], str):
            raise ReproError("'graph' must be a text-format string")
        graph = graph_from_text(payload["graph"])
        _check_request_size(graph.num_nodes, graph.num_edges, max_nodes, max_edges)
        return graph
    if "num_nodes" not in payload or "edges" not in payload:
        raise ReproError(
            "request needs 'num_nodes' + 'edges' (or a 'graph' text block)"
        )
    try:
        num_nodes = int(payload["num_nodes"])
        raw_edges = payload["edges"]
        num_edges = len(raw_edges)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"malformed graph payload: {exc}") from exc
    _check_request_size(num_nodes, num_edges, max_nodes, max_edges)
    try:
        edges = [(int(u), int(v)) for u, v in raw_edges]
    except (TypeError, ValueError) as exc:
        raise ReproError(f"malformed graph payload: {exc}") from exc
    weights = payload.get("weights")
    if weights is not None:
        try:
            weights = tuple(float(w) for w in weights)
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed weights: {exc}") from exc
    return Graph.from_edges(
        num_nodes, edges, weights, name=str(payload.get("name", ""))
    )


def parse_content_length(value: Optional[str]) -> int:
    """The body length a ``Content-Length`` header announces.

    An absent header means no body. Anything but a plain decimal count
    up to :data:`MAX_REQUEST_BYTES` raises :class:`ReproError` (a 400):
    a bare ``int()`` raises ``ValueError`` on ``abc`` and accepts
    ``-5``, ``+5`` and ``1_0``.
    """
    if value is None:
        return 0
    text = value.strip()
    if not (text.isascii() and text.isdigit()):
        raise ReproError(f"Content-Length {value!r} is not a byte count")
    length = int(text)
    if length > MAX_REQUEST_BYTES:
        raise ReproError(
            f"body length {length} exceeds the {MAX_REQUEST_BYTES}-byte cap"
        )
    return length


def _check_request_size(
    num_nodes: int, num_edges: int, max_nodes: int, max_edges: int
) -> None:
    """Reject oversized request graphs with an actionable 400 message."""
    if max_nodes is not None and num_nodes > max_nodes:
        raise ReproError(
            f"request graph has {num_nodes} nodes; this server caps "
            f"requests at {max_nodes} nodes"
        )
    if max_edges is not None and num_edges > max_edges:
        raise ReproError(
            f"request graph has {num_edges} edges; this server caps "
            f"requests at {max_edges} edges"
        )


def _make_handler(
    service: PredictionService,
    max_request_nodes: int = DEFAULT_MAX_REQUEST_NODES,
    max_request_edges: int = DEFAULT_MAX_REQUEST_EDGES,
):
    class ServingHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket: a response never waits
        # on the client's delayed ACK of an earlier segment.
        disable_nagle_algorithm = True

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — http.server API
            if self.path == "/metrics":
                self._send(200, service.metrics_snapshot())
            elif self.path == "/healthz":
                self._send(200, service.describe())
            else:
                self._send(404, {"error": f"no route {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            if self.path != "/predict":
                self._send(404, {"error": f"no route {self.path!r}"})
                return
            try:
                length = parse_content_length(
                    self.headers.get("Content-Length")
                )
            except ReproError as exc:
                # The body's extent is unknown, so the connection cannot
                # carry another request.
                self.close_connection = True
                self._send(400, {"error": str(exc)})
                return
            try:
                body = self.rfile.read(length)
            except (BrokenPipeError, ConnectionResetError) as exc:
                service.metrics.record_dropped_response()
                self.close_connection = True
                logger.warning(
                    "client disconnected mid-request (%s); dropped",
                    exc.__class__.__name__,
                )
                return
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                self._send(400, {"error": f"invalid JSON: {exc}"})
                return
            try:
                graph = graph_from_payload(
                    payload,
                    max_nodes=max_request_nodes,
                    max_edges=max_request_edges,
                )
                model_name = payload.get("model") if isinstance(payload, dict) else None
                result = service.predict(graph, model_name=model_name)
            except ReproError as exc:
                self._send(400, {"error": str(exc)})
                return
            except Exception as exc:  # noqa: BLE001 — last-ditch 500
                logger.exception("unhandled serving error")
                self._send(500, {"error": f"internal error: {exc!r}"})
                return
            self._send(200, result.to_dict())

        # ------------------------------------------------------------------
        def _send(self, status: int, payload: dict) -> None:
            """Write one JSON response, tolerating client disconnects.

            Status line, headers and body leave in one write: with
            ``end_headers()`` the head goes out as a small segment of
            its own, and the body behind it waits for the client's
            delayed (~40 ms) ACK whenever Nagle's algorithm is on.

            A client that hangs up mid-response used to raise
            ``BrokenPipeError`` out of the handler and stack-trace the
            server thread; there is nobody left to answer, so log,
            count it, and drop the connection instead.
            """
            body = json.dumps(payload).encode()
            self.log_request(status)
            head = (
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            try:
                self.wfile.write(head.encode("latin-1") + body)
            except (BrokenPipeError, ConnectionResetError) as exc:
                service.metrics.record_dropped_response()
                self.close_connection = True
                logger.warning(
                    "client %s disconnected mid-response (%s); dropped",
                    getattr(self, "client_address", ("?",))[0],
                    exc.__class__.__name__,
                )

        def log_message(self, fmt: str, *args) -> None:  # noqa: A003
            logger.debug("http: " + fmt, *args)

    return ServingHandler


class ServingHTTPServer:
    """Lifecycle wrapper around ``ThreadingHTTPServer`` + service.

    ``port=0`` binds an ephemeral port (``server.port`` reports the real
    one), which is what the tests use.
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_request_nodes: int = DEFAULT_MAX_REQUEST_NODES,
        max_request_edges: int = DEFAULT_MAX_REQUEST_EDGES,
    ):
        self.service = service
        self._httpd = ThreadingHTTPServer(
            (host, port),
            _make_handler(service, max_request_nodes, max_request_edges),
        )
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        """Bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground path)."""
        logger.info("serving on http://%s:%d", *self.address)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            self.close()

    def start_background(self) -> "ServingHTTPServer":
        """Serve from a daemon thread (tests and embedded use)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the listener and the service's batchers."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServingHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
