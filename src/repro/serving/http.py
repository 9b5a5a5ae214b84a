"""Stdlib HTTP front-end for the prediction service.

A deliberately dependency-free JSON API on ``http.server``:

- ``POST /predict`` — body ``{"num_nodes": n, "edges": [[u, v], ...],
  "weights": [...]?}`` or ``{"graph": "<text format>"}``; responds with
  ``{"gammas": [...], "betas": [...], "p": ..., "source": ...,
  "cached": ..., "latency_ms": ...}``.
- ``GET /metrics`` — the service metrics snapshot plus the admission
  counters.
- ``GET /healthz`` — model + config health payload.

The server is a ``ThreadingHTTPServer``, so concurrent requests hit the
service from separate threads and get coalesced by the micro-batcher —
the HTTP layer adds no queuing of its own. Once a request's body has
arrived (within :data:`BODY_READ_TIMEOUT_S`), the admission gate
(:mod:`repro.serving.admission`) admits it to the full path, degrades
it to cache-or-fallback, or sheds it with 503 + ``Retry-After``.
A malformed request is a 4xx, never a 500 or a dropped connection.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_text
from repro.serving.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEGRADE,
    RETRY_AFTER_S,
    SHED,
    AdmissionController,
)
from repro.serving.service import PredictionService
from repro.utils.logging import get_logger

logger = get_logger(__name__)

MAX_REQUEST_BYTES = 1 << 20  # 1 MiB body cap
#: Seconds a request body may take to arrive once its headers have.
#: Past it the request gets a 408 and its connection is closed, so a
#: client that announces more bytes than it sends cannot hold a thread.
#: The idle wait between keep-alive requests has no deadline.
BODY_READ_TIMEOUT_S = 10.0

#: Default request-size caps. Large enough for every supported
#: workload (size-agnostic models serve hundreds of nodes), small
#: enough that one hostile request cannot allocate a huge adjacency or
#: stall WL hashing on the hot path. Both are configurable on the
#: server (``repro serve --max-request-nodes/--max-request-edges``).
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
    Non-finite node counts and weights are rejected too.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    if "graph" in payload:
        if not isinstance(payload["graph"], str):
            raise ReproError("'graph' must be a text-format string")
        graph = graph_from_text(payload["graph"])
        _check_request_size(graph.num_nodes, graph.num_edges, max_nodes, max_edges)
        _check_finite_weights(graph.weights)
        return graph
    if "num_nodes" not in payload or "edges" not in payload:
        raise ReproError(
            "request needs 'num_nodes' + 'edges' (or a 'graph' text block)"
        )
    try:
        num_nodes = int(payload["num_nodes"])
        raw_edges = payload["edges"]
        num_edges = len(raw_edges)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ReproError(f"malformed graph payload: {exc}") from exc
    _check_request_size(num_nodes, num_edges, max_nodes, max_edges)
    try:
        edges = [(int(u), int(v)) for u, v in raw_edges]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ReproError(f"malformed graph payload: {exc}") from exc
    weights = payload.get("weights")
    if weights is not None:
        try:
            weights = tuple(float(w) for w in weights)
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed weights: {exc}") from exc
        _check_finite_weights(weights)
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


def _check_finite_weights(weights: Sequence[float]) -> None:
    """Reject NaN and infinite edge weights with a 400 message."""
    if not all(map(math.isfinite, weights)):
        raise ReproError("edge weights must be finite numbers")


def _make_handler(
    service: PredictionService,
    admission: AdmissionController,
    max_request_nodes: int = DEFAULT_MAX_REQUEST_NODES,
    max_request_edges: int = DEFAULT_MAX_REQUEST_EDGES,
):
    class ServingHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # A request line too mangled to name its version still gets a
        # status line with its 400 (stdlib assumes HTTP/0.9 and omits it).
        default_request_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket: a response never waits
        # on the client's delayed ACK of an earlier segment.
        disable_nagle_algorithm = True

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — http.server API
            if self.path == "/metrics":
                self._send(
                    200, service.metrics_snapshot(admission=admission.stats())
                )
            elif self.path == "/healthz":
                health = service.describe()
                health["config"]["max_inflight"] = admission.max_inflight
                self._send(200, health)
            else:
                self._send(404, {"error": f"no route {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            if self.path != "/predict":
                # The unread body would be parsed as the next request.
                self.close_connection = True
                self._send(404, {"error": f"no route {self.path!r}"})
                return
            body = self._read_body()
            if body is None:
                return
            decision = admission.decide()
            if decision == SHED:
                self._send(
                    503,
                    {
                        "error": "overloaded; request shed",
                        "retry_after_s": RETRY_AFTER_S,
                    },
                    (("Retry-After", str(RETRY_AFTER_S)),),
                )
                return
            try:
                status, payload = self._answer(body, decision == DEGRADE)
            finally:
                admission.release(decision)
            self._send(status, payload)

        def _read_body(self) -> Optional[bytearray]:
            """The request body, or ``None`` once an error is answered.

            The whole body must arrive within
            :data:`BODY_READ_TIMEOUT_S`; the socket deadline is set only
            around this read, never over the keep-alive idle wait.
            """
            try:
                length = parse_content_length(
                    self.headers.get("Content-Length")
                )
            except ReproError as exc:
                # The body's extent is unknown, so the connection cannot
                # carry another request.
                self.close_connection = True
                self._send(400, {"error": str(exc)})
                return None
            body = bytearray(length)
            received = 0
            if length:
                view = memoryview(body)
                deadline = time.monotonic() + BODY_READ_TIMEOUT_S
                try:
                    while received < length:
                        left = deadline - time.monotonic()
                        if left <= 0:
                            raise TimeoutError
                        self.connection.settimeout(left)
                        count = self.rfile.readinto1(view[received:])
                        if not count:
                            break  # the client closed mid-body
                        received += count
                except TimeoutError:
                    self.close_connection = True
                    self._send(
                        408,
                        {
                            "error": "request body did not arrive within "
                            f"{BODY_READ_TIMEOUT_S:g}s"
                        },
                    )
                    return None
                except (BrokenPipeError, ConnectionResetError) as exc:
                    service.metrics.record_dropped_response()
                    self.close_connection = True
                    logger.warning(
                        "client disconnected mid-request (%s); dropped",
                        exc.__class__.__name__,
                    )
                    return None
                finally:
                    self.connection.settimeout(None)
            if received < length:
                self.close_connection = True
                self._send(
                    400,
                    {
                        "error": f"request body ended after {received} of "
                        f"{length} bytes"
                    },
                )
                return None
            return body

        def _answer(
            self, body: bytearray, degraded: bool
        ) -> Tuple[int, dict]:
            """Status and JSON payload for one gated ``/predict`` body."""
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError) as exc:
                # ValueError covers bad JSON and non-UTF-8 bytes.
                return 400, {"error": f"invalid JSON: {exc}"}
            try:
                graph = graph_from_payload(
                    payload,
                    max_nodes=max_request_nodes,
                    max_edges=max_request_edges,
                )
                result = service.predict(
                    graph, model_name=payload.get("model"), degraded=degraded
                )
            except (ReproError, RecursionError) as exc:
                return 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — last-ditch 500
                logger.exception("unhandled serving error")
                return 500, {"error": f"internal error: {exc!r}"}
            return 200, result.to_dict()

        # ------------------------------------------------------------------
        def _send(
            self,
            status: int,
            payload: dict,
            headers: Sequence[Tuple[str, str]] = (),
        ) -> None:
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
                + "".join(f"{name}: {value}\r\n" for name, value in headers)
                + f"Content-Length: {len(body)}\r\n\r\n"
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


class _ThreadingHTTPServer(ThreadingHTTPServer):
    #: Listen backlog. The stdlib default of 5 resets connections when
    #: dozens of clients connect at once (seen at 40 keep-alive clients).
    request_queue_size = 128


class ServingHTTPServer:
    """Lifecycle wrapper around ``ThreadingHTTPServer`` + service.

    ``port=0`` binds an ephemeral port (``server.port`` reports the real
    one), which is what the tests use. ``max_inflight`` sizes the
    admission gate (``server.admission``).
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_request_nodes: int = DEFAULT_MAX_REQUEST_NODES,
        max_request_edges: int = DEFAULT_MAX_REQUEST_EDGES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ):
        self.service = service
        self.admission = AdmissionController(max_inflight)
        self._httpd = _ThreadingHTTPServer(
            (host, port),
            _make_handler(
                service, self.admission, max_request_nodes, max_request_edges
            ),
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
