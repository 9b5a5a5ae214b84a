"""Non-blocking HTTP front-end over the worker pool.

The front-end replaces the thread-per-connection server on the scale
path. One asyncio event loop does *parse, admission, and routing only*:

1. Parse the request (manual HTTP/1.1 over asyncio streams — no
   thread spawn, no readline-per-byte handler machinery).
2. Build the graph, compute its 1-WL hash **once** (it is the shard
   router, the cache key, and the replay dedup key).
3. Check the hot-set L1 cache — the worker shards stay authoritative,
   the L1 only short-circuits the pipe round-trip for WL classes hot
   enough to repeat within a couple thousand requests.
4. Admission gate (:mod:`repro.serving.scale.admission`): admit to the
   owning shard, degrade to the front-end fallback chain, or shed
   with 503 + Retry-After. Admitted requests carry a deadline; one
   unanswered past it is dropped with 503 rather than queued deeper.
5. Per-worker circuit breakers (PR 5's
   :class:`~repro.serving.breaker.CircuitBreaker`): worker failures
   and deadline drops trip the shard onto the fallback chain until a
   probe succeeds. A *dead* worker additionally schedules one
   background respawn — the pool forks a replacement on the current
   manifest, its cache shard is warmed from the latest snapshot, and
   the restart is counted in ``/metrics`` — while traffic for the
   shard keeps degrading to fallbacks until the replacement is live.

Replay logging and the flywheel watcher both live here, in the single
front-end process: the replay log keeps its single-writer invariant no
matter how many workers serve, and the watcher's
``service.swap_model(...)`` contract is satisfied by this class — a
promoted checkpoint is written into the shared slab and barriered
across every worker before the swap is acked.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from repro.exceptions import ReproError
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.canonical import wl_canonical_hash
from repro.qaoa.fixed_angles import FixedAngleTable
from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import PredictionCache
from repro.serving.fallbacks import FallbackChain
from repro.serving.http import (
    DEFAULT_MAX_REQUEST_EDGES,
    DEFAULT_MAX_REQUEST_NODES,
    MAX_REQUEST_BYTES,
    graph_from_payload,
    parse_content_length,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry
from repro.serving.scale.admission import ADMIT, DEGRADE, AdmissionController
from repro.serving.scale.config import ScaleConfig, ScaleError
from repro.serving.scale.pool import WorkerPool
from repro.serving.service import PredictionResult
from repro.utils.logging import get_logger

logger = get_logger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_MAX_HEADERS = 64


class ScaleServingServer:
    """Asyncio front-end + worker pool behind the PR 2 server's API.

    Exposes the same surface the single-process
    :class:`~repro.serving.http.ServingHTTPServer` does (``port``,
    ``start_background``, ``serve_forever``, ``close``, context
    manager) plus the :class:`~repro.flywheel.watcher.ModelWatcher`
    service contract (``registry`` + ``swap_model``), so the CLI and
    the flywheel drive either stack interchangeably.
    """

    def __init__(
        self,
        pool: WorkerPool,
        model: Optional[QAOAParameterPredictor] = None,
        host: str = "127.0.0.1",
        port: int = 8000,
        scale_config: Optional[ScaleConfig] = None,
        replay_log=None,
        fixed_angle_table: Optional[FixedAngleTable] = None,
        cache_snapshot_path=None,
        max_request_nodes: int = DEFAULT_MAX_REQUEST_NODES,
        max_request_edges: int = DEFAULT_MAX_REQUEST_EDGES,
    ):
        self.pool = pool
        self.host = host
        self._requested_port = port
        self.max_request_nodes = max_request_nodes
        self.max_request_edges = max_request_edges
        self.scale_config = scale_config or pool.scale_config
        self.replay_log = replay_log
        self.cache_snapshot_path = cache_snapshot_path
        self.metrics = ServingMetrics()
        self.admission = AdmissionController(self.scale_config)
        #: Mirror of what the pool serves, for /healthz and the watcher.
        self.registry = ModelRegistry()
        if model is not None:
            self.registry.register("default", model, source="<scale>")
        self.default_p = pool.serving_config.default_p
        self._l1: Optional[PredictionCache] = (
            PredictionCache(max_size=self.scale_config.l1_cache_size)
            if self.scale_config.l1_cache_size > 0
            else None
        )
        self._fallbacks = {}
        self._fixed_angle_table = fixed_angle_table
        self._breakers = [
            CircuitBreaker(
                failure_threshold=self.scale_config.breaker_threshold,
                reset_timeout_s=self.scale_config.breaker_reset_s,
            )
            for _ in range(pool.num_workers)
        ]
        self._swap_lock = threading.Lock()
        # Shards with a respawn in flight (guarded by _revive_lock):
        # the first request that finds a shard dead schedules exactly
        # one revival; the rest degrade to fallbacks until it lands.
        self._revive_lock = threading.Lock()
        self._reviving: set = set()
        # CPU-bound request work — graph parse + WL hash, fallback
        # resolution, replay-log appends — runs here, off the event
        # loop, so a burst of degraded traffic cannot serialize all
        # request handling and starve worker-reply processing. Small on
        # purpose: it also bounds degraded-path concurrency.
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-frontend-cpu"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._bound_port: Optional[int] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Model identity
    # ------------------------------------------------------------------
    def _model_key_and_p(self) -> Tuple[str, int]:
        """The cache-key prefix and depth current requests resolve under."""
        if len(self.registry):
            entry = self.registry.get()
            return entry.fingerprint, entry.model.p
        return f"fallback-p{self.default_p}", self.default_p

    def swap_model(
        self,
        model: QAOAParameterPredictor,
        name: str = "default",
        source: str = "<hot-swap>",
        version: Optional[int] = None,
    ) -> dict:
        """Hot-swap every worker onto ``model`` (watcher entry point).

        Blocks until the pool's swap barrier completes — all workers
        drained and serving the new fingerprint — then invalidates the
        front-end L1 under the old fingerprint. If the pool's swap
        fails partway it rolls acked workers back and raises before
        the registry or L1 are touched, so the front-end keeps
        reflecting the fingerprint actually being served; an
        unconfirmable rollback is flagged on ``/healthz`` as
        ``fingerprint_consistent: false``.
        """
        with self._swap_lock:
            old = self.registry.get(name) if name in self.registry else None
            summary = self.pool.swap_model(model, version=version)
            entry = self.registry.register(name, model, source=source)
            invalidated = 0
            if (
                self._l1 is not None
                and old is not None
                and old.fingerprint != entry.fingerprint
            ):
                invalidated = self._l1.invalidate_model(old.fingerprint)
            self.metrics.record_hot_swap()
            if version is not None:
                self.metrics.set_promotion_version(version)
            logger.info(
                "scale hot-swap %r: %s -> %s (%d workers, %d L1 entries "
                "invalidated)",
                name,
                old.fingerprint if old is not None else "<none>",
                entry.fingerprint,
                len(summary.get("workers", {})),
                invalidated,
            )
            summary = dict(summary)
            summary.update(
                {
                    "name": name,
                    "old_fingerprint": (
                        old.fingerprint if old is not None else None
                    ),
                    "new_fingerprint": entry.fingerprint,
                    "invalidated_l1_entries": invalidated,
                    "version": version,
                }
            )
            return summary

    # ------------------------------------------------------------------
    # Cache snapshot / warm-up
    # ------------------------------------------------------------------
    def save_cache_snapshot(self, path) -> int:
        """Export every shard's cache (plus the L1) to a JSON file."""
        snapshot = self.pool.snapshot()
        if self._l1 is not None:
            snapshot["l1_entries"] = self._l1.export_entries()
        from repro.utils.serialization import save_json

        save_json(snapshot, path)
        return len(snapshot["entries"])

    def load_cache_snapshot(self, path) -> int:
        """Warm every shard (and the L1) from a snapshot file."""
        from repro.utils.serialization import load_json

        snapshot = load_json(path)
        loaded = self.pool.warm_up(snapshot)
        if self._l1 is not None and snapshot.get("l1_entries"):
            loaded += self._l1.import_entries(snapshot["l1_entries"])
        logger.info("cache warm-up loaded %d entries from %s", loaded, path)
        return loaded

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    break
                except ReproError as exc:
                    # A bad Content-Length leaves the body's extent
                    # unknown: answer 400, then close (the transport
                    # flushes the answer before it shuts).
                    writer.write(self._render(400, {"error": str(exc)}))
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, payload, extra = await self._route(
                        method, path, body
                    )
                except Exception as exc:  # noqa: BLE001 — last-ditch 500
                    logger.exception("unhandled scale-serving error")
                    status, payload, extra = (
                        500,
                        {"error": f"internal error: {exc!r}"},
                        (),
                    )
                writer.write(self._render(status, payload, extra))
                try:
                    await writer.drain()
                except (BrokenPipeError, ConnectionResetError):
                    self.metrics.record_dropped_response()
                    break
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,  # shutdown cancels keep-alive waits
                BrokenPipeError,
                ConnectionResetError,
                OSError,
            ):
                pass

    async def _read_request(self, reader):
        """One HTTP/1.1 request, or ``None`` at a clean EOF.

        Raises :class:`ReproError` for a ``Content-Length`` that is not
        a byte count within the body cap.
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers = {}
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None  # header bomb; drop the connection
        length = parse_content_length(headers.get("content-length"))
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _render(self, status: int, payload: dict, extra=()) -> bytes:
        body = json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        return ("\r\n".join(head) + "\r\n\r\n").encode() + body

    async def _route(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/metrics":
            return 200, await self._metrics_payload(), ()
        if method == "GET" and path == "/healthz":
            return 200, await self._healthz_payload(), ()
        if method == "POST" and path == "/predict":
            return await self._predict(body)
        return 404, {"error": f"no route {path!r}"}, ()

    async def _predict(self, body: bytes):
        self.admission.enter()
        try:
            return await self._predict_gated(body)
        finally:
            self.admission.exit()

    def _parse_request(self, body: bytes):
        """JSON decode + graph build + WL hash (CPU-bound; executor).

        The request-size cap is enforced here, before any adjacency is
        materialized or WL-hashed, so an oversized graph costs a 400
        and nothing else.
        """
        payload = json.loads(body)
        graph = graph_from_payload(
            payload,
            max_nodes=self.max_request_nodes,
            max_edges=self.max_request_edges,
        )
        return payload, graph, wl_canonical_hash(graph)

    async def _predict_gated(self, body: bytes):
        start = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            payload, graph, wl_hash = await loop.run_in_executor(
                self._executor, self._parse_request, body
            )
        except json.JSONDecodeError as exc:
            return 400, {"error": f"invalid JSON: {exc}"}, ()
        except ReproError as exc:
            return 400, {"error": str(exc)}, ()
        model_name = (
            payload.get("model") if isinstance(payload, dict) else None
        )
        model_key, p = self._model_key_and_p()
        key = f"{model_key}:{wl_hash}"

        # L1 hot-set hit: no admission slot, no pipe round-trip.
        if self._l1 is not None:
            hit = self._l1.get(key)
            if hit is not None:
                gammas, betas, source = hit
                return await self._answer(
                    graph, key, p, gammas, betas, source, True, start
                )

        decision = self.admission.decide()
        if decision == ADMIT:
            try:
                return await self._predict_admitted(
                    graph, model_name, wl_hash, key, p, start
                )
            finally:
                self.admission.release()
        if decision == DEGRADE:
            return await self._degraded_answer(graph, wl_hash, p, start)
        return self._shed_response()

    async def _predict_admitted(
        self, graph, model_name, wl_hash, key, p, start
    ):
        shard = self.pool.route(wl_hash)
        breaker = self._breakers[shard]
        if not self.pool.worker_alive(shard):
            self._schedule_revival(shard)
            self.admission.record_breaker_degrade()
            self.metrics.record_breaker_rejection()
            return await self._degraded_answer(graph, wl_hash, p, start)
        if not breaker.allow():
            self.admission.record_breaker_degrade()
            self.metrics.record_breaker_rejection()
            return await self._degraded_answer(graph, wl_hash, p, start)
        future, _ = self.pool.predict_future(
            graph, wl_hash, model_name=model_name
        )
        try:
            answer = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=self.admission.deadline_s
            )
        except asyncio.TimeoutError:
            # Deadline-aware drop: bounded latency beats a deep queue.
            self.admission.record_deadline_drop()
            self.metrics.record_model_failure(timed_out=True)
            if breaker.record_failure():
                self.metrics.record_breaker_trip()
            return self._shed_response()
        except Exception as exc:  # noqa: BLE001 — worker error/death
            logger.warning("worker %d predict failed (%s)", shard, exc)
            if not self.pool.worker_alive(shard):
                self._schedule_revival(shard)
            self.metrics.record_model_failure()
            if breaker.record_failure():
                self.metrics.record_breaker_trip()
            return await self._degraded_answer(graph, wl_hash, p, start)
        breaker.record_success()
        gammas = tuple(float(g) for g in answer["gammas"])
        betas = tuple(float(b) for b in answer["betas"])
        source = answer["source"]
        key = answer.get("cache_key", key)
        if self._l1 is not None:
            self._l1.put(key, (gammas, betas, source))
        return await self._answer(
            graph,
            key,
            int(answer["p"]),
            gammas,
            betas,
            source,
            bool(answer.get("cached", False)),
            start,
            worker_latency_ms=answer.get("latency_ms"),
            shard=answer.get("shard"),
        )

    async def _degraded_answer(self, graph, wl_hash, p, start):
        """Fallback-chain answer resolved off-loop (bounded CPU).

        Runs on the executor: under degrade-heavy overload this is the
        hot path, and resolving inline would serialize the event loop
        exactly when it most needs to keep draining worker replies.
        """
        chain = self._fallbacks.get(p)
        if chain is None:
            chain = FallbackChain(p, table=self._fixed_angle_table)
            self._fallbacks[p] = chain
        loop = asyncio.get_running_loop()
        fallback = await loop.run_in_executor(
            self._executor, chain.resolve, graph
        )
        key = f"fallback-p{p}:{wl_hash}"
        status, payload, extra = await self._answer(
            graph,
            key,
            p,
            fallback.gammas,
            fallback.betas,
            fallback.source,
            False,
            start,
        )
        payload["degraded"] = True
        return status, payload, extra

    def _schedule_revival(self, shard: int) -> None:
        """Kick off at most one background respawn for a dead shard."""
        if self._closed:
            return
        with self._revive_lock:
            if shard in self._reviving:
                return
            self._reviving.add(shard)
        self._executor.submit(self._revive_worker, shard)

    def _revive_worker(self, shard: int) -> None:
        """Respawn a dead worker and warm its cache shard (executor).

        The replacement boots on the pool's current manifest; its
        empty cache shard is warmed from the latest snapshot file when
        one exists, and its breaker is replaced so the first real
        request probes the fresh worker instead of waiting out the old
        breaker's open window.
        """
        try:
            if not self.pool.respawn_worker(shard):
                return
            self._breakers[shard] = CircuitBreaker(
                failure_threshold=self.scale_config.breaker_threshold,
                reset_timeout_s=self.scale_config.breaker_reset_s,
            )
            loaded = 0
            if self.cache_snapshot_path is not None:
                from repro.utils.serialization import load_json

                try:
                    snapshot = load_json(self.cache_snapshot_path)
                    loaded = self.pool.warm_up(snapshot, only_shard=shard)
                except FileNotFoundError:
                    pass  # no snapshot yet; the shard warms organically
                except Exception as exc:  # noqa: BLE001 — warm-up is best effort
                    logger.warning(
                        "shard %d warm-up after respawn failed (%s)",
                        shard,
                        exc,
                    )
            logger.info(
                "revived worker %d (%d cache entries warmed)", shard, loaded
            )
        except Exception as exc:  # noqa: BLE001 — revival must not kill serving
            logger.warning("worker %d respawn failed (%s)", shard, exc)
        finally:
            with self._revive_lock:
                self._reviving.discard(shard)

    def _shed_response(self):
        retry_after = self.admission.retry_after_s
        return (
            503,
            {
                "error": "overloaded; request shed",
                "retry_after_s": retry_after,
            },
            (("Retry-After", f"{max(1, int(round(retry_after)))}"),),
        )

    async def _answer(
        self,
        graph,
        key: str,
        p: int,
        gammas,
        betas,
        source: str,
        cached: bool,
        start: float,
        worker_latency_ms=None,
        shard=None,
    ):
        latency_s = time.perf_counter() - start
        result = PredictionResult(
            tuple(float(g) for g in gammas),
            tuple(float(b) for b in betas),
            int(p),
            source,
            cached,
            latency_s,
            key,
        )
        self.metrics.record_request(latency_s, source, cached)
        if self.replay_log is not None:
            # File append runs off-loop; the log's own lock serializes
            # concurrent writers, so record ordering is preserved per
            # request while the event loop keeps handling traffic.
            loop = asyncio.get_running_loop()
            try:
                outcome = await loop.run_in_executor(
                    self._executor,
                    self.replay_log.log_prediction,
                    graph,
                    result,
                )
            except Exception as exc:  # noqa: BLE001 — log must not break serving
                logger.warning("replay logging failed (%s); dropped", exc)
                self.metrics.record_replay_drop()
            else:
                if outcome is True:
                    self.metrics.record_replay_logged()
                elif outcome is False:
                    self.metrics.record_replay_drop()
        payload = result.to_dict()
        if worker_latency_ms is not None:
            payload["worker_latency_ms"] = worker_latency_ms
        if shard is not None:
            payload["shard"] = shard
        return 200, payload, ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def _metrics_payload(self) -> dict:
        loop = asyncio.get_running_loop()
        try:
            workers = await asyncio.wait_for(
                loop.run_in_executor(None, self.pool.metrics), timeout=10.0
            )
        except Exception as exc:  # noqa: BLE001 — metrics must not 500
            workers = {"error": f"unavailable: {exc}"}
        admission = self.admission.stats()
        admission["worker_breakers"] = {
            str(shard): breaker.snapshot()
            for shard, breaker in enumerate(self._breakers)
        }
        return self.metrics.snapshot(
            cache_stats=self._l1.stats() if self._l1 is not None else None,
            models=self.registry.describe(),
            replay_stats=(
                self.replay_log.stats()
                if self.replay_log is not None
                else None
            ),
            admission=admission,
            workers=workers,
        )

    async def _healthz_payload(self) -> dict:
        loop = asyncio.get_running_loop()
        try:
            statuses = await asyncio.wait_for(
                loop.run_in_executor(None, self.pool.ping_all), timeout=10.0
            )
        except Exception:  # noqa: BLE001 — report what we know
            statuses = []
        alive = sum(1 for status in statuses if status.get("alive"))
        consistent = not self.pool.swap_inconsistent
        healthy = alive == self.pool.num_workers and consistent
        return {
            "status": "ok" if healthy else "degraded",
            "mode": "scale",
            "fingerprint_consistent": consistent,
            "workers": statuses,
            "models": self.registry.describe(),
            "config": {
                "workers": self.pool.num_workers,
                "max_inflight": self.scale_config.max_inflight,
                "shed_limit": self.scale_config.shed_limit,
                "shed_deadline_ms": self.scale_config.shed_deadline_ms,
                "inference_threads": self.scale_config.inference_threads,
                "l1_cache_size": self.scale_config.l1_cache_size,
                "default_p": self.default_p,
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """Bound port (useful with ``port=0``)."""
        if self._bound_port is None:
            raise ScaleError("server is not started")
        return self._bound_port

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=MAX_REQUEST_BYTES + (1 << 14),
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def _stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel lingering keep-alive connection handlers so the loop
        # closes without "task was destroyed but pending" noise.
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def start_background(self) -> "ScaleServingServer":
        """Run the event loop on a daemon thread (tests, embedding)."""
        started = threading.Event()
        failure: list = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._start())
            except Exception as exc:  # noqa: BLE001 — surfaced to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._stop())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-scale-frontend", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30.0)
        if failure:
            raise failure[0]
        if self._bound_port is None:
            raise ScaleError("front-end failed to start")
        return self

    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground path)."""
        self.start_background()
        logger.info("scale serving on http://%s:%d", self.host, self.port)
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=1.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop the loop, snapshot the cache, stop workers, release logs."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._executor.shutdown(wait=False)
        if self.cache_snapshot_path is not None:
            try:
                saved = self.save_cache_snapshot(self.cache_snapshot_path)
                logger.info(
                    "saved %d cache entries to %s",
                    saved,
                    self.cache_snapshot_path,
                )
            except Exception as exc:  # noqa: BLE001 — shutdown must finish
                logger.warning("cache snapshot save failed (%s)", exc)
        self.pool.close()
        if self.replay_log is not None:
            self.replay_log.close()

    def __enter__(self) -> "ScaleServingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
