"""Shared fixtures for the test suite."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data.dataset import QAOADataset
from repro.data.generation import GenerationConfig, generate_dataset
from repro.graphs.graph import Graph
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    """K3 — the smallest graph with a triangle."""
    return Graph(3, ((0, 1), (1, 2), (0, 2)), name="triangle")


@pytest.fixture
def square():
    """C4 — bipartite, max cut = 4."""
    return Graph.cycle(4, name="square")


@pytest.fixture
def petersen_like():
    """A 3-regular graph on 10 nodes."""
    return random_regular_graph(10, 3, rng=42, name="cubic10")


@pytest.fixture
def weighted_triangle():
    """K3 with distinct weights."""
    return Graph(3, ((0, 1), (1, 2), (0, 2)), (1.0, 2.0, 3.0), name="wk3")


@pytest.fixture(scope="session")
def tiny_dataset():
    """A 24-graph labeled dataset shared across pipeline tests."""
    config = GenerationConfig(
        num_graphs=24, min_nodes=4, max_nodes=8, optimizer_iters=30, seed=99
    )
    return generate_dataset(config)


@pytest.fixture
def keepalive_predict_median_ms():
    """Median latency of 30 back-to-back ``/predict`` calls over one
    keep-alive TCP_NODELAY connection, as ``measure(port)``.

    A server that sends a response's head and body as separate small
    segments stalls each call for the client's delayed ACK (~40 ms).
    """

    def measure(port: int, calls: int = 30) -> float:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        latencies = []
        try:
            for i in range(calls):
                graph = erdos_renyi_graph(6 + i % 8, 0.5, rng=500 + i)
                body = json.dumps(
                    {"num_nodes": graph.num_nodes,
                     "edges": [list(e) for e in graph.edges]}
                )
                start = time.perf_counter()
                connection.request(
                    "POST", "/predict", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                latencies.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
        finally:
            connection.close()
        return statistics.median(latencies)

    return measure


@pytest.fixture
def closed_loop_load():
    """Closed-loop ``/predict`` load as ``run(port, bodies, clients,
    duration_s)``.

    Each of ``clients`` threads keeps one keep-alive connection and
    posts ``bodies`` round-robin until ``duration_s`` elapses, opening a
    new connection after any that drops. Returns the status counts, how
    many 503s lacked ``Retry-After``, the connection errors, and the
    slowest request in milliseconds.
    """

    def run(port: int, bodies, clients: int, duration_s: float) -> dict:
        statuses: Counter = Counter()
        lock = threading.Lock()
        report = {"missing_retry_after": 0, "connection_errors": 0,
                  "max_ms": 0.0}
        stop_at = time.monotonic() + duration_s

        def client(offset: int) -> None:
            connection = None
            i = offset
            while time.monotonic() < stop_at:
                if connection is None:
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=30
                    )
                body = bodies[i % len(bodies)]
                i += 1
                start = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/predict", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = None
                    with lock:
                        report["connection_errors"] += 1
                    continue
                elapsed_ms = (time.perf_counter() - start) * 1e3
                with lock:
                    statuses[response.status] += 1
                    report["max_ms"] = max(report["max_ms"], elapsed_ms)
                    if (response.status == 503
                            and response.getheader("Retry-After") is None):
                        report["missing_retry_after"] += 1
            if connection is not None:
                connection.close()

        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(client, k) for k in range(clients)]:
                future.result()
        report["statuses"] = dict(statuses)
        return report

    return run
