"""Serving benchmarks with machine-readable trajectory output.

Two benchmarks time the online prediction service; the perf-marked
``benchmarks/test_perf_serving.py`` runs them and appends each run to a
JSON trajectory at the repository root:

- :func:`bench_serving` — the service under concurrent in-process
  load: cold throughput (every request a cache miss through the
  micro-batched model path), warm throughput (isomorphic repeats
  answered by the WL-canonical cache), hit rate, batch occupancy, and
  latency percentiles (``BENCH_1.json``);
- :func:`bench_serving_scale` — the threaded HTTP server against the
  multi-process scale stack over real HTTP (``BENCH_5.json``).

Every other performance measurement lives in the ``perfbench/``
harness (``python3 perfbench/run.py``), which times the program end to
end and per layer from outside.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.runtime import ParallelExecutor
from repro.utils.serialization import atomic_write_text

PathLike = Union[str, Path]

BENCH_SCHEMA_VERSION = 1


def bench_serving(
    num_graphs: int = 32,
    threads: int = 8,
    seed: int = 20240305,
) -> Dict[str, object]:
    """Prediction-service throughput, cold (model) and warm (cache).

    Drives a :class:`~repro.serving.service.PredictionService` holding a
    small deterministic GIN model with ``threads`` concurrent clients:

    - **cold** — ``num_graphs`` distinct graphs, every one a cache miss
      answered through the micro-batched model forward;
    - **warm** — a relabeled (isomorphic) copy of each graph, every one
      a WL-canonical cache hit.

    Records wall time and requests/sec for both phases, the final cache
    hit rate, the micro-batcher's mean batch occupancy, and the service
    latency percentiles.
    """
    from repro.gnn.predictor import QAOAParameterPredictor
    from repro.serving import PredictionService

    rng = np.random.default_rng(seed)
    # Irregular graphs: same-size regular graphs share a WL hash (by
    # design), which would make the "cold" phase partly warm.
    graphs = [
        random_connected_graph(
            int(rng.integers(6, 13)), rng=int(rng.integers(0, 2**31))
        )
        for _ in range(num_graphs)
    ]
    isomorphic = []
    for graph in graphs:
        perm = rng.permutation(graph.num_nodes)
        edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
        isomorphic.append(Graph.from_edges(graph.num_nodes, edges))

    model = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=seed)
    model.eval()
    clients = ParallelExecutor(
        backend="thread", max_workers=threads, chunk_size=1, report_every=0
    )
    with PredictionService(model=model) as service:
        start = time.perf_counter()
        clients.map(service.predict, graphs)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        clients.map(service.predict, isomorphic)
        warm_wall = time.perf_counter() - start
        snapshot = service.metrics_snapshot()

    batcher = snapshot.get("batcher", {}).get("default", {})
    return {
        "num_graphs": num_graphs,
        "threads": threads,
        "cold": {
            "wall_time_s": cold_wall,
            "requests_per_second": num_graphs / cold_wall
            if cold_wall > 0
            else 0.0,
        },
        "warm": {
            "wall_time_s": warm_wall,
            "requests_per_second": num_graphs / warm_wall
            if warm_wall > 0
            else 0.0,
        },
        "cache_hit_rate": snapshot["cache"]["hit_rate"],
        "batch_occupancy_mean": batcher.get("mean_occupancy", 0.0),
        "batches": batcher.get("batches", 0),
        "sources": snapshot["sources"],
        "latency": snapshot["latency"],
    }


def bench_serving_scale(
    num_graphs: int = 32,
    workers: int = 2,
    duration_s: float = 2.0,
    levels: Tuple[int, ...] = (2, 4, 8),
    overload_factor: int = 10,
    seed: int = 20240305,
) -> Dict[str, object]:
    """Single-process HTTP serving vs the scale stack, over real HTTP.

    Three arms, all driven by the closed-loop load generator
    (:mod:`repro.serving.scale.loadgen`) against live servers on
    ephemeral ports:

    - **baseline** — the thread-per-connection
      :class:`~repro.serving.http.ServingHTTPServer`, concurrency sweep
      -> max-sustainable-QPS;
    - **scale** — :class:`~repro.serving.scale.ScaleServingServer` with
      ``workers`` forked processes over shared weights, same sweep;
    - **overload** — the scale stack at ``overload_factor`` x its best
      concurrency: p99 must stay bounded (requests shed, not queued),
      only 200/503 statuses may appear, and every 503 must carry
      Retry-After.

    Also replays the workload through both stacks once and asserts the
    answers are bit-identical (the floats round-trip JSON exactly), so
    the reported speedup cannot come from answering differently.
    """
    from repro.gnn.predictor import QAOAParameterPredictor
    from repro.serving import PredictionService, ServingConfig, ServingHTTPServer
    from repro.serving.scale import (
        ScaleConfig,
        ScaleServingServer,
        WorkerPool,
        graph_request_bodies,
        run_load,
        sweep_concurrency,
    )

    rng = np.random.default_rng(seed)
    graphs = [
        random_connected_graph(
            int(rng.integers(6, 13)), rng=int(rng.integers(0, 2**31))
        )
        for _ in range(num_graphs)
    ]
    bodies = graph_request_bodies(graphs)
    model = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=seed)
    model.eval()
    serving_config = ServingConfig()

    def collect_answers(port: int) -> list:
        import json as _json
        import urllib.request

        answers = []
        for body in bodies:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = _json.load(response)
            answers.append((payload["gammas"], payload["betas"]))
        return answers

    baseline_service = PredictionService(model=model, config=serving_config)
    baseline_server = ServingHTTPServer(
        baseline_service, port=0
    ).start_background()
    try:
        baseline_answers = collect_answers(baseline_server.port)
        baseline = sweep_concurrency(
            "127.0.0.1",
            baseline_server.port,
            bodies,
            levels,
            duration_s,
        )
    finally:
        baseline_server.close()

    scale_config = ScaleConfig(workers=workers)
    pool = WorkerPool(
        model=model,
        serving_config=serving_config,
        scale_config=scale_config,
    )
    scale_server = ScaleServingServer(
        pool, model=model, port=0, scale_config=scale_config
    )
    scale_server.start_background()
    try:
        scale_answers = collect_answers(scale_server.port)
        scale = sweep_concurrency(
            "127.0.0.1",
            scale_server.port,
            bodies,
            levels,
            duration_s,
        )
        overload = run_load(
            "127.0.0.1",
            scale_server.port,
            bodies,
            scale["best_concurrency"] * overload_factor,
            duration_s,
        )
    finally:
        scale_server.close()

    bit_identical = baseline_answers == scale_answers
    baseline_qps = baseline["max_sustainable_qps"]
    scale_qps = scale["max_sustainable_qps"]
    overload_clean = (
        set(overload["statuses"]) <= {"200", "503"}
        and overload["retry_after"]["missing"] == 0
        and overload["connection_errors"] == 0
    )
    return {
        "num_graphs": num_graphs,
        "workers": workers,
        "duration_s": duration_s,
        "levels": list(levels),
        "baseline": baseline,
        "scale": scale,
        "overload": {
            "concurrency": overload["concurrency"],
            "factor": overload_factor,
            "statuses": overload["statuses"],
            "p50_ms": overload["p50_ms"],
            "p99_ms": overload["p99_ms"],
            "max_ms": overload["max_ms"],
            "retry_after": overload["retry_after"],
            "connection_errors": overload["connection_errors"],
            "clean": overload_clean,
        },
        "bit_identical": bit_identical,
        "max_sustainable_qps": {
            "baseline": baseline_qps,
            "scale": scale_qps,
        },
        "speedup": scale_qps / baseline_qps if baseline_qps > 0 else 0.0,
    }


def load_trajectory(path: PathLike) -> List[dict]:
    """The existing benchmark trajectory (empty list if absent)."""
    path = Path(path)
    if not path.exists():
        return []
    loaded = json.loads(path.read_text())
    if not isinstance(loaded, list):
        raise ValueError(f"{path} does not hold a benchmark trajectory list")
    return loaded


def append_bench_entry(path: PathLike, results: Dict[str, object]) -> dict:
    """Append one run entry to the ``BENCH_*.json`` trajectory at ``path``."""
    path = Path(path)
    trajectory = load_trajectory(path)
    entry = {
        "schema": BENCH_SCHEMA_VERSION,
        "run": len(trajectory),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
    }
    trajectory.append(entry)
    atomic_write_text(path, json.dumps(trajectory, indent=2) + "\n")
    return entry
