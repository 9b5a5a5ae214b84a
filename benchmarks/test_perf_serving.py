"""Serving benchmarks: cache and micro-batching under concurrent load.

``perf``-marked — excluded from the fast suite and run via
``pytest -m perf``. Appends the serving throughput numbers to the
``BENCH_1.json`` and ``BENCH_5.json`` trajectories at the repository
root.
"""

from pathlib import Path

import pytest

from repro.benchmarking import (
    append_bench_entry,
    bench_serving,
    bench_serving_scale,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_1.json"
SCALE_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_5.json"


def test_perf_serving_cache_and_batching():
    """Warm phase beats cold, cache hits are exact, batches coalesce."""
    results = bench_serving(num_graphs=64, threads=8)
    append_bench_entry(BENCH_PATH, {"serving": results})

    # Every warm request is an isomorphic copy of a cold one: the WL
    # cache must answer all of them (hit rate >= warm / total = 1/2;
    # chance WL-collisions between cold graphs can only raise it).
    assert results["cache_hit_rate"] >= 0.5, results

    # Cache hits skip the model forward entirely, so the warm phase must
    # be strictly faster than the cold phase.
    assert (
        results["warm"]["requests_per_second"]
        > results["cold"]["requests_per_second"]
    ), results

    # Concurrent clients must actually coalesce into shared forwards.
    assert results["batch_occupancy_mean"] > 1.0, results

    # Every answer (cold forwards and cached repeats alike) traces back
    # to the model, never the fallback chain: 64 cold + 64 warm.
    assert results["sources"] == {"model": 128}, results

    # Latency sanity: percentile ordering holds.
    latency = results["latency"]
    assert latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]


def test_perf_serving_scale_multi_worker():
    """The scale stack out-serves the thread-per-connection baseline.

    Both stacks serve the same model over real HTTP under the same
    closed-loop load. The scale stack must (a) answer bit-identically,
    (b) sustain strictly more QPS with 2 workers than the
    single-process server, and (c) stay clean under 10x overload —
    bounded p99, no status other than 200/503, every 503 carrying
    Retry-After.
    """
    results = bench_serving_scale(workers=2)
    append_bench_entry(SCALE_BENCH_PATH, {"serving_scale": results})

    assert results["bit_identical"], "scale stack answered differently"

    qps = results["max_sustainable_qps"]
    assert qps["scale"] > qps["baseline"], results["max_sustainable_qps"]

    overload = results["overload"]
    assert overload["clean"], overload
    assert overload["p99_ms"] is not None
    # Sheds bound latency: p99 under overload stays within the shed
    # deadline (default 1s) plus scheduling slop, never unbounded.
    assert overload["p99_ms"] < 5000.0, overload
