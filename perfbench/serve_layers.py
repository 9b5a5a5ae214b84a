"""Per-layer numbers of a traced serve run.

Sources: the spans the traced server wrote, its ``/metrics`` counters
over the rungs (after the warm-up), and the client's own timings (wire time is client time on the
connection minus the service time the response reports).
"""

from __future__ import annotations

import json

from perfbench.common import TAIL_PERCENTILE, percentile
from perfbench.serve import STALL_MS
from perfbench.tracing import by_name, self_times


def _mean_self_ms(items, own) -> float:
    return sum(own[s["id"]] for s in items) / len(items) * 1e3 if items else 0.0


def _batch_wait_ms(waits, forwards) -> float:
    """Mean time a request spent in ``MicroBatcher.predict`` outside the
    forward pass that answered it."""
    if not waits:
        return 0.0
    by_graph = {}
    for span in forwards:
        for graph in span.get("graphs", ()):
            by_graph.setdefault(graph, []).append(span)
    total = 0.0
    for wait in waits:
        forward = next(
            (f for f in by_graph.get(wait["graph"], ())
             if wait["start"] <= f["start"] and f["end"] <= wait["end"]),
            None,
        )
        busy = forward["end"] - forward["start"] if forward else 0.0
        total += (wait["end"] - wait["start"]) - busy
    return total / len(waits) * 1e3


def serve_layers(spans, server_metrics: dict, driven: dict) -> dict:
    """name -> (value, unit, samples), over the rungs after the warm-up.

    The server's spans use the same monotonic clock as the client, so the
    first rung's start separates them from the warm-up.
    """
    spans = [s for s in spans if s["start"] >= driven["steps"][0].start]
    own = self_times(spans)
    named = by_name(spans)
    requests = named.get("http.request", [])
    predict = named.get("gnn.predict", [])
    wl = named.get("graphs.wl_hash", [])
    features = named.get("graphs.features", [])
    parse = named.get("serving.parse", [])
    grad = named.get("qaoa.grad", [])
    optimum = named.get("maxcut.optimum", [])

    reference = driven["steps"][0].outcomes
    answered = [o for o in reference if not o.error and o.status == 200]
    service = [json.loads(o.body)["latency_ms"] for o in answered]
    wire = [(o.done - o.sent) * 1e3 - s for o, s in zip(answered, service)]
    outcomes = [o for step in [driven["warm"], *driven["steps"]] for o in step.outcomes]
    failed = sum(1 for o in outcomes if not o.correct)

    # Server counters over the rungs: final snapshot minus the warm-up's.
    before, after = driven["warm_metrics"], server_metrics

    def counter(snapshot, *path):
        for key in path:
            snapshot = snapshot.get(key) or {}
        return snapshot if isinstance(snapshot, (int, float)) else 0

    def delta(*path):
        return counter(after, *path) - counter(before, *path)

    def batcher_delta(key):
        return sum(
            counter(snapshot, "batcher", name, key) * sign
            for snapshot, sign in ((after, 1), (before, -1))
            for name in (snapshot.get("batcher") or {})
        )

    served = delta("requests")
    hits = delta("cache", "hits")
    lookups = hits + delta("cache", "misses")
    batched, batches = batcher_delta("requests"), batcher_delta("batches")

    layers = {
        "qaoa.grad_calls": (len(grad), "count", len(grad)),
        "qaoa.grad_ms": (_mean_self_ms(grad, own), "ms", len(grad)),
        "maxcut.optimum_ms": (_mean_self_ms(optimum, own), "ms", len(optimum)),
        "gnn.predict_calls": (len(predict), "count", len(predict)),
        "gnn.predict_ms": (_mean_self_ms(predict, own), "ms", len(predict)),
        "gnn.graphs_per_predict": (
            sum(s["batch"] for s in predict) / len(predict) if predict else 0.0,
            "count", len(predict)),
        "graphs.wl_hash_ms": (_mean_self_ms(wl, own), "ms", len(wl)),
        "graphs.wl_hash_per_request": (
            len(wl) / len(requests) if requests else 0.0, "count", len(requests)),
        "graphs.features_ms": (_mean_self_ms(features, own), "ms", len(features)),
        "serving.service_p50_ms": (percentile(service, 50), "ms", len(service)),
        "serving.service_p96_ms": (percentile(service, TAIL_PERCENTILE), "ms", len(service)),
        "serving.wire_p50_ms": (percentile(wire, 50), "ms", len(wire)),
        "serving.wire_p96_ms": (percentile(wire, TAIL_PERCENTILE), "ms", len(wire)),
        "serving.wire_stall_share": (
            sum(w >= STALL_MS for w in wire) / len(wire) if wire else 0.0, "ratio", len(wire)),
        "serving.parse_ms": (_mean_self_ms(parse, own), "ms", len(parse)),
        "serving.batch_wait_ms": (
            _batch_wait_ms(named.get("serving.batch_wait", []), predict), "ms",
            len(named.get("serving.batch_wait", []))),
        "serving.cache_hit_share": (hits / lookups if lookups else 0.0, "ratio", lookups),
        "serving.batch_occupancy": (batched / batches if batches else 0.0, "count", batches),
        "serving.fallback_share": (
            delta("fallback_requests") / served if served else 0.0, "ratio", served),
        "serving.errors": (delta("errors"), "count", served),
        "client.sent": (len(outcomes), "count", len(outcomes)),
        "client.failed": (failed, "count", len(outcomes)),
        "client.late_p99_ms": (
            percentile([o.late_ms for o in outcomes], 99), "ms", len(outcomes)),
        "client.queue_p99_ms": (
            percentile([o.queue_ms for o in outcomes if o.sent], 99), "ms", len(outcomes)),
    }
    return layers
