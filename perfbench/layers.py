"""The per-layer metrics of a traced run, and what each should move.

Every traced run reports every metric below; a layer that does no work on
a workload reports 0 there, which is itself the prediction ("should not
move on").  ``NOT_MEASURED`` lists what a wrapper outside the program
cannot see.
"""

from __future__ import annotations

from perfbench.common import TAIL_PERCENTILE

#: The end-to-end metrics every untraced run reports, whatever the workload:
#: its operations (a graph labeled, a training epoch, a ``/predict``
#: request) per second, their median and tail latency, set-up time and
#: peak memory.
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "p50_ms", f"p{TAIL_PERCENTILE}_ms")

# name: (unit, better, end-to-end metrics it should move and on which
# workloads; "serve" is both serve workloads).  It should not move the
# others.
PER_LAYER = {
    "qaoa.grad_calls": ("count", "lower", "label ops_per_s, p50_ms, p96_ms"),
    "qaoa.grad_ms": ("ms", "lower", "label ops_per_s, p50_ms, p96_ms"),
    "qaoa.share": ("ratio", "lower", "label ops_per_s"),
    "maxcut.optimum_ms": ("ms", "lower", "label ops_per_s, p96_ms"),
    "maxcut.cache_hit_share": ("ratio", "higher", "none: measured in train's output check"),
    "runtime.tasks": ("count", "lower", "label ops_per_s"),
    "runtime.retried": ("count", "lower", "label ops_per_s"),
    "runtime.failed": ("count", "lower", "failed share"),
    "data.compile_ms": ("ms", "lower", "train setup_s"),
    "data.batch_ms": ("ms", "lower", "train ops_per_s, p50_ms"),
    "nn.forward_ms": ("ms", "lower", "train ops_per_s, p50_ms"),
    "nn.backward_ms": ("ms", "lower", "train ops_per_s, p50_ms"),
    "nn.optimizer_ms": ("ms", "lower", "train ops_per_s, p50_ms"),
    "nn.kernels": ("count", "lower", "train ops_per_s, p50_ms"),
    "nn.ops": ("count", "lower", "train ops_per_s, p50_ms"),
    "nn.realizes": ("count", "lower", "train ops_per_s, p50_ms"),
    "nn.peak_temp_bytes": ("B", "lower", "train ops_per_s, peak_rss_mb"),
    "pipeline.warm_start_gain_pp": (
        "pp", "higher", "none: exact per seed, so a move means behaviour changed "
        "(3-iteration labels: not the paper's figure)"),
    "gnn.predict_calls": ("count", "lower", "serve-unique p50_ms, ops_per_s"),
    "gnn.predict_ms": ("ms", "lower", "serve-unique p50_ms, ops_per_s"),
    "gnn.graphs_per_predict": ("count", "higher", "serve-unique ops_per_s"),
    "graphs.wl_hash_ms": ("ms", "lower", "serve p50_ms, ops_per_s"),
    "graphs.wl_hash_per_request": ("count", "lower", "serve p50_ms, ops_per_s"),
    "graphs.features_ms": ("ms", "lower", "serve-unique p50_ms, ops_per_s"),
    "serving.service_p50_ms": ("ms", "lower", "serve p50_ms"),
    "serving.service_p96_ms": ("ms", "lower", "serve p96_ms"),
    "serving.wire_p50_ms": ("ms", "lower", "serve p50_ms"),
    "serving.wire_p96_ms": ("ms", "lower", "serve p96_ms, ops_per_s"),
    "serving.wire_stall_share": ("ratio", "lower", "serve p96_ms, ops_per_s"),
    "serving.parse_ms": ("ms", "lower", "serve p50_ms, ops_per_s"),
    "serving.batch_wait_ms": ("ms", "lower", "serve-unique p50_ms"),
    "serving.cache_hit_share": ("ratio", "higher", "serve p50_ms, ops_per_s"),
    "serving.batch_occupancy": ("count", "higher", "serve-unique ops_per_s"),
    "serving.fallback_share": ("ratio", "lower", "serve-unique p96_ms"),
    "serving.errors": ("count", "lower", "failed share"),
    "client.sent": ("count", "higher", "validity of every serve number"),
    "client.failed": ("count", "lower", "validity of every serve number"),
    "client.late_p99_ms": ("ms", "lower", "validity of every serve number"),
    "client.queue_p99_ms": ("ms", "lower", "serve p96_ms"),
}

#: What the traced run cannot measure from outside the program, and why.
NOT_MEASURED = {
    "serving admission wait": "the threaded server has no admission stage; "
    "a request waits only in the kernel's accept queue, which no Python "
    "call exposes",
    "serving serialize time": "json.dumps and the socket writes happen inline "
    "in the request handler; they are inside the http.request span's self "
    "time, not a span of their own",
    "per-GNN-layer forward/backward": "the lazy engine realizes the whole step "
    "at backward(); layer calls only record ops, so a wrapper around a layer "
    "times recording, not compute",
    "cache evictions": "a run sends far fewer distinct classes than the "
    "4096-entry cache holds, so no eviction happens to measure",
}


def complete(layers: dict) -> dict:
    """Every per-layer metric, with 0 (and 0 samples) where the run's
    layers did no work."""
    return {
        name: layers.get(name, (0, unit, 0))
        for name, (unit, _, _) in PER_LAYER.items()
    }
