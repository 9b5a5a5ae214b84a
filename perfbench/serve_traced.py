"""Launch ``repro serve`` with span-recording wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve --model ...``

The wrappers go around public functions of the serving path, patched where
their callers look them up; then ``repro.cli.main`` runs with the remaining
arguments.  On SIGINT the server shuts down cleanly and the spans, kept in
memory until then, are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.tracing import Tracer, install_compute_wrappers  # noqa: E402


def install_serving_wrappers(tracer: Tracer) -> None:
    """Spans for one HTTP request and each serving stage inside it."""
    import repro.serving.cache as cache_module
    import repro.serving.fallbacks as fallbacks_module
    import repro.serving.http as http
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import PredictionCache
    from repro.serving.fallbacks import FallbackChain
    from repro.serving.service import PredictionService

    make_handler = http._make_handler

    def traced_make_handler(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        tracer.wrap(handler, "do_POST", "http.request", root=True)
        return handler

    http._make_handler = traced_make_handler
    tracer.wrap(http, "graph_from_payload", "serving.parse")
    tracer.wrap(PredictionService, "predict", "serving.predict")
    tracer.wrap(cache_module, "wl_canonical_hash", "graphs.wl_hash")
    tracer.wrap(fallbacks_module, "wl_canonical_hash", "graphs.wl_hash")
    tracer.wrap(PredictionCache, "get", "serving.cache_get")
    tracer.wrap(PredictionCache, "put", "serving.cache_put")
    tracer.wrap(
        MicroBatcher, "predict", "serving.batch_wait",
        extra=lambda args, kwargs, result: {"graph": id(args[1])},
    )
    tracer.wrap(FallbackChain, "resolve", "serving.fallback")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_compute_wrappers(tracer)
    install_serving_wrappers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
