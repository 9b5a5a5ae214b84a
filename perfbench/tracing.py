"""In-memory spans recorded around calls into the program's public functions.

A traced run installs wrappers from this file; the program itself is not
changed.  Each wrapper records a span (name, start, end, parent, request
id, thread, extra fields) when the wrapped call returns.  Spans nest per
thread, so a span's parent is the innermost open span of the same thread;
spans of one HTTP request share the request id of its root span.  Spans
stay in a list in memory and are written out once, at exit.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self):
        self.spans: List[dict] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._installed: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        root: bool = False,
        extra: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class through which callers look the
        name up.  ``root`` starts a new request id; ``extra(args,
        kwargs, result)`` adds fields to the span.
        """
        func = getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if root:
                request = next(tracer._request_ids)
            else:
                request = parent[1] if parent is not None else None
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent[0] if parent is not None else None,
                "request": request,
                "thread": threading.get_ident(),
            }
            if extra is not None:
                span.update(extra(args, kwargs, result))
            with tracer._lock:
                tracer.spans.append(span)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, func))

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            json.dump(spans, handle)


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Seconds of each span not covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], cursor)
            if child["end"] > start:
                covered += child["end"] - start
                cursor = child["end"]
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def by_name(spans: List[dict]) -> Dict[str, List[dict]]:
    grouped = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    return grouped


def install_compute_wrappers(tracer: Tracer) -> None:
    """Spans around the simulator, the exact optimum and the GNN forward.

    Shared by the pipeline run and the traced server, so the layers that
    should not run on a workload are measured there too.
    """
    import repro.gnn.batching as batching
    from repro.gnn.predictor import QAOAParameterPredictor
    from repro.maxcut.problem import MaxCutProblem
    from repro.qaoa.simulator import QAOASimulator

    tracer.wrap(QAOASimulator, "expectation_and_gradient", "qaoa.grad")
    tracer.wrap(MaxCutProblem, "max_cut_value", "maxcut.optimum")
    tracer.wrap(
        QAOAParameterPredictor,
        "predict",
        "gnn.predict",
        extra=lambda args, kwargs, result: {
            "batch": len(args[1]),
            "graphs": [id(graph) for graph in args[1]],
        },
    )
    tracer.wrap(batching, "build_features", "graphs.features")
