"""The ``serve-unique`` and ``serve-repeat`` workloads.

Both run ``repro serve --model <checkpoint>`` with default flags (today the
threaded ``ServingHTTPServer``) as a child process, and drive it with
open-loop ``/predict`` traffic from this process (see ``loadgen``).

- ``unique``: every request is a new WL class, so every request misses the
  cache.  Sizes cover the served model's 6-15-node band; a fixed share of
  the graphs have 16-200 nodes, above the model's cap, so the fallback
  chain answers them.
- ``repeat``: every request is a random node relabeling of one graph from a
  small working set of WL classes, warmed before timing.  The set fits the
  default 4096-entry cache, so nearly every request is a hit; the bodies
  are not byte-identical, so the WL hash really runs.

One operation is one ``/predict`` request.  Traffic climbs a fixed ladder
of Poisson rates.  ``p50_ms`` and ``p96_ms`` come from the reference rung;
``ops_per_s`` is the request rate achieved on the highest rung at which at
least 99% of requests sent got a correct 200 within ``LIMIT_MS`` of their
due time, the generator kept to its schedule, and the client backlog did
not grow.  The climb stops at the first rung that fails.

Every answer is checked after the clock stops against the same checkpoint
loaded in this process: bit for bit, with the same ``source`` tag.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    ROOT, TAIL_PERCENTILE, WORK, Tally, child_env, median, percentile,
)
from perfbench.loadgen import OpenLoopClient, poisson_schedule, predict_request

#: Latency limit for ``ops_per_s``: a warm start must cost far less than
#: the QAOA run it seeds, and 100 ms is about twice the stall (~44 ms) the
#: current server shows, so it can meet the limit at modest rates.
LIMIT_MS = 100.0
#: Share of requests that must meet the limit on a passing rung.
ON_TIME_SHARE = 0.99
#: A wire time at least this long counts as a stall.
STALL_MS = 30.0
#: The rate ladder (requests per second).  The reference rung comes first
#: and runs for ``REFERENCE_SHARE`` of ``--seconds``: at 12/s a tenth to a
#: fifth of today's requests stall on either mix, so the median sits firmly
#: in the fast mode and p96 in the stall mode.  Each higher rung sends
#: ``RUNG_REQUESTS`` requests, so a run whose every rung passes sends for
#: about ten seconds more.  Today the share of requests over the limit
#: crosses 1% somewhere between 14/s and 30/s, differently from run to run,
#: so no rung sits in that band.  Near 40/s a rung passes only when none of
#: its requests meets two stalls in a row: a rung of 53 requests passed in
#: one run of ten on the repeat mix, so the rungs are long enough to make
#: that rare.
REFERENCE_RATE = 12.0
REFERENCE_SHARE = 0.95
RUNG_RATES = (40.0, 60.0, 90.0, 135.0, 200.0)
RUNG_REQUESTS = 150
#: Model band and the relative number of requests per node count.  6- and
#: 7-node graphs get fewer requests: those sizes have too few distinct WL
#: classes for a long run of unique requests.
SIZE_WEIGHTS = {6: 1, 7: 2, **{n: 4 for n in range(8, 16)}}
#: Share of requests above the model's 15-node cap (16-200 nodes).  The
#: smallest size is even, so every warm-up holds a 3-regular graph: the
#: fixed-angle rung computes a degree's table entry the first time it meets
#: that degree (about half a second), and that must not land in a rung.
FALLBACK_SHARE = 0.1
FALLBACK_SIZES = (16, 200)
#: WL classes in the ``repeat`` working set (well inside the 4096 cache).
WORKING_SET = 60
WARMUP_UNIQUE = 30
WARMUP_RATE = 25.0
SETUPS = 3
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _node_counts(count: int, rng: np.random.Generator) -> List[int]:
    """``count`` request sizes with a fixed number per node count.

    The multiset of sizes depends only on ``count``; the seed only
    shuffles their order.
    """
    fallback = int(round(count * FALLBACK_SHARE))
    model = count - fallback
    total = sum(SIZE_WEIGHTS.values())
    sizes = []
    exact = {n: model * w / total for n, w in SIZE_WEIGHTS.items()}
    floors = {n: int(math.floor(v)) for n, v in exact.items()}
    short = model - sum(floors.values())
    for n in sorted(exact, key=lambda n: (floors[n] - exact[n], n))[:short]:
        floors[n] += 1
    for n, k in floors.items():
        sizes.extend([n] * k)
    sizes.extend(
        int(round(x)) for x in np.linspace(*FALLBACK_SIZES, num=fallback)
    )
    order = rng.permutation(len(sizes))
    return [sizes[i] for i in order]


def _random_graph(n: int, rng: np.random.Generator, regular: bool):
    """A connected graph on ``n`` nodes; above the cap, a 3-regular one
    (fixed-angle rung) or an irregular one (analytic rung)."""
    from repro.graphs.generators import random_connected_graph, random_regular_graph

    if n > 15:
        if regular:
            return random_regular_graph(n, 3, rng)
        return random_connected_graph(n, 2.0 / n, rng)
    return random_connected_graph(n, float(rng.uniform(0.05, 0.7)), rng)


def _body(graph) -> bytes:
    return json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [[u, v] for u, v in graph.edges]}
    ).encode()


def _unique_graphs(sizes: List[int], rng, seen: set) -> list:
    """One graph per size, each of a WL class not in ``seen``.

    Above the cap, an even size gets a 3-regular graph and an odd size an
    irregular one.  All 3-regular graphs of one size share a WL class, so
    an even size seen before gets an irregular graph instead.
    """
    from repro.graphs.canonical import wl_canonical_hash

    graphs = []
    for n in sizes:
        for attempt in range(2000):
            graph = _random_graph(n, rng, regular=n % 2 == 0 and attempt == 0)
            key = wl_canonical_hash(graph)
            if key not in seen:
                break
        else:
            raise RuntimeError(f"no new WL class found for n={n}")
        seen.add(key)
        graphs.append(graph)
    return graphs


def _relabeled(graph, rng):
    """A random node relabeling with the edge list in random order."""
    from repro.graphs.graph import Graph

    perm = rng.permutation(graph.num_nodes)
    edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
    order = rng.permutation(len(edges))
    return Graph.from_edges(graph.num_nodes, [edges[i] for i in order])


def rung_counts(seconds: float) -> List[Tuple[float, int]]:
    reference = max(20, int(round(REFERENCE_RATE * REFERENCE_SHARE * seconds)))
    return [(REFERENCE_RATE, reference)] + [(rate, RUNG_REQUESTS) for rate in RUNG_RATES]


def build_inputs(mix: str, seed: int, seconds: float) -> dict:
    """Warm-up bodies, per-rung bodies and the graph each answer is
    checked against, all generated from the seed."""
    rng = np.random.default_rng([seed, 11])
    rungs = rung_counts(seconds)
    if mix == "unique":
        seen: set = set()
        warm = _unique_graphs(_node_counts(WARMUP_UNIQUE, rng), rng, seen)
        steps = [
            _unique_graphs(_node_counts(count, rng), rng, seen)
            for _, count in rungs
        ]
        warm_bodies = [_body(g) for g in warm]
        step_bodies = [[_body(g) for g in graphs] for graphs in steps]
        # Each answer is checked against the graph it was asked about.
        step_refs = steps
        warm_refs = warm
        step_cached = False
    else:
        seen = set()
        # Sorted by size, so the classes that get one request more when a
        # rung's count is not a multiple of the set have the same sizes
        # for every seed.
        classes = sorted(
            _unique_graphs(_node_counts(WORKING_SET, rng), rng, seen),
            key=lambda g: g.num_nodes,
        )
        warm_bodies = [_body(g) for g in classes]
        warm_refs = classes
        step_bodies, step_refs = [], []
        for _, count in rungs:
            # Every class gets the same number of requests, in random order.
            picks = [i % len(classes) for i in range(count)]
            picks = [picks[i] for i in rng.permutation(count)]
            step_bodies.append([_body(_relabeled(classes[i], rng)) for i in picks])
            # A hit returns what the class's first-served graph got.
            step_refs.append([classes[i] for i in picks])
        step_cached = True
    return {
        "rungs": rungs,
        "warm_bodies": warm_bodies,
        "warm_refs": warm_refs,
        "step_bodies": step_bodies,
        "step_refs": step_refs,
        "step_cached": step_cached,
        "model_seed": int(rng.integers(0, 2**31 - 1)),
        "schedule_seed": int(rng.integers(0, 2**31 - 1)),
    }


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process."""

    def __init__(self, checkpoint, workdir, spans: Optional[str] = None):
        self.stdout_path = workdir / f"serve-{time.monotonic_ns()}.out"
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), spans]
        argv += ["serve", "--model", str(checkpoint), "--port", "0"]
        self._out = open(self.stdout_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=self._out,
            stderr=subprocess.STDOUT,
        )
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    + self.stdout_path.read_text()[-2000:]
                )
            if self.port is None:
                match = re.search(rb"serving on http://[^:\s]+:(\d+)", self.stdout_path.read_bytes())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                try:
                    with urllib.request.urlopen(self.url("/healthz"), timeout=1.0) as resp:
                        if resp.status == 200:
                            return time.perf_counter() - self.started
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become ready")

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url(path), timeout=10.0) as resp:
            return json.loads(resp.read())

    def peak_rss_mb(self) -> float:
        from perfbench.common import vm_hwm_mb

        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (a clean shutdown that writes spans), then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Reference:
    """Expected answers from the checkpoint loaded in this process."""

    def __init__(self, checkpoint):
        from repro.serving.fallbacks import FallbackChain
        from repro.serving.registry import load_checkpoint

        self.model = load_checkpoint(checkpoint)
        self.chain = FallbackChain(self.model.p)
        self._memo: Dict[int, tuple] = {}

    def expected(self, graph) -> tuple:
        """``(gammas, betas, source)`` the server must return for ``graph``."""
        key = id(graph)
        if key not in self._memo:
            cap = self.model.max_nodes
            if cap is None or graph.num_nodes <= cap:
                row = self.model.predict([graph])[0]
                p = self.model.p
                answer = ([float(g) for g in row[:p]], [float(b) for b in row[p:]], "model")
            else:
                fb = self.chain.resolve(graph)
                answer = (list(fb.gammas), list(fb.betas), fb.source)
            self._memo[key] = answer
        return self._memo[key]


def check_answer(body: bytes, expected: tuple, cached: bool) -> bool:
    """A 200 body matches the expected angles bit for bit, source and
    cache flag included."""
    try:
        answer = json.loads(body)
    except ValueError:
        return False
    gammas, betas, source = expected
    return (
        answer.get("gammas") == gammas
        and answer.get("betas") == betas
        and answer.get("source") == source
        and answer.get("cached") is cached
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _rung_verdict(step, connections: int) -> dict:
    """Score one rung: on-time share, schedule keeping, backlog trend."""
    outcomes = step.outcomes
    ok = [o for o in outcomes if not o.error and o.status == 200 and o.correct]
    on_time = sum(o.latency_ms <= LIMIT_MS for o in ok)
    share = on_time / len(outcomes) if outcomes else 0.0
    late_p99 = percentile([o.late_ms for o in outcomes], 99)
    quarter = max(1, len(step.backlog) // 4)
    first = float(np.mean(step.backlog[:quarter]))
    last = float(np.mean(step.backlog[-quarter:]))
    growing = last > 2.0 * first + connections
    valid = late_p99 <= LIMIT_MS
    finished = max((o.done for o in outcomes), default=step.start)
    return {
        "rate": step.rate,
        "sent": len(outcomes),
        "on_time_share": share,
        "backlog_growing": growing,
        "valid": valid,
        "passed": (not step.aborted) and valid and not growing and share >= ON_TIME_SHARE,
        "achieved_rps": len(outcomes) / (finished - step.start),
    }


async def _drive(server: Server, inputs: dict) -> dict:
    client = OpenLoopClient("127.0.0.1", server.port, CONNECTIONS)
    await client.start()
    rng = np.random.default_rng(inputs["schedule_seed"])
    try:
        warm = inputs["warm_bodies"]
        warm_step = await client.step(
            WARMUP_RATE, [predict_request(b) for b in warm],
            poisson_schedule(WARMUP_RATE, len(warm), rng),
        )
        # Server counters are cumulative; this snapshot lets the per-layer
        # numbers cover the rungs only, without the warm-up.
        warm_metrics = server.get_json("/metrics")
        steps = []
        for rung, ((rate, count), bodies) in enumerate(
            zip(inputs["rungs"], inputs["step_bodies"])
        ):
            requests = [predict_request(b) for b in bodies]
            schedule = poisson_schedule(rate, count, rng)
            # The reference rung always runs to the end: p50 and p96 need
            # all of its samples.  A higher rung stops once it has failed.
            step = await client.step(
                rate, requests, schedule,
                abort_after_misses=(
                    None if rung == 0 else int(count * (1 - ON_TIME_SHARE)) + 1
                ),
                limit_ms=LIMIT_MS,
            )
            steps.append(step)
            # Scored before the output check, which runs after the clock;
            # a wrong answer found then fails the whole run.
            if step.aborted or not _rung_verdict(step, CONNECTIONS)["passed"]:
                break
    finally:
        await client.close()
    return {
        "warm": warm_step, "steps": steps, "reconnects": client.reconnects,
        "warm_metrics": warm_metrics,
    }


def run(mix: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.gnn.predictor import QAOAParameterPredictor
    from repro.serving.registry import save_checkpoint

    inputs = build_inputs(mix, seed, seconds)
    workdir = WORK / f"{mix}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        checkpoint = workdir / "model.json"
        save_checkpoint(
            QAOAParameterPredictor(arch="gin", p=1, feature_kind="degree_onehot",
                                   rng=inputs["model_seed"]),
            checkpoint,
        )
        spans_path = str(workdir / "spans.json") if trace else None
        setups = []
        for attempt in range(SETUPS):
            last = attempt == SETUPS - 1
            server = Server(checkpoint, workdir, spans_path if last else None)
            try:
                setups.append(server.wait_ready())
            except BaseException:
                server.stop()
                raise
            if not last:
                server.stop()
        try:
            driven = asyncio.run(_drive(server, inputs))
            server_metrics = server.get_json("/metrics")
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
        spans = json.loads((workdir / "spans.json").read_text()) if trace else None
        reference = Reference(checkpoint)
        result = _score(inputs, driven, reference, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "ops_per_s": (result["max_rate_rps"], "1/s"),
        "p50_ms": (result["p50_ms"], "ms"),
        f"p{TAIL_PERCENTILE}_ms": (result["p96_ms"], "ms"),
    }
    layers = {}
    if trace:
        from perfbench.serve_layers import serve_layers

        layers = serve_layers(spans, server_metrics, driven)
    return {"metrics": metrics, "tally": tally, "layers": layers}


def _score(inputs: dict, driven: dict, reference: Reference, tally: Tally) -> dict:
    """Check every answer, count failures by kind, compute the metrics."""
    batches = [(driven["warm"], inputs["warm_refs"], False)]
    for step, refs in zip(driven["steps"], inputs["step_refs"]):
        batches.append((step, refs, inputs["step_cached"]))
    for step, refs, cached in batches:
        for outcome in step.outcomes:
            tally.attempt()
            outcome.correct = False
            if outcome.error:
                tally.fail(outcome.error)
            elif outcome.status != 200:
                tally.fail("non_200")
            elif not check_answer(outcome.body, reference.expected(refs[outcome.index]), cached):
                tally.fail("wrong_answer")
            else:
                outcome.correct = True
    verdicts = [_rung_verdict(step, CONNECTIONS) for step in driven["steps"]]
    max_rate = 0.0
    for verdict in verdicts:
        if not verdict["passed"]:
            break
        max_rate = verdict["achieved_rps"]
    reference_step = driven["steps"][0]
    latencies = [
        o.latency_ms if o.correct else math.inf for o in reference_step.outcomes
    ]
    return {
        "p50_ms": percentile(latencies, 50),
        "p96_ms": percentile(latencies, TAIL_PERCENTILE),
        "reference_sent": len(latencies),
        "max_rate_rps": max_rate,
        "verdicts": verdicts,
    }
