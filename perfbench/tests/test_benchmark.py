"""Tests of the benchmark itself: inputs, output checks, tracing, exit codes.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import pipeline, serve
from perfbench.common import Tally
from perfbench.loadgen import Outcome, StepResult
from perfbench.run import result_line
from perfbench.tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- inputs ---------------------------------------------------------------
@pytest.mark.parametrize("mix", ["unique", "repeat"])
def test_serve_inputs_repeat_per_seed_and_keep_sizes_across_seeds(mix):
    a = serve.build_inputs(mix, 1, 4)
    b = serve.build_inputs(mix, 1, 4)
    c = serve.build_inputs(mix, 2, 4)
    assert a["step_bodies"] == b["step_bodies"]
    assert a["step_bodies"] != c["step_bodies"]

    def sizes(inputs):
        return [
            collections.Counter(json.loads(body)["num_nodes"] for body in bodies)
            for bodies in inputs["step_bodies"]
        ]

    assert sizes(a) == sizes(c)


def test_unique_mix_sends_a_new_wl_class_every_time():
    from repro.graphs.canonical import wl_canonical_hash

    inputs = serve.build_inputs("unique", 3, 4)
    graphs = inputs["warm_refs"] + [g for refs in inputs["step_refs"] for g in refs]
    assert len({wl_canonical_hash(g) for g in graphs}) == len(graphs)
    assert any(g.num_nodes > 15 for g in graphs)


def test_repeat_mix_relabels_a_small_working_set():
    from repro.graphs.canonical import wl_canonical_hash

    inputs = serve.build_inputs("repeat", 3, 4)
    classes = {wl_canonical_hash(g) for g in inputs["warm_refs"]}
    bodies = inputs["step_bodies"][0]
    from repro.serving.http import graph_from_payload

    graphs = [graph_from_payload(json.loads(body)) for body in bodies]
    assert {wl_canonical_hash(g) for g in graphs} <= classes
    assert len(set(bodies)) > len(classes) // 2  # bodies differ per request


def test_label_and_train_inputs_keep_sizes_across_seeds():
    def shape(seed):
        label = pipeline.build_label_inputs(seed, 4)
        train = pipeline.build_train_inputs(seed, 4)
        return (
            [[(c.min_nodes, c.num_graphs) for c in configs] for configs in label["rounds"]],
            [(c.min_nodes, c.num_graphs) for c in train["label_configs"]],
            sorted(g.num_nodes for g in train["eval_graphs"]),
        )

    assert shape(1) == shape(2)
    assert pipeline.build_label_inputs(1, 4)["rounds"][0][0].seed != \
        pipeline.build_label_inputs(2, 4)["rounds"][0][0].seed


# -- output checks --------------------------------------------------------
def _flip_last_bit(value: float) -> float:
    import struct

    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    from repro.gnn.predictor import QAOAParameterPredictor
    from repro.serving.registry import save_checkpoint

    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(QAOAParameterPredictor(arch="gin", p=1, rng=5), path)
    return serve.Reference(path)


def _answered(reference, refs, cached, corrupt=None):
    """A driven run whose bodies are exactly the expected answers."""
    steps = []
    for rung, graphs in enumerate(refs):
        step = StepResult(rate=serve.REFERENCE_RATE, start=0.0)
        for index, graph in enumerate(graphs):
            gammas, betas, source = reference.expected(graph)
            if corrupt == (rung, index):
                gammas = [_flip_last_bit(gammas[0])]
            body = json.dumps({"gammas": gammas, "betas": betas, "p": 1,
                               "source": source, "cached": cached[rung],
                               "latency_ms": 1.0}).encode()
            step.outcomes.append(Outcome(index=index, due=index / 12.0, dispatched=index / 12.0,
                                         sent=index / 12.0, done=index / 12.0 + 0.003,
                                         status=200, body=body))
            step.backlog.append(0)
        steps.append(step)
    return {"warm": steps[0], "steps": steps[1:], "reconnects": 0}


@pytest.mark.parametrize("mix", ["unique", "repeat"])
def test_correct_answers_pass_and_a_corrupted_one_fails_the_run(mix, reference):
    inputs = serve.build_inputs(mix, 4, 4)
    refs = [inputs["warm_refs"], inputs["step_refs"][0]]
    cached = [False, inputs["step_cached"]]
    clean = Tally()
    serve._score(inputs, _answered(reference, refs, cached), reference, clean)
    assert clean.total_failed == 0 and clean.attempted == sum(map(len, refs))

    bad = Tally()
    serve._score(inputs, _answered(reference, refs, cached, corrupt=(1, 3)), reference, bad)
    assert bad.by_kind()["wrong_answer"] == 1
    line = result_line({"tally": bad, "metrics": {}, "layers": {}}, trace=False)
    assert line["correct"] is False and line["failed"] == 1


def test_wrong_source_tag_or_cache_flag_fails(reference):
    inputs = serve.build_inputs("unique", 4, 4)
    graph = next(g for g in inputs["step_refs"][0] if g.num_nodes <= 15)
    gammas, betas, source = reference.expected(graph)
    body = {"gammas": gammas, "betas": betas, "source": source, "cached": False}
    assert serve.check_answer(json.dumps(body).encode(), (gammas, betas, source), False)
    for change in ({"source": "analytic"}, {"cached": True}, {"betas": [b + 1e-12 for b in betas]}):
        assert not serve.check_answer(json.dumps({**body, **change}).encode(),
                                      (gammas, betas, source), False)


def test_pipeline_label_check_catches_a_corrupted_label():
    from repro.data.generation import GenerationConfig, generate_dataset

    records = list(generate_dataset(GenerationConfig(
        num_graphs=2, min_nodes=5, max_nodes=5, optimizer_iters=10, seed=3)))
    ok = Tally()
    pipeline._verify_labels(records, ok)
    assert ok.total_failed == 0
    bad = Tally()
    corrupted = dataclasses.replace(records[0], expectation=records[0].expectation + 1e-6)
    pipeline._verify_labels([corrupted, records[1]], bad)
    assert bad.by_kind()["wrong_answer"] == 1


# -- rung scoring ---------------------------------------------------------
def _step(latencies_ms, backlog=None, late_ms=0.0):
    step = StepResult(rate=10.0, start=0.0)
    for i, latency in enumerate(latencies_ms):
        due = i * 0.1
        step.outcomes.append(Outcome(index=i, due=due, dispatched=due + late_ms / 1e3,
                                     sent=due, done=due + latency / 1e3, status=200))
    step.backlog = backlog if backlog is not None else [0] * len(latencies_ms)
    return step


def test_late_correct_answers_count_against_the_share_not_as_failures():
    assert serve._rung_verdict(_step([5.0] * 199 + [150.0]), 2)["passed"]
    verdict = serve._rung_verdict(_step([5.0] * 197 + [150.0] * 3), 2)
    assert not verdict["passed"] and verdict["on_time_share"] == pytest.approx(0.985)


def test_growing_backlog_or_a_late_generator_fails_a_rung():
    growing = list(range(0, 200))
    assert not serve._rung_verdict(_step([5.0] * 200, backlog=growing), 2)["passed"]
    verdict = serve._rung_verdict(_step([5.0] * 200, late_ms=150.0), 2)
    assert not verdict["valid"] and not verdict["passed"]


# -- tracing --------------------------------------------------------------
def test_self_time_subtracts_children_and_request_ids_are_shared():
    import time
    import types

    tracer = Tracer()
    namespace = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        namespace.inner()
        time.sleep(0.01)

    namespace.inner, namespace.outer = inner, outer
    tracer.wrap(namespace, "inner", "inner")
    tracer.wrap(namespace, "outer", "outer", root=True)
    namespace.outer()
    namespace.outer()
    spans = {s["name"]: s for s in tracer.spans}
    own = self_times(tracer.spans)
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["request"] == spans["outer"]["request"]
    assert len({s["request"] for s in tracer.spans}) == 2
    outer_span = spans["outer"]
    assert own[outer_span["id"]] < (outer_span["end"] - outer_span["start"]) - 0.009
    tracer.uninstall()
    assert namespace.inner is inner


# -- the command ----------------------------------------------------------
def test_run_fails_without_the_program_under_test(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-unique",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_client_times_from_due_time_and_keeps_connections():
    """Against a tiny keep-alive server: one connection, queued requests
    wait for it, and the wait counts in their latency."""

    async def scenario():
        async def handle(reader, writer):
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                await asyncio.sleep(0.05)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        from perfbench.loadgen import OpenLoopClient, predict_request

        client = OpenLoopClient("127.0.0.1", port, 1)
        await client.start()
        step = await client.step(100.0, [predict_request(b"{}")] * 3, [0.0, 0.0, 0.0])
        await client.close()
        server.close()
        await server.wait_closed()
        return step, client

    step, client = asyncio.run(scenario())
    latencies = sorted(o.latency_ms for o in step.outcomes)
    assert all(o.status == 200 and not o.error for o in step.outcomes)
    assert latencies[-1] >= 140.0  # third request waited for two others
    assert max(o.queue_ms for o in step.outcomes) >= 90.0
    assert client.reconnects == 0


def test_benchmark_json_names_every_reported_metric():
    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.run import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(pipeline._metrics(1.0, [0.01, 0.03])) == list(END_TO_END)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
