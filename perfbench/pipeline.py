"""The ``label`` and ``train`` workloads: the paper's pipeline stages, run in
this process through the functions behind ``repro generate`` and
``repro train``.

- ``label``: ``generate_dataset`` with the CLI defaults: statevector labels
  at p=1 with 100 Adam iterations on regular graphs, run serially.  One
  operation labels one graph.  A round labels one graph of each node count
  from 4 to 12, so every round is the same work whatever the seed.
- ``train``: ``Trainer.fit`` with the CLI defaults: GIN with hidden size
  32, batch 32 and 100 epochs, on the lazy engine and numpy backend.  One
  operation is one epoch over a fixed dataset of 32 graphs per node count.
  The program labels that dataset during set-up with 3 Adam iterations:
  training time does not depend on the label values, and set-up stays
  short.  The last fit of a run is cut short so the run ends with the
  clock.  After the clock stops, the first model's warm start (a full fit,
  so the same for every run of a seed) is evaluated against random init
  on held-out graphs (``WarmStartEvaluator``, serial, 15 iterations per
  arm, the ``repro evaluate`` defaults) as part of the output check.

Both run until ``--seconds`` have passed.  ``ops_per_s`` is operations per
second of busy time; ``p50_ms`` and the tail are percentiles of the
operation latencies, all in wall-clock time.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    ROOT, TAIL_PERCENTILE, Tally, child_env, median, percentile, vm_hwm_mb,
)
from perfbench.tracing import Tracer, by_name, install_compute_wrappers, self_times

NODE_COUNTS = tuple(range(4, 13))
LABEL_ITERS = 100  # repro generate --iters
EVAL_ITERS = 15  # repro evaluate --eval-iters
EPOCHS = 100  # repro train --epochs
#: Set-ups per run, each in a fresh process (this run's own and the rest
#: in children, because one-time costs are paid once per process);
#: ``setup_s`` is their median.
SETUPS = 3
#: ``label`` set-up warms the labeling path with this many Adam iterations.
WARMUP_ITERS = 5
#: ``train``: dataset graphs per node count, the Adam iterations that label
#: them, and held-out graphs per node count.  A full garbage collection of
#: the engine's objects (about 0.1 s) lands in about one epoch in fourteen
#: at this dataset size, so the median epoch is a plain one and the tail
#: percentile sits among the collecting ones; at half the size it landed in
#: one epoch in 25, right at the tail percentile, which then flipped between
#: the two from run to run.
TRAIN_PER_SIZE = 32
TRAIN_LABEL_ITERS = 3
EVAL_PER_SIZE = 2
#: Inputs are generated for this many rounds per second of ``--seconds``;
#: a run stops at the clock, long before it uses them all.
ROUNDS_PER_SECOND = 20


def _seeds(seed: int, stream: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _metrics(setup_s: float, latencies: List[float]) -> Dict[str, tuple]:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (vm_hwm_mb(), "MB"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        f"p{TAIL_PERCENTILE}_ms": (percentile(latencies, TAIL_PERCENTILE) * 1e3, "ms"),
    }


def _verify_labels(records, tally: Tally) -> None:
    """Recompute each sampled label's expectation and optimum with fresh objects."""
    from repro.maxcut.problem import MaxCutProblem
    from repro.qaoa.simulator import QAOASimulator

    for record in records:
        tally.attempt()
        problem = MaxCutProblem(record.graph)
        expectation = QAOASimulator(problem).expectation(
            np.asarray(record.gammas), np.asarray(record.betas)
        )
        optimum = MaxCutProblem(record.graph).max_cut_value()
        ok = (
            math.isclose(expectation, record.expectation, rel_tol=1e-9, abs_tol=1e-9)
            and optimum == record.optimal_value
            and math.isclose(
                record.approximation_ratio, record.expectation / optimum, rel_tol=1e-12
            )
        )
        if not ok:
            tally.fail("wrong_answer")


# ----------------------------------------------------------------------
# label
# ----------------------------------------------------------------------
def build_label_inputs(seed: int, seconds: float) -> dict:
    """One labeling config per graph, grouped in rounds of one graph per
    node count; generated from the seed."""
    from repro.data.generation import GenerationConfig

    rounds = max(2, int(seconds * ROUNDS_PER_SECOND))
    seeds = _seeds(seed, 1, rounds * len(NODE_COUNTS))
    return {
        "rounds": [
            [
                GenerationConfig(
                    num_graphs=1, min_nodes=n, max_nodes=n, p=1,
                    optimizer_iters=LABEL_ITERS, restarts=1,
                    seed=seeds[r * len(NODE_COUNTS) + i], backend="serial",
                    progress_every=0,
                )
                for i, n in enumerate(NODE_COUNTS)
            ]
            for r in range(rounds)
        ],
    }


def setup_label(seed: int, seconds: float) -> dict:
    """Imports, inputs, and one warm-up round at few iterations: the first
    labeling of each size pays one-time costs."""
    from repro.data.generation import generate_dataset

    inputs = build_label_inputs(seed, seconds)
    for config in inputs["rounds"][0]:
        generate_dataset(dataclasses.replace(config, optimizer_iters=WARMUP_ITERS))
    return inputs


def run_label(seed: int, seconds: float, trace: bool) -> dict:
    """Run the ``label`` workload; returns metrics, tally and layers."""
    setup_s, inputs = measured_setup("label", seed, seconds)
    from repro.data.generation import generate_dataset

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_compute_wrappers(tracer)
    tally = Tally()
    latencies, windows, to_verify = [], [], []
    runtime = {"tasks": 0, "retried": 0, "failed": 0}
    deadline = time.perf_counter() + seconds
    for round_index, configs in enumerate(inputs["rounds"]):
        if time.perf_counter() >= deadline:
            break
        parts = []
        for config in configs:
            executor = config.executor()
            tally.attempt(config.num_graphs)
            start = time.perf_counter()
            part = generate_dataset(config, executor=executor)
            end = time.perf_counter()
            latencies.append(end - start)
            windows.append((start, end))
            report = executor.last_report
            runtime["tasks"] += report.total_tasks
            runtime["retried"] += report.retried
            runtime["failed"] += report.failed
            tally.fail("label_task", report.failed)
            tally.fail("wrong_answer", config.num_graphs - len(part))
            parts.append(part)
        # Rotate through node counts so every size gets re-verified.
        part = parts[round_index % len(parts)]
        if len(part):
            to_verify.append(part[0])
    metrics = _metrics(setup_s, latencies)

    # -- output checks, after the clock --------------------------------
    if tracer is not None:
        tracer.uninstall()
    _verify_labels(to_verify, tally)
    layers = {}
    if tracer is not None:
        layers = compute_layers(tracer.spans)
        layers.update(_label_layers(tracer.spans, runtime, windows))
    return {"metrics": metrics, "tally": tally, "layers": layers}


def _label_layers(spans, runtime, windows) -> dict:
    """The simulator's share of labeling wall time and the runtime's counts."""
    own = self_times(spans)
    starts = [start for start, _ in windows]

    def in_labeling(span):
        index = bisect.bisect_right(starts, span["start"]) - 1
        return index >= 0 and span["start"] < windows[index][1]

    grad = [s for s in by_name(spans).get("qaoa.grad", []) if in_labeling(s)]
    wall = sum(end - start for start, end in windows)
    return {
        "qaoa.share": (
            sum(own[s["id"]] for s in grad) / wall if wall else 0.0, "ratio", len(grad)),
        "runtime.tasks": (runtime["tasks"], "count", runtime["tasks"]),
        "runtime.retried": (runtime["retried"], "count", runtime["tasks"]),
        "runtime.failed": (runtime["failed"], "count", runtime["tasks"]),
    }


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def build_train_inputs(seed: int, seconds: float) -> dict:
    """Labeling configs of the training set, held-out graphs and model
    seeds, generated from the seed."""
    from repro.data.generation import GenerationConfig, sample_graphs

    label_seeds = _seeds(seed, 1, len(NODE_COUNTS))
    eval_seeds = _seeds(seed, 2, len(NODE_COUNTS))
    eval_graphs = []
    for n, eval_seed in zip(NODE_COUNTS, eval_seeds):
        eval_graphs.extend(sample_graphs(
            GenerationConfig(num_graphs=EVAL_PER_SIZE, min_nodes=n, max_nodes=n), eval_seed))
    *fit_seeds, eval_seed = _seeds(seed, 3, max(2, int(seconds * 4)) + 1)
    return {
        "label_configs": [
            GenerationConfig(
                num_graphs=TRAIN_PER_SIZE, min_nodes=n, max_nodes=n, p=1,
                optimizer_iters=TRAIN_LABEL_ITERS, restarts=1, seed=label_seed,
                backend="serial", progress_every=0,
            )
            for n, label_seed in zip(NODE_COUNTS, label_seeds)
        ],
        "eval_graphs": eval_graphs,
        "fit_seeds": fit_seeds,
        "eval_seed": eval_seed,
    }


def _model(seed: int):
    from repro.gnn.predictor import QAOAParameterPredictor

    return QAOAParameterPredictor(
        arch="gin", p=1, hidden_dim=32, num_layers=2, dropout=0.5,
        feature_kind="degree_onehot", rng=seed,
    )


def setup_train(seed: int, seconds: float) -> dict:
    """Imports, inputs, the labeled training set, and two warm-up epochs
    that build the lazy engine's plans."""
    from repro.data.dataset import QAOADataset
    from repro.data.generation import generate_dataset
    from repro.pipeline.training import Trainer, TrainingConfig

    inputs = build_train_inputs(seed, seconds)
    dataset = QAOADataset()
    for config in inputs["label_configs"]:
        dataset.extend(list(generate_dataset(config)))
    Trainer(_model(inputs["eval_seed"]), TrainingConfig(epochs=2, seed=0)).fit(dataset)
    inputs["dataset"] = dataset
    return inputs


SETUP = {"label": setup_label, "train": setup_train}


def measured_setup(workload: str, seed: int, seconds: float):
    """Set up ``SETUPS`` times, each in a fresh process: ``SETUPS - 1``
    children, then this process.  Returns the median seconds and this
    process's inputs."""
    samples = []
    for _ in range(SETUPS - 1):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{workload} set-up failed: {done.stderr[-2000:]}")
        samples.append(float(done.stdout.split()[-1]))
    start = time.perf_counter()
    inputs = SETUP[workload](seed, seconds)
    samples.append(time.perf_counter() - start)
    return median(samples), inputs


def run_train(seed: int, seconds: float, trace: bool) -> dict:
    """Run the ``train`` workload; returns metrics, tally and layers."""
    setup_s, inputs = measured_setup("train", seed, seconds)
    from repro.pipeline.evaluation import WarmStartEvaluator
    from repro.pipeline.training import Trainer, TrainingConfig

    dataset = inputs["dataset"]

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_compute_wrappers(tracer)
    tally = Tally()
    latencies, losses, profiles, models = [], [], [], []
    deadline = time.perf_counter() + seconds
    epoch_wall = 0.0  # wall seconds per epoch of the last fit
    for fit_seed in inputs["fit_seeds"]:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        epochs = min(EPOCHS, math.ceil(remaining / epoch_wall)) if epoch_wall else EPOCHS
        models.append(_model(fit_seed))
        trainer = Trainer(models[-1], TrainingConfig(epochs=epochs, seed=fit_seed, profile=trace))
        start = time.perf_counter()
        history = trainer.fit(dataset)
        epoch_wall = (time.perf_counter() - start) / epochs
        tally.attempt(len(history.epoch_times))
        tally.fail("wrong_answer", epochs - len(history.epoch_times))
        latencies.extend(history.epoch_times)
        losses.extend(history.losses)
        profiles.append(history.profile)
    metrics = _metrics(setup_s, latencies)

    # -- output checks, after the clock --------------------------------
    if tracer is not None:
        tracer.uninstall()
    tally.fail("train_nonfinite", sum(not math.isfinite(x) for x in losses))
    graphs = inputs["eval_graphs"]
    evaluator = WarmStartEvaluator(p=1, optimizer_iters=EVAL_ITERS, rng=inputs["eval_seed"])
    tally.attempt(len(graphs))
    result = evaluator.evaluate_model(graphs, models[0])
    tally.fail("eval_task", evaluator.executor.last_report.failed)
    gains = result.improvements
    tally.fail("wrong_answer", len(graphs) - len(result.comparisons))
    tally.fail("wrong_answer", int(np.sum(~np.isfinite(gains))))
    # The set-up labels are the program's output too: re-verify one per size.
    _verify_labels([dataset.records[i * TRAIN_PER_SIZE] for i in range(len(NODE_COUNTS))], tally)
    layers = {}
    if tracer is not None:
        stats = evaluator.problem_cache.stats()
        lookups = stats["hits"] + stats["misses"]
        layers = compute_layers(tracer.spans)
        layers.update(_train_layers(profiles))
        layers["maxcut.cache_hit_share"] = (
            stats["hits"] / lookups if lookups else 0.0, "ratio", lookups)
        layers["pipeline.warm_start_gain_pp"] = (float(np.mean(gains)), "pp", len(gains))
    return {"metrics": metrics, "tally": tally, "layers": layers}


def _merge_phases(profiles) -> dict:
    """Training-profile phases summed over fits; ``peak_`` counters max."""
    phases: dict = {}
    for profile in profiles:
        for name, phase in profile["phases"].items():
            merged = phases.setdefault(name, {"total_s": 0.0, "calls": 0, "counters": {}})
            merged["total_s"] += phase["total_s"]
            merged["calls"] += phase["calls"]
            for key, value in phase.get("counters", {}).items():
                old = merged["counters"].get(key, 0)
                merged["counters"][key] = max(old, value) if key.startswith("peak_") else old + value
    return phases


def _train_layers(profiles) -> dict:
    """Per-step numbers from the ``TrainingConfig(profile=True)`` reports."""
    phases = _merge_phases(profiles)
    steps = phases.get("backward", {}).get("calls", 0)
    counters = phases.get("backward", {}).get("counters", {})

    def phase_ms(name):
        phase = phases.get(name)
        return phase["total_s"] / phase["calls"] * 1e3 if phase else 0.0

    def per_step(key):
        return counters.get(key, 0) / steps if steps else 0.0

    return {
        "data.compile_ms": (phase_ms("compile"), "ms", phases.get("compile", {}).get("calls", 0)),
        "data.batch_ms": (phase_ms("batch_assembly"), "ms", steps),
        "nn.forward_ms": (phase_ms("forward"), "ms", steps),
        "nn.backward_ms": (phase_ms("backward"), "ms", steps),
        "nn.optimizer_ms": (phase_ms("optimizer"), "ms", steps),
        "nn.kernels": (per_step("kernels"), "count", steps),
        "nn.ops": (per_step("ops"), "count", steps),
        "nn.realizes": (per_step("realizes"), "count", steps),
        "nn.peak_temp_bytes": (counters.get("peak_temp_bytes", 0), "B", steps),
    }


def compute_layers(spans) -> dict:
    """Per-layer numbers from the compute wrappers' spans:
    name -> (value, unit, samples)."""
    own = self_times(spans)
    named = by_name(spans)

    def per_call_ms(items):
        return (sum(own[s["id"]] for s in items) / len(items) * 1e3) if items else 0.0

    grad = named.get("qaoa.grad", [])
    optimum = named.get("maxcut.optimum", [])
    predict = named.get("gnn.predict", [])
    features = named.get("graphs.features", [])
    return {
        "qaoa.grad_calls": (len(grad), "count", len(grad)),
        "qaoa.grad_ms": (per_call_ms(grad), "ms", len(grad)),
        "maxcut.optimum_ms": (per_call_ms(optimum), "ms", len(optimum)),
        "gnn.predict_calls": (len(predict), "count", len(predict)),
        "gnn.predict_ms": (per_call_ms(predict), "ms", len(predict)),
        "gnn.graphs_per_predict": (
            sum(s["batch"] for s in predict) / len(predict) if predict else 0.0,
            "count", len(predict)),
        "graphs.features_ms": (per_call_ms(features), "ms", len(features)),
    }
