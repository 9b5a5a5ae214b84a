"""Command-line interface.

Seven subcommands cover the offline pipeline and the online service
(performance is measured by the ``perfbench/`` harness, not the CLI):

- ``repro generate`` — sample + label a dataset, save it to JSON
  (``--backend process --workers N`` parallelizes labeling with
  bit-identical output; ``--checkpoint DIR`` makes progress durable and
  ``--resume DIR`` restarts an interrupted run, still bit-identical;
  ``--retries/--backoff-base/--task-timeout/--deadline`` tolerate flaky
  or hung workers).
- ``repro train`` — train one architecture on a saved dataset, save a
  versioned model checkpoint (``--profile`` prints the per-phase
  wall-time report; ``--no-batch-cache`` rebuilds every mini-batch from
  raw graphs, bit-identical to the cached default).
- ``repro evaluate`` — warm-start evaluation of a saved model against
  random initialization on a saved dataset's held-out split, both arms
  of every same-size graph in one simulator stack (``--profile`` prints
  the per-phase wall-time report).
- ``repro reproduce`` — the whole experiment (Table 1) in one shot.
- ``repro serve`` — HTTP prediction service from a checkpoint
  (isomorphism-aware cache, micro-batching, fallback chain).
- ``repro predict`` — one-shot prediction for a single graph, printed
  as JSON.
- ``repro flywheel`` — closed-loop cycles: replay log → select →
  relabel → retrain → gated promotion → hot-swap.

Example::

    python -m repro.cli generate --num-graphs 100 --out dataset.json
    python -m repro.cli train --dataset dataset.json --out model.json
    python -m repro.cli serve --model model.json --port 8000
    python -m repro.cli predict --model model.json --edges 0-1,1-2,2-0
    python -m repro.cli reproduce --num-graphs 100 --test-size 20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import format_table1
from repro.data.dataset import QAOADataset
from repro.data.generation import (
    LABEL_METHODS,
    GenerationConfig,
    generate_dataset,
)
from repro.data.splits import stratified_split
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.features import FEATURE_KINDS
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph
from repro.pipeline.evaluation import WarmStartEvaluator
from repro.pipeline.experiment import ExperimentConfig, run_experiment
from repro.pipeline.training import Trainer, TrainingConfig
from repro.serving.registry import load_checkpoint, save_checkpoint


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser("generate", help="sample + label a dataset")
    parser.add_argument("--num-graphs", type=int, default=150)
    parser.add_argument("--min-nodes", type=int, default=4)
    parser.add_argument("--max-nodes", type=int, default=12)
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--iters", type=int, default=100)
    parser.add_argument("--restarts", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--label-method", choices=LABEL_METHODS, default="statevector",
        help="statevector: exact dense simulation (n <= 20); "
        "analytic-p1: exact p=1 closed form, unweighted graphs up to "
        "512 nodes, no statevector",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="serial",
        help="labeling fan-out backend (output is identical across backends)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel backends (default: all cores)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra labeling attempts per graph before the run fails",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.0,
        help="seconds before the first retry of a failed graph "
        "(exponential thereafter, deterministic jitter)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="wall-clock budget per labeling attempt in seconds",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="overall labeling deadline in seconds",
    )
    parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="directory for durable labeling progress (shards + manifest); "
        "an interrupted run restarts from it via --resume",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=32,
        help="graphs per checkpoint shard",
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="DIR",
        help="resume an interrupted labeling run from its checkpoint "
        "directory (generation settings are restored from the manifest; "
        "output is bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--inject-failure-rate", type=float, default=0.0,
        help="TESTING: deterministically fail this fraction of labeling "
        "tasks once each (prove the retry path; pair with --retries)",
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.set_defaults(func=_cmd_generate)


def _cmd_generate(args) -> int:
    from dataclasses import replace

    from repro.data.checkpoint import LabelingCheckpoint
    from repro.data.generation import config_from_manifest
    from repro.runtime import FaultInjector

    if args.resume is not None and args.checkpoint is not None:
        raise SystemExit("pass --checkpoint for a fresh run OR --resume, not both")
    if args.resume is not None:
        # The manifest is the source of truth for everything that shapes
        # the output; only execution knobs come from the command line.
        checkpoint = LabelingCheckpoint(args.resume)
        config = replace(
            config_from_manifest(checkpoint.load_manifest()),
            backend=args.backend,
            workers=args.workers,
            retries=args.retries,
            backoff_base_s=args.backoff_base,
            task_timeout_s=args.task_timeout,
            deadline_s=args.deadline,
        )
        resume = True
    else:
        checkpoint = (
            LabelingCheckpoint(args.checkpoint)
            if args.checkpoint is not None
            else None
        )
        config = GenerationConfig(
            num_graphs=args.num_graphs,
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            p=args.p,
            optimizer_iters=args.iters,
            restarts=args.restarts,
            seed=args.seed,
            label_method=args.label_method,
            backend=args.backend,
            workers=args.workers,
            retries=args.retries,
            backoff_base_s=args.backoff_base,
            task_timeout_s=args.task_timeout,
            deadline_s=args.deadline,
            checkpoint_every=args.checkpoint_every,
        )
        resume = False
    injector = (
        FaultInjector(failure_rate=args.inject_failure_rate)
        if args.inject_failure_rate > 0.0
        else None
    )
    dataset = generate_dataset(
        config, checkpoint=checkpoint, resume=resume, fault_injector=injector
    )
    dataset.save(args.out)
    summary = dataset.summary()
    print(
        f"wrote {summary['count']} records to {args.out} "
        f"(mean AR {summary['mean_ar']:.3f})"
    )
    return 0


def _add_train(subparsers) -> None:
    parser = subparsers.add_parser("train", help="train a predictor")
    parser.add_argument("--dataset", type=Path, required=True)
    parser.add_argument(
        "--arch", choices=("gat", "gcn", "gin", "sage", "mean"), default="gin"
    )
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--dropout", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--feature-kind", choices=FEATURE_KINDS, default="degree_onehot",
        help="node featurization; size-agnostic kinds (structural, "
        "wl_histogram, degree_positional) lift the max-nodes cap so the "
        "model serves graphs of any size",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-time report after training",
    )
    parser.add_argument(
        "--no-batch-cache", action="store_true",
        help="rebuild every mini-batch from raw graphs (the seed loop)",
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.set_defaults(func=_cmd_train)


def _cmd_train(args) -> int:
    dataset = QAOADataset.load(args.dataset)
    model = QAOAParameterPredictor(
        arch=args.arch,
        p=dataset.depth(),
        hidden_dim=args.hidden_dim,
        num_layers=args.num_layers,
        dropout=args.dropout,
        feature_kind=args.feature_kind,
        rng=args.seed,
    )
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=args.epochs,
            seed=args.seed,
            compile_batches=not args.no_batch_cache,
            profile=args.profile,
        ),
    )
    history = trainer.fit(dataset)
    save_checkpoint(model, args.out, final_loss=history.final_loss)
    print(f"trained {args.arch}: final loss {history.final_loss:.5f} -> {args.out}")
    if args.profile:
        print(trainer.profiler.format_report())
    return 0


def load_model(path) -> QAOAParameterPredictor:
    """Rebuild a predictor saved by ``repro train``.

    Thin alias of :func:`repro.serving.registry.load_checkpoint`, which
    validates the checkpoint schema (``format_version`` included) and
    raises :class:`~repro.exceptions.ModelError` on anything corrupt.
    """
    return load_checkpoint(path)


def _add_evaluate(subparsers) -> None:
    parser = subparsers.add_parser(
        "evaluate", help="warm-start evaluation of a saved model"
    )
    parser.add_argument(
        "--dataset", type=Path, default=None,
        help="saved dataset for the warm-start evaluation (optional "
        "when --transfer-nodes alone is requested)",
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument(
        "--transfer-nodes", type=str, default=None, metavar="N,N,...",
        help='size-generalization arm: score the model\'s angles on '
        'regular graphs of these sizes (e.g. "50,100,200") against the '
        "fixed-angle baseline and the p=1 closed-form optimum — no "
        "statevector, so sizes far above training are cheap",
    )
    parser.add_argument(
        "--transfer-degree", type=int, default=3,
        help="regular-graph degree for the transfer arm",
    )
    parser.add_argument(
        "--transfer-count", type=int, default=4,
        help="graphs per size for the transfer arm",
    )
    parser.add_argument("--test-size", type=int, default=30)
    parser.add_argument("--eval-iters", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-time report after evaluating",
    )
    parser.set_defaults(func=_cmd_evaluate)


def _cmd_evaluate(args) -> int:
    from repro.profiling import NULL_PROFILER, EvaluationProfiler

    model = load_model(args.model)
    if args.transfer_nodes is not None:
        from repro.pipeline.transfer import evaluate_size_transfer

        sizes = tuple(
            int(token)
            for token in args.transfer_nodes.split(",")
            if token.strip()
        )
        report = evaluate_size_transfer(
            model,
            node_sizes=sizes,
            degree=args.transfer_degree,
            graphs_per_size=args.transfer_count,
            rng=args.seed,
        )
        print(json.dumps(report, indent=2))
        if args.dataset is None:
            return 0
    if args.dataset is None:
        raise SystemExit("evaluate needs --dataset and/or --transfer-nodes")
    dataset = QAOADataset.load(args.dataset)
    _, test = stratified_split(dataset, args.test_size, args.seed)
    profiler = EvaluationProfiler() if args.profile else NULL_PROFILER
    evaluator = WarmStartEvaluator(
        p=model.p,
        optimizer_iters=args.eval_iters,
        rng=args.seed,
        profiler=profiler,
    )
    result = evaluator.evaluate_model(test.graphs(), model)
    print(format_table1({model.arch: result}))
    if args.profile:
        print(profiler.format_report())
    return 0


def _add_reproduce(subparsers) -> None:
    parser = subparsers.add_parser(
        "reproduce", help="full experiment (Table 1) in one shot"
    )
    parser.add_argument("--num-graphs", type=int, default=150)
    parser.add_argument("--test-size", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--label-iters", type=int, default=100)
    parser.add_argument("--eval-iters", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paper-scale", action="store_true")
    parser.set_defaults(func=_cmd_reproduce)


def _cmd_reproduce(args) -> int:
    if args.paper_scale:
        config = ExperimentConfig.paper_scale()
    else:
        config = ExperimentConfig(
            generation=GenerationConfig(
                num_graphs=args.num_graphs,
                min_nodes=4,
                max_nodes=12,
                optimizer_iters=args.label_iters,
            ),
            training=TrainingConfig(epochs=args.epochs),
            test_size=args.test_size,
            eval_optimizer_iters=args.eval_iters,
            seed=args.seed,
        )
    report = run_experiment(config)
    print(format_table1(report.results))
    return 0


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="HTTP prediction service from a checkpoint"
    )
    parser.add_argument(
        "--model", type=Path, default=None,
        help="checkpoint from `repro train` (omit to serve fallbacks only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument(
        "--cache-ttl", type=float, default=None,
        help="seconds before a cached prediction expires (default: never)",
    )
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="admitted /predict requests in flight before new ones are "
        "degraded to cache-or-fallback answers; twice this many inside "
        "the server sheds new ones with 503 + Retry-After",
    )
    parser.add_argument(
        "--max-request-nodes", type=int, default=None,
        help="reject /predict graphs above this node count with a 400 "
        "(default: 1024)",
    )
    parser.add_argument(
        "--max-request-edges", type=int, default=None,
        help="reject /predict graphs above this edge count with a 400 "
        "(default: 32768)",
    )
    parser.add_argument(
        "--no-batching", action="store_true",
        help="answer each request with its own forward pass",
    )
    parser.add_argument(
        "--p", type=int, default=1,
        help="fallback circuit depth when serving without a model",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="model-path deadline per request in seconds (past it the "
        "request is answered by the fallback chain)",
    )
    parser.add_argument(
        "--model-retries", type=int, default=0,
        help="in-request retries of the model path before falling back",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive model failures that trip the circuit breaker",
    )
    parser.add_argument(
        "--breaker-reset", type=float, default=30.0,
        help="seconds a tripped breaker waits before probing the model",
    )
    parser.add_argument(
        "--replay-log", type=Path, default=None,
        help="flywheel replay-log directory; every answered request is "
        "appended for later selection/relabeling (repro flywheel)",
    )
    parser.add_argument(
        "--replay-sample-rate", type=float, default=1.0,
        help="fraction of requests logged (deterministic per request)",
    )
    parser.add_argument(
        "--replay-max-bytes", type=int, default=4 << 20,
        help="replay log size past which the active file rotates",
    )
    parser.add_argument(
        "--watch-store", type=Path, default=None,
        help="flywheel version store to poll; promoted models are "
        "hot-swapped into the running service without a restart",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=2.0,
        help="seconds between version-pointer polls",
    )
    parser.set_defaults(func=_cmd_serve)


def _cmd_serve(args) -> int:
    from repro.serving import (
        PredictionService,
        ServingConfig,
        ServingHTTPServer,
    )
    from repro.serving.http import (
        DEFAULT_MAX_REQUEST_EDGES,
        DEFAULT_MAX_REQUEST_NODES,
    )

    if args.max_request_nodes is None:
        args.max_request_nodes = DEFAULT_MAX_REQUEST_NODES
    if args.max_request_edges is None:
        args.max_request_edges = DEFAULT_MAX_REQUEST_EDGES
    config = ServingConfig(
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl,
        max_batch_size=args.max_batch_size,
        batching=not args.no_batching,
        default_p=args.p,
        request_timeout_s=args.request_timeout,
        model_retries=args.model_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
    )
    replay_log = None
    if args.replay_log is not None:
        from repro.flywheel import ReplayLog

        replay_log = ReplayLog(
            args.replay_log,
            max_bytes=args.replay_max_bytes,
            sample_rate=args.replay_sample_rate,
        )
    model = load_model(args.model) if args.model is not None else None
    service = PredictionService(
        model=model, config=config, replay_log=replay_log
    )
    watcher = None
    if args.watch_store is not None:
        from repro.flywheel import ModelWatcher

        watcher = ModelWatcher(
            service,
            str(args.watch_store),
            poll_interval_s=args.watch_interval,
        )
        watcher.check_once()  # serve the promoted version from request one
        watcher.start()
    server = ServingHTTPServer(
        service,
        host=args.host,
        port=args.port,
        max_request_nodes=args.max_request_nodes,
        max_request_edges=args.max_request_edges,
        max_inflight=args.max_inflight,
    )
    print(f"serving on http://{server.address[0]}:{server.port}")
    try:
        server.serve_forever()
    finally:
        if watcher is not None:
            watcher.stop()
    return 0


def _parse_edge_spec(spec: str, num_nodes) -> Graph:
    """``"0-1,1-2,2-0"`` -> a Graph (node count inferred if omitted)."""
    edges = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        u, _, v = token.partition("-")
        edges.append((int(u), int(v)))
    if not edges:
        raise SystemExit(f"no edges in {spec!r}")
    if num_nodes is None:
        num_nodes = max(max(u, v) for u, v in edges) + 1
    return Graph.from_edges(int(num_nodes), edges)


def _add_predict(subparsers) -> None:
    parser = subparsers.add_parser(
        "predict", help="one-shot warm-start prediction for a graph"
    )
    parser.add_argument(
        "--model", type=Path, default=None,
        help="checkpoint from `repro train` (omit for fallbacks only)",
    )
    parser.add_argument(
        "--graph", type=Path, default=None,
        help="text-format graph file (see repro.graphs.io)",
    )
    parser.add_argument(
        "--edges", type=str, default=None,
        help='inline edge list like "0-1,1-2,2-0"',
    )
    parser.add_argument(
        "--num-nodes", type=int, default=None,
        help="node count for --edges (default: max endpoint + 1)",
    )
    parser.add_argument(
        "--p", type=int, default=1,
        help="fallback circuit depth when predicting without a model",
    )
    parser.set_defaults(func=_cmd_predict)


def _cmd_predict(args) -> int:
    from repro.serving import PredictionService, ServingConfig

    if (args.graph is None) == (args.edges is None):
        raise SystemExit("predict needs exactly one of --graph / --edges")
    graph = (
        load_graph(args.graph)
        if args.graph is not None
        else _parse_edge_spec(args.edges, args.num_nodes)
    )
    model = load_model(args.model) if args.model is not None else None
    config = ServingConfig(batching=False, default_p=args.p)
    with PredictionService(model=model, config=config) as service:
        result = service.predict(graph)
    print(json.dumps(result.to_dict(), indent=2))
    return 0


def _add_flywheel(subparsers) -> None:
    parser = subparsers.add_parser(
        "flywheel",
        help="run closed-loop cycles: replay log -> select -> relabel -> "
        "retrain -> gated promotion -> hot-swap",
    )
    parser.add_argument(
        "--workdir", type=Path, required=True,
        help="flywheel state root (replay/, store/, dataset.json)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--once", action="store_true",
        help="run exactly one cycle (the default)",
    )
    group.add_argument(
        "--cycles", type=int, default=None,
        help="run N sequential cycles",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--replay-log", type=Path, default=None,
        help="replay-log directory (default: WORKDIR/replay)",
    )
    parser.add_argument(
        "--dataset", type=Path, default=None,
        help="training dataset path, grown in place "
        "(default: WORKDIR/dataset.json)",
    )
    parser.add_argument(
        "--store", type=Path, default=None,
        help="version store directory (default: WORKDIR/store)",
    )
    parser.add_argument(
        "--traffic", type=int, default=0,
        help="before cycling, drive N deterministic scripted requests "
        "through an in-process service (serving the store's current "
        "version) into the replay log, then observe the hot-swap live",
    )
    parser.add_argument("--traffic-min-nodes", type=int, default=4)
    parser.add_argument("--traffic-max-nodes", type=int, default=8)
    parser.add_argument(
        "--p", type=int, default=1,
        help="fallback depth for the scripted-traffic service",
    )
    parser.add_argument(
        "--max-candidates", type=int, default=16,
        help="replay classes relabeled per cycle",
    )
    parser.add_argument(
        "--min-requests", type=int, default=1,
        help="ignore replay classes seen fewer times than this",
    )
    parser.add_argument(
        "--label-iters", type=int, default=120,
        help="optimizer iterations per relabeled instance",
    )
    parser.add_argument(
        "--label-method", choices=LABEL_METHODS, default="statevector",
        help="analytic-p1 admits unweighted depth-1 replay classes up "
        "to 512 nodes (labeled on the exact closed form); statevector "
        "keeps the dense n <= 15 bound",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="candidates per durable labeling-checkpoint shard",
    )
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial", help="relabeling fan-out backend",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra relabeling attempts per bucket before the cycle fails",
    )
    parser.add_argument(
        "--inject-failure-rate", type=float, default=0.0,
        help="TESTING: deterministically fail this fraction of relabeling "
        "buckets once each (prove checkpoint+retry; pair with --retries)",
    )
    parser.add_argument(
        "--arch", choices=("gat", "gcn", "gin", "sage", "mean"),
        default="gin",
    )
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument(
        "--sdp-threshold", type=float, default=0.7,
        help="SDP approximation-ratio threshold for new labels",
    )
    parser.add_argument(
        "--selective-rate", type=float, default=0.0,
        help="fraction of below-threshold labels retained by SDP",
    )
    parser.add_argument(
        "--eval-size", type=int, default=6,
        help="held-out records for the promotion gate",
    )
    parser.add_argument(
        "--eval-iters", type=int, default=40,
        help="optimizer iterations per gate-evaluation arm",
    )
    parser.add_argument(
        "--margin", type=float, default=0.0,
        help="mean-AR regression the gate tolerates before rejecting",
    )
    parser.set_defaults(func=_cmd_flywheel)


def _scripted_traffic(
    service, requests: int, seed: int, min_nodes: int, max_nodes: int
) -> int:
    """Deterministic request stream: sampled graphs, revisited in order.

    Half the requests are unique graphs, the rest revisit them
    round-robin, giving the selector a frequency signal. Pure function
    of ``seed``, so two runs produce identical replay logs.
    """
    import numpy as np

    from repro.data.generation import sample_graphs

    unique = max(1, requests // 2)
    graphs = sample_graphs(
        GenerationConfig(
            num_graphs=unique,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            seed=seed,
        ),
        np.random.default_rng(seed),
    )
    for index in range(requests):
        service.predict(graphs[index % len(graphs)])
    return requests


def _cmd_flywheel(args) -> int:
    from repro.flywheel import (
        FlywheelConfig,
        ModelWatcher,
        PromotionConfig,
        RelabelConfig,
        ReplayLog,
        RetrainConfig,
        SelectionConfig,
        VersionStore,
        run_cycles,
    )
    from repro.runtime import FaultInjector
    from repro.serving import PredictionService, ServingConfig

    cycles = args.cycles if args.cycles is not None else 1
    if cycles < 1:
        raise SystemExit("--cycles must be >= 1")
    workdir = args.workdir
    replay_dir = args.replay_log or workdir / "replay"
    dataset_path = args.dataset or workdir / "dataset.json"
    store = VersionStore(args.store or workdir / "store")

    config = FlywheelConfig.seeded(
        args.seed,
        eval_size=args.eval_size,
        selection=SelectionConfig(
            max_candidates=args.max_candidates,
            min_requests=args.min_requests,
            label_method=args.label_method,
        ),
        relabel=RelabelConfig(
            optimizer_iters=args.label_iters,
            label_method=args.label_method,
            checkpoint_every=args.checkpoint_every,
            backend=args.backend,
            workers=args.workers,
            retries=args.retries,
        ),
        retrain=RetrainConfig(
            arch=args.arch,
            hidden_dim=args.hidden_dim,
            epochs=args.epochs,
            batch_size=args.batch_size,
            sdp_threshold=args.sdp_threshold,
            selective_rate=args.selective_rate,
        ),
        promotion=PromotionConfig(
            eval_iters=args.eval_iters, margin=args.margin
        ),
    )
    injector = (
        FaultInjector(failure_rate=args.inject_failure_rate)
        if args.inject_failure_rate > 0.0
        else None
    )

    replay = ReplayLog(replay_dir, seed=args.seed)
    service = None
    watcher = None
    if args.traffic > 0:
        # A live in-process service: it writes the replay log the cycle
        # consumes, and stays up to observe the hot-swap afterwards.
        incumbent = (
            store.load_current()[0] if store.current() is not None else None
        )
        service = PredictionService(
            model=incumbent,
            config=ServingConfig(batching=False, default_p=args.p),
            replay_log=replay,
        )
        watcher = ModelWatcher(service, store)
        served = _scripted_traffic(
            service,
            args.traffic,
            args.seed,
            args.traffic_min_nodes,
            args.traffic_max_nodes,
        )
        print(f"drove {served} scripted requests into {replay_dir}")

    reports = run_cycles(
        cycles, replay, dataset_path, store, config, fault_injector=injector
    )

    summary = {
        "cycles": reports,
        "store": store.describe(),
    }
    if service is not None:
        swap = watcher.check_once()
        summary["hot_swap"] = swap
        if swap is not None:
            # One request through the live service proves the promoted
            # model answers without a restart.
            result = service.predict(_probe_graph(args.seed))
            summary["post_swap_source"] = result.source
        summary["serving_metrics"] = service.metrics_snapshot()["flywheel"]
        service.close()
    print(json.dumps(summary, indent=2))
    promoted = [r["version"] for r in reports if r.get("promoted")]
    if promoted:
        print(
            f"promoted version(s): "
            f"{', '.join(f'v{v:04d}' for v in promoted)}"
        )
    else:
        print("no promotion this run")
    return 0


def _probe_graph(seed: int) -> Graph:
    """One deterministic graph for the post-swap probe request."""
    import numpy as np

    from repro.data.generation import sample_graphs

    return sample_graphs(
        GenerationConfig(num_graphs=1, min_nodes=6, max_nodes=6, seed=seed),
        np.random.default_rng(seed),
    )[0]


def build_parser() -> argparse.ArgumentParser:
    """The top-level CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNN warm starts for QAOA (DAC 2024 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_train(subparsers)
    _add_evaluate(subparsers)
    _add_reproduce(subparsers)
    _add_serve(subparsers)
    _add_predict(subparsers)
    _add_flywheel(subparsers)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
