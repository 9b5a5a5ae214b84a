"""Warm-start evaluation: GNN initialization vs random initialization.

Reproduces the paper's experiment (Section 4): for each held-out test
graph, run QAOA once from a random initialization and once from the
model's predicted parameters under the same optimizer budget, and
compare the achieved approximation ratios. The headline quantity is the
per-graph *improvement* in percentage points,
``100 * (AR_gnn - AR_random)``, whose mean and standard deviation across
the test set form Table 1; the per-graph traces form Figure 5.

The evaluator buckets test graphs by node count, stacks both arms of
every graph in a bucket into one ``(K, 2^n)`` statevector block of the
:class:`~repro.qaoa.simulator.QAOASimulator`, and drives all K rows
through the full ansatz, adjoint gradient and one Adam step per sweep.
Rows never mix, so each arm's result is bit-identical to running that
arm alone through :meth:`~repro.qaoa.runner.QAOARunner.run` with the
same seed, whatever the bucket split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError, ExecutionError
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.graph import Graph
from repro.maxcut.cache import ProblemCache
from repro.maxcut.problem import MaxCutProblem
from repro.profiling import NULL_PROFILER
from repro.qaoa.initialization import (
    InitializationStrategy,
    RandomInitialization,
)
from repro.qaoa.optimizers import AdamOptimizer
from repro.qaoa.simulator import MAX_STACK_ROWS, QAOASimulator
from repro.runtime import ParallelExecutor, derive_task_seeds, task_rng
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, ensure_rng

logger = get_logger(__name__)


@dataclass
class WarmStartComparison:
    """Per-graph outcome of the random-vs-strategy comparison.

    Attributes
    ----------
    graph_name:
        Instance identifier.
    num_nodes, degree:
        Instance shape (degree = regular degree or max degree).
    random_ratio, strategy_ratio:
        Final approximation ratios from each initialization.
    random_initial_ratio, strategy_initial_ratio:
        Ratios *before* optimization (initialization quality itself).
    improvement:
        ``100 * (strategy_ratio - random_ratio)`` percentage points.
    """

    graph_name: str
    num_nodes: int
    degree: int
    random_ratio: float
    strategy_ratio: float
    random_initial_ratio: float
    strategy_initial_ratio: float

    @property
    def improvement(self) -> float:
        """Improvement over random init, in percentage points."""
        return 100.0 * (self.strategy_ratio - self.random_ratio)


@dataclass
class EvaluationResult:
    """Aggregate of a full test-set evaluation (one Table 1 cell).

    ``comparisons`` carries the per-graph traces used by Figure 5.
    """

    strategy_name: str
    comparisons: List[WarmStartComparison] = field(default_factory=list)

    @property
    def improvements(self) -> np.ndarray:
        """Per-graph improvements in percentage points."""
        return np.asarray([c.improvement for c in self.comparisons])

    @property
    def mean_improvement(self) -> float:
        """Mean improvement (Table 1 value)."""
        return float(self.improvements.mean()) if self.comparisons else 0.0

    @property
    def std_improvement(self) -> float:
        """Standard deviation of the improvement (Table 1 +/-)."""
        return float(self.improvements.std()) if self.comparisons else 0.0

    @property
    def sem_improvement(self) -> float:
        """Standard error of the mean improvement.

        Sample standard deviation (``ddof=1``) over ``sqrt(count)``;
        0.0 when fewer than two comparisons exist (the sample standard
        deviation is undefined for a single observation).
        """
        n = len(self.comparisons)
        if n < 2:
            return 0.0
        return float(self.improvements.std(ddof=1) / np.sqrt(n))

    @property
    def random_ratios(self) -> np.ndarray:
        """Per-graph final AR from random initialization (Fig 5 orange)."""
        return np.asarray([c.random_ratio for c in self.comparisons])

    @property
    def strategy_ratios(self) -> np.ndarray:
        """Per-graph final AR from the strategy (Fig 5 blue)."""
        return np.asarray([c.strategy_ratio for c in self.comparisons])

    def win_rate(self) -> float:
        """Fraction of test graphs where the strategy is at least as good."""
        if not self.comparisons:
            return 0.0
        return float((self.improvements >= 0.0).mean())

    def summary(self) -> Dict[str, float]:
        """Dict form for tables and JSON export.

        Safe on an empty result: all aggregates report 0.0 rather than
        dividing by a zero-length array.
        """
        empty = not self.comparisons
        return {
            "strategy": self.strategy_name,
            "mean_improvement": self.mean_improvement,
            "std_improvement": self.std_improvement,
            "sem_improvement": self.sem_improvement,
            "win_rate": self.win_rate(),
            "mean_random_ar": 0.0 if empty else float(self.random_ratios.mean()),
            "mean_strategy_ar": (
                0.0 if empty else float(self.strategy_ratios.mean())
            ),
            "std_random_ar": 0.0 if empty else float(self.random_ratios.std()),
            "std_strategy_ar": (
                0.0 if empty else float(self.strategy_ratios.std())
            ),
            "count": len(self.comparisons),
        }


def _graph_degree(graph: Graph) -> int:
    """Regular degree if the graph is regular, else max degree."""
    degree = graph.regular_degree()
    if degree is None:
        degree = graph.max_degree()
    return degree


#: One graph's slot in a bucket: (graph, random-arm seed, strategy-arm seed).
_BucketEntry = Tuple[Graph, int, int]


def _bucket_task(payload) -> List[WarmStartComparison]:
    """Run one size bucket as one simulator stack.

    Module-level (tuple payload) so the process backend can pickle it.
    Each graph contributes two adjacent instance rows — ``2j`` for the
    random arm and ``2j + 1`` for the strategy arm — to a single
    ``(K, 2^n)`` statevector stack, and all ``K`` rows march through
    the optimizer together. Initial parameters are drawn from
    ``task_rng(seed)`` exactly as :meth:`QAOARunner.run` draws them, so
    every row reproduces that arm's standalone run bit for bit.
    """
    (
        entries,
        random_strategy,
        strategy,
        p,
        optimizer,
        max_iters,
        cache,
    ) = payload
    problems: List[MaxCutProblem] = []
    gamma_rows: List[np.ndarray] = []
    beta_rows: List[np.ndarray] = []
    for graph, seed_random, seed_strategy in entries:
        problem = cache.get(graph) if cache is not None else MaxCutProblem(graph)
        for arm_strategy, seed in (
            (random_strategy, seed_random),
            (strategy, seed_strategy),
        ):
            gammas0, betas0 = arm_strategy.initial_parameters(
                graph, p, task_rng(seed)
            )
            problems.append(problem)
            gamma_rows.append(np.asarray(gammas0, dtype=np.float64))
            beta_rows.append(np.asarray(betas0, dtype=np.float64))
    simulator = QAOASimulator(problems)
    gammas = np.stack(gamma_rows)
    betas = np.stack(beta_rows)
    initial = simulator.expectation(gammas, betas)
    result = optimizer.run(simulator, gammas, betas, max_iters=max_iters)
    comparisons = []
    for j, (graph, _, _) in enumerate(entries):
        problem = problems[2 * j]
        comparisons.append(
            WarmStartComparison(
                graph_name=graph.name,
                num_nodes=graph.num_nodes,
                degree=_graph_degree(graph),
                random_ratio=problem.approximation_ratio(
                    float(result.expectation[2 * j])
                ),
                strategy_ratio=problem.approximation_ratio(
                    float(result.expectation[2 * j + 1])
                ),
                random_initial_ratio=problem.approximation_ratio(
                    float(initial[2 * j])
                ),
                strategy_initial_ratio=problem.approximation_ratio(
                    float(initial[2 * j + 1])
                ),
            )
        )
    return comparisons


def _size_buckets(
    graphs: Sequence[Graph], max_rows: int
) -> List[List[int]]:
    """Graph indices grouped by node count, chunked to the stack cap.

    ``max_rows`` caps the *instance rows* per stack; each graph
    contributes two rows (one per arm), so chunks hold at most
    ``max(1, max_rows // 2)`` graphs. Order within a bucket follows the
    input order.
    """
    by_size: Dict[int, List[int]] = {}
    for index, graph in enumerate(graphs):
        by_size.setdefault(graph.num_nodes, []).append(index)
    chunk = max(1, max_rows // 2)
    buckets = []
    for size in sorted(by_size):
        indices = by_size[size]
        for start in range(0, len(indices), chunk):
            buckets.append(indices[start : start + chunk])
    return buckets


class WarmStartEvaluator:
    """Runs the paired random-vs-strategy comparison over test graphs.

    The *same* optimizer budget is used on both arms; the random arm's
    initial angles are drawn independently per graph from the shared RNG
    stream, so comparisons are paired but unbiased.

    Test graphs are bucketed by node count into stacks of at most
    :data:`~repro.qaoa.simulator.MAX_STACK_ROWS` rows (two per graph),
    and ``executor`` fans the buckets out through the parallel runtime
    (default: serial). Per-arm seeds are derived from the evaluator RNG
    in graph order before dispatch, so results are bit-identical across
    backends and bucket splits.

    Parameters
    ----------
    problem_cache:
        Shared :class:`~repro.maxcut.cache.ProblemCache`; defaults to a
        fresh cache, so both arms of every comparison (and structurally
        repeated graphs) share one cost diagonal and brute-force
        optimum. Under the process backend the cache pickles to empty
        and deduplicates within each worker task only.
    profiler:
        Optional :class:`~repro.profiling.PhaseProfiler`; records
        ``prepare`` / ``optimize`` / ``aggregate`` phases per sweep.
    retries, task_timeout_s:
        Fault tolerance for the default executor (ignored when an
        ``executor`` is passed): extra attempts per bucket task and
        a wall-clock budget per attempt. Retried tasks reuse their
        pre-derived seeds, so results stay bit-identical.
    """

    def __init__(
        self,
        p: int = 1,
        optimizer_iters: int = 60,
        learning_rate: float = 0.05,
        rng: RngLike = None,
        executor: Optional[ParallelExecutor] = None,
        problem_cache: Optional[ProblemCache] = None,
        profiler=NULL_PROFILER,
        retries: int = 0,
        task_timeout_s: Optional[float] = None,
    ):
        self.p = p
        self.optimizer_iters = int(optimizer_iters)
        self.problem_cache = (
            problem_cache if problem_cache is not None else ProblemCache()
        )
        self.optimizer = AdamOptimizer(learning_rate=learning_rate)
        self._rng = ensure_rng(rng)
        # Per-graph seeds are derived before dispatch, so retried
        # evaluation tasks rerun with their original streams and the
        # sweep stays bit-reproducible.
        self.executor = (
            executor
            if executor is not None
            else ParallelExecutor(
                retries=retries, task_timeout_s=task_timeout_s
            )
        )
        self.profiler = profiler

    def evaluate_strategy(
        self,
        graphs: Sequence[Graph],
        strategy: InitializationStrategy,
        strategy_name: Optional[str] = None,
    ) -> EvaluationResult:
        """Compare ``strategy`` against random init on every graph."""
        if not graphs:
            raise DatasetError("no test graphs")
        name = strategy_name if strategy_name else strategy.name
        result = EvaluationResult(strategy_name=name)
        random_strategy = RandomInitialization()
        # Two seeds per graph, in graph order: (random arm, strategy
        # arm). They are fixed before bucketing, so the bucket split
        # cannot change which experiment runs.
        with self.profiler.phase("prepare"):
            seeds = derive_task_seeds(self._rng, 2 * len(graphs))
        comparisons = self._evaluate_buckets(
            graphs, random_strategy, strategy, seeds
        )
        with self.profiler.phase("aggregate"):
            result.comparisons.extend(comparisons)
        return result

    def _evaluate_buckets(
        self,
        graphs: Sequence[Graph],
        random_strategy: InitializationStrategy,
        strategy: InitializationStrategy,
        seeds: Sequence[int],
    ) -> List[WarmStartComparison]:
        """One task per size bucket; all rows of a bucket in one stack."""
        with self.profiler.phase("prepare"):
            buckets = _size_buckets(graphs, MAX_STACK_ROWS)
            payloads = []
            labels = []
            for bucket in buckets:
                entries: List[_BucketEntry] = [
                    (graphs[i], seeds[2 * i], seeds[2 * i + 1])
                    for i in bucket
                ]
                payloads.append(
                    (
                        entries,
                        random_strategy,
                        strategy,
                        self.p,
                        self.optimizer,
                        self.optimizer_iters,
                        self.problem_cache,
                    )
                )
                labels.append(
                    f"n={graphs[bucket[0]].num_nodes} x{len(bucket)}"
                )
        try:
            with self.profiler.phase("optimize"):
                results = self.executor.map(
                    _bucket_task, payloads, labels=labels
                )
        except ExecutionError as exc:
            names = ", ".join(failure.label for failure in exc.failures[:5])
            raise DatasetError(
                f"evaluation failed for {len(exc.failures)} bucket(s): {names}"
            ) from exc
        # Scatter bucket results back to the input graph order.
        comparisons: List[Optional[WarmStartComparison]] = [None] * len(graphs)
        for bucket, bucket_result in zip(buckets, results):
            for index, comparison in zip(bucket, bucket_result):
                comparisons[index] = comparison
        return comparisons  # type: ignore[return-value]

    def evaluate_model(
        self,
        graphs: Sequence[Graph],
        model: QAOAParameterPredictor,
        strategy_name: Optional[str] = None,
    ) -> EvaluationResult:
        """Compare a trained predictor against random init."""
        name = strategy_name if strategy_name else f"gnn_{model.arch}"
        return self.evaluate_strategy(graphs, model.as_initialization(), name)

    def evaluate_models(
        self,
        graphs: Sequence[Graph],
        models: Dict[str, QAOAParameterPredictor],
    ) -> Dict[str, EvaluationResult]:
        """Evaluate several models (the four-architecture comparison)."""
        return {
            name: self.evaluate_model(graphs, model, name)
            for name, model in models.items()
        }
