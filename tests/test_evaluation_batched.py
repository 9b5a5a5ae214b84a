"""Warm-start evaluation on the stacked engine.

Both arms of every same-size graph share one simulator stack. Rows never
mix, so every ratio is *identical* to running that arm alone through
:meth:`QAOARunner.run` with the same seed (the "serial" reference below),
whatever the stack cap splits the buckets into.
"""

import numpy as np
import pytest

from repro.graphs.generators import random_connected_graph
from repro.maxcut.cache import ProblemCache
from repro.pipeline import evaluation
from repro.pipeline.evaluation import (
    EvaluationResult,
    WarmStartComparison,
    WarmStartEvaluator,
    _size_buckets,
)
from repro.profiling import EvaluationProfiler
from repro.qaoa.initialization import (
    ConstantInitialization,
    RandomInitialization,
)
from repro.qaoa.optimizers import AdamOptimizer
from repro.qaoa.runner import QAOARunner
from repro.runtime import ParallelExecutor, derive_task_seeds, task_rng
from repro.utils.rng import ensure_rng

ITERS = 12
SEED = 123
STRATEGY = ConstantInitialization(0.6, 0.4)


@pytest.fixture(scope="module")
def mixed_graphs():
    # Sizes 5..8, two graphs each, interleaved so bucketing has to
    # scatter results back to input order.
    graphs = []
    for i in range(8):
        size = 5 + (i % 4)
        graphs.append(
            random_connected_graph(size, rng=31 + i, name=f"m{i}")
        )
    return graphs


def _evaluate(graphs, seed=SEED, **kwargs):
    evaluator = WarmStartEvaluator(
        p=1, optimizer_iters=ITERS, rng=seed, **kwargs
    )
    return evaluator.evaluate_strategy(graphs, STRATEGY, "const")


def _serial_reference(graphs, seed=SEED):
    """Each arm run alone through ``QAOARunner.run`` with the seed the
    evaluator derives for it (two per graph, in graph order)."""
    seeds = derive_task_seeds(ensure_rng(seed), 2 * len(graphs))
    runner = QAOARunner(
        p=1, optimizer=AdamOptimizer(learning_rate=0.05), max_iters=ITERS
    )
    comparisons = []
    for i, graph in enumerate(graphs):
        random_arm = runner.run(
            graph, RandomInitialization(), task_rng(seeds[2 * i])
        )
        strategy_arm = runner.run(graph, STRATEGY, task_rng(seeds[2 * i + 1]))
        comparisons.append(
            (
                graph.name,
                random_arm.approximation_ratio,
                strategy_arm.approximation_ratio,
                random_arm.initial_approximation_ratio,
                strategy_arm.initial_approximation_ratio,
            )
        )
    return comparisons


def _rows(result):
    return [
        (
            c.graph_name,
            c.random_ratio,
            c.strategy_ratio,
            c.random_initial_ratio,
            c.strategy_initial_ratio,
        )
        for c in result.comparisons
    ]


class TestSizeBuckets:
    def test_groups_by_node_count(self):
        graphs = [
            random_connected_graph(n, rng=n, name=f"g{i}")
            for i, n in enumerate([5, 6, 5, 7, 6, 5])
        ]
        buckets = _size_buckets(graphs, 64)
        # One bucket per distinct size, preserving input order inside.
        assert sorted(map(tuple, buckets)) == [(0, 2, 5), (1, 4), (3,)]

    def test_bucket_cap_counts_rows_not_graphs(self):
        graphs = [
            random_connected_graph(5, rng=i, name=f"g{i}") for i in range(5)
        ]
        # A cap of 4 rows -> 2 graphs per bucket.
        buckets = _size_buckets(graphs, 4)
        assert [len(b) for b in buckets] == [2, 2, 1]

    def test_minimum_one_graph_per_bucket(self):
        graphs = [
            random_connected_graph(5, rng=i, name=f"g{i}") for i in range(2)
        ]
        assert [len(b) for b in _size_buckets(graphs, 2)] == [1, 1]


class TestBatchedEvaluator:
    def test_matches_serial_on_mixed_sizes(self, mixed_graphs):
        assert _rows(_evaluate(mixed_graphs)) == _serial_reference(
            mixed_graphs
        )

    def test_bucket_splitting_does_not_change_results(
        self, mixed_graphs, monkeypatch
    ):
        # A 2-row cap degenerates to one graph per stack; results must
        # not depend on the split.
        whole = _rows(_evaluate(mixed_graphs))
        monkeypatch.setattr(evaluation, "MAX_STACK_ROWS", 2)
        split = _rows(_evaluate(mixed_graphs))
        assert split == whole

    def test_single_graph_test_set(self):
        graph = [random_connected_graph(6, rng=1, name="solo")]
        assert _rows(_evaluate(graph)) == _serial_reference(graph)

    def test_thread_backend_matches(self, mixed_graphs):
        serial = _rows(_evaluate(mixed_graphs))
        threaded = _rows(
            _evaluate(
                mixed_graphs,
                executor=ParallelExecutor(backend="thread", max_workers=2),
            )
        )
        assert threaded == serial

    def test_engine_switches_are_gone(self):
        for removed in ({"batched": True}, {"max_bucket": 8}):
            with pytest.raises(TypeError):
                WarmStartEvaluator(**removed)

    def test_problem_cache_shared_across_sweeps(self, mixed_graphs):
        # Within a sweep both arms share one problem (a single cache
        # lookup per graph); a second sweep over the same graphs — the
        # multi-architecture comparison — must hit for every graph.
        cache = ProblemCache()
        _evaluate(mixed_graphs, problem_cache=cache)
        assert cache.misses == len(mixed_graphs)
        assert cache.hits == 0
        _evaluate(mixed_graphs, problem_cache=cache)
        assert cache.misses == len(mixed_graphs)
        assert cache.hits == len(mixed_graphs)

    def test_profiler_records_phases(self, mixed_graphs):
        profiler = EvaluationProfiler()
        _evaluate(mixed_graphs, profiler=profiler)
        phases = profiler.report()["phases"]
        assert {"prepare", "optimize", "aggregate"} <= set(phases)
        assert "evaluation profile" in profiler.format_report()


class TestEvaluationResultStatistics:
    def _result(self, improvements):
        result = EvaluationResult(strategy_name="x")
        for i, delta in enumerate(improvements):
            result.comparisons.append(
                WarmStartComparison(
                    graph_name=f"g{i}",
                    num_nodes=5,
                    degree=2,
                    random_ratio=0.7,
                    strategy_ratio=0.7 + delta / 100.0,
                    random_initial_ratio=0.5,
                    strategy_initial_ratio=0.5,
                )
            )
        return result

    def test_sem_matches_definition(self):
        values = [10.0, -10.0, 10.0, 6.0]
        result = self._result(values)
        expected = np.std(values, ddof=1) / np.sqrt(len(values))
        assert result.sem_improvement == pytest.approx(expected)

    def test_sem_zero_below_two_samples(self):
        assert self._result([]).sem_improvement == 0.0
        assert self._result([5.0]).sem_improvement == 0.0

    def test_empty_summary_is_all_zeros(self):
        summary = self._result([]).summary()
        assert summary["count"] == 0
        for key, value in summary.items():
            if key not in ("strategy", "count"):
                assert value == 0.0, (key, value)

    def test_summary_includes_sem(self):
        summary = self._result([1.0, 3.0]).summary()
        assert summary["sem_improvement"] == pytest.approx(
            np.std([1.0, 3.0], ddof=1) / np.sqrt(2)
        )
