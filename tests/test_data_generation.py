"""Tests for dataset generation and labeling."""

import numpy as np
import pytest

from repro.data.generation import (
    GenerationConfig,
    canonicalize_angles,
    generate_dataset,
    label_graph,
    paper_scale_config,
    sample_graphs,
)
from repro.exceptions import DatasetError
from repro.qaoa.simulator import QAOASimulator
from repro.runtime import FaultInjector, ParallelExecutor


class TestCanonicalize:
    def test_gamma_wraps_2pi(self):
        gammas, betas = canonicalize_angles([2 * np.pi + 0.3], [0.2])
        assert gammas[0] == pytest.approx(0.3)

    def test_beta_wraps_half_pi(self):
        _, betas = canonicalize_angles([0.1], [np.pi / 2 + 0.4])
        assert betas[0] == pytest.approx(0.4)

    def test_negative_angles_fold_to_small_positive(self):
        # -0.1 wraps to 2pi-0.1 > pi, so the time-reversal fold fires
        # and both angles land back at +0.1
        gammas, betas = canonicalize_angles([-0.1], [-0.1])
        assert gammas[0] == pytest.approx(0.1)
        assert betas[0] == pytest.approx(0.1)

    def test_first_gamma_folded_into_half_domain(self):
        gammas, _ = canonicalize_angles([np.pi + 0.5], [0.2])
        assert 0.0 <= gammas[0] <= np.pi

    def test_fold_preserves_expectation(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        raw_g, raw_b = np.array([np.pi + 0.9]), np.array([1.3])
        canon_g, canon_b = canonicalize_angles(raw_g, raw_b)
        assert simulator.expectation(raw_g, raw_b) == pytest.approx(
            simulator.expectation(canon_g, canon_b)
        )

    def test_multilayer_fold_preserves_expectation(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        raw_g = np.array([5.1, 2.2])
        raw_b = np.array([1.0, 2.8])
        canon_g, canon_b = canonicalize_angles(raw_g, raw_b)
        assert simulator.expectation(raw_g, raw_b) == pytest.approx(
            simulator.expectation(canon_g, canon_b)
        )
        assert (canon_b < np.pi / 2).all()

    def test_weighted_passthrough(self):
        gammas, betas = canonicalize_angles([7.0], [4.0], weighted=True)
        assert gammas[0] == 7.0
        assert betas[0] == 4.0

    def test_canonicalization_preserves_expectation(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        raw_g, raw_b = np.array([9.5]), np.array([4.2])
        canon_g, canon_b = canonicalize_angles(raw_g, raw_b)
        assert simulator.expectation(raw_g, raw_b) == pytest.approx(
            simulator.expectation(canon_g, canon_b)
        )


class TestSampleGraphs:
    def test_count_and_ranges(self):
        config = GenerationConfig(num_graphs=30, min_nodes=4, max_nodes=9, seed=1)
        graphs = sample_graphs(config)
        assert len(graphs) == 30
        assert all(4 <= g.num_nodes <= 9 for g in graphs)
        assert all(g.is_regular() for g in graphs)
        assert all(g.regular_degree() >= 2 for g in graphs)

    def test_names_unique(self):
        config = GenerationConfig(num_graphs=20, seed=2)
        graphs = sample_graphs(config)
        assert len({g.name for g in graphs}) == 20

    def test_deterministic(self):
        config = GenerationConfig(num_graphs=10, seed=3)
        a = sample_graphs(config)
        b = sample_graphs(config)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            sample_graphs(GenerationConfig(num_graphs=0))
        with pytest.raises(DatasetError):
            sample_graphs(GenerationConfig(min_nodes=1))

    def test_min_nodes_above_max_nodes_raises(self):
        # without validation this config loops forever
        with pytest.raises(DatasetError, match="min_nodes"):
            sample_graphs(GenerationConfig(min_nodes=9, max_nodes=5))

    def test_weighted_config(self):
        config = GenerationConfig(
            num_graphs=8, min_nodes=4, max_nodes=7, weighted=True,
            weight_range=(0.5, 1.5), seed=4,
        )
        graphs = sample_graphs(config)
        assert all(g.is_weighted for g in graphs)
        assert all(
            0.5 <= w <= 1.5 for g in graphs for w in g.weights
        )
        # topology still regular even when weights vary
        assert all(g.is_regular() for g in graphs)

    def test_weighted_labels_not_canonicalized(self):
        config = GenerationConfig(
            num_graphs=3, min_nodes=4, max_nodes=5, optimizer_iters=10,
            weighted=True, seed=5,
        )
        dataset = generate_dataset(config)
        # weighted labels pass through without folding — just sanity
        # check they reproduce their stored expectation
        record = dataset[0]
        simulator = QAOASimulator(record.graph)
        assert simulator.expectation(
            np.asarray(record.gammas), np.asarray(record.betas)
        ) == pytest.approx(record.expectation)


class TestLabelGraph:
    def test_record_consistency(self, petersen_like):
        record = label_graph(petersen_like, optimizer_iters=50, rng=0)
        assert record.p == 1
        assert record.optimal_value > 0
        assert record.approximation_ratio == pytest.approx(
            record.expectation / record.optimal_value
        )
        # label angles reproduce the stored expectation
        simulator = QAOASimulator(petersen_like)
        assert simulator.expectation(
            np.asarray(record.gammas), np.asarray(record.betas)
        ) == pytest.approx(record.expectation)

    def test_angles_canonicalized(self, petersen_like):
        record = label_graph(petersen_like, optimizer_iters=50, rng=1)
        assert all(0 <= g < 2 * np.pi for g in record.gammas)
        assert record.gammas[0] <= np.pi
        assert all(0 <= b < np.pi / 2 for b in record.betas)

    def test_depth_two(self, petersen_like):
        record = label_graph(petersen_like, p=2, optimizer_iters=30, rng=0)
        assert len(record.gammas) == 2
        assert len(record.betas) == 2

    def test_more_iterations_do_not_hurt(self, petersen_like):
        short = label_graph(petersen_like, optimizer_iters=5, rng=3)
        long = label_graph(petersen_like, optimizer_iters=120, rng=3)
        assert long.approximation_ratio >= short.approximation_ratio - 1e-9


class TestGenerateDataset:
    def test_end_to_end(self, tiny_dataset):
        assert len(tiny_dataset) == 24
        ratios = tiny_dataset.approximation_ratios()
        assert (ratios > 0.0).all()
        assert (ratios <= 1.0 + 1e-9).all()

    def test_deterministic_given_seed(self):
        config = GenerationConfig(
            num_graphs=4, min_nodes=4, max_nodes=6, optimizer_iters=10, seed=5
        )
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert a.targets() == pytest.approx(b.targets())

    def test_paper_scale_config_values(self):
        config = paper_scale_config()
        assert config.num_graphs == 9598
        assert config.optimizer_iters == 500
        assert config.min_nodes == 2
        assert config.max_nodes == 15


class TestParallelGeneration:
    CONFIG = dict(
        num_graphs=6, min_nodes=4, max_nodes=6, optimizer_iters=8, seed=11
    )

    def _targets(self, dataset):
        return np.asarray(dataset.targets())

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_backend_bit_identical(self, workers):
        config = GenerationConfig(**self.CONFIG)
        serial = generate_dataset(config)
        parallel = generate_dataset(
            config,
            executor=ParallelExecutor(backend="thread", max_workers=workers),
        )
        assert np.array_equal(self._targets(serial), self._targets(parallel))
        assert [r.graph.name for r in serial] == [
            r.graph.name for r in parallel
        ]
        assert [r.expectation for r in serial] == [
            r.expectation for r in parallel
        ]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_backend_bit_identical(self, workers):
        config = GenerationConfig(**self.CONFIG)
        serial = generate_dataset(config)
        parallel = generate_dataset(
            config,
            executor=ParallelExecutor(backend="process", max_workers=workers),
        )
        assert np.array_equal(self._targets(serial), self._targets(parallel))

    def test_injected_failures_with_retry_bit_identical(self):
        # Every task fails once and is retried: the records must not
        # depend on the retry (per-task seeds, not attempt order).
        config = GenerationConfig(**self.CONFIG)
        clean = generate_dataset(config)
        executor = ParallelExecutor(
            backend="serial",
            retries=1,
            fault_injector=FaultInjector(failure_rate=1.0),
        )
        retried = generate_dataset(config, executor=executor)
        assert np.array_equal(self._targets(clean), self._targets(retried))
        assert [r.expectation for r in clean] == [
            r.expectation for r in retried
        ]
        assert executor.last_report.retried == config.num_graphs
        assert executor.last_report.failed == 0

    def test_config_backend_field_used(self):
        config = GenerationConfig(**self.CONFIG)
        via_field = GenerationConfig(
            **self.CONFIG, backend="thread", workers=2
        )
        assert np.array_equal(
            self._targets(generate_dataset(config)),
            self._targets(generate_dataset(via_field)),
        )

    def test_worker_exception_surfaces_graph_name(self, monkeypatch):
        import repro.data.generation as generation_module

        original = generation_module.label_graph

        def exploding(graph, **kwargs):
            if graph.name.startswith("g00002"):
                raise RuntimeError("boom")
            return original(graph, **kwargs)

        monkeypatch.setattr(generation_module, "label_graph", exploding)
        config = GenerationConfig(**self.CONFIG)
        with pytest.raises(DatasetError, match="g00002") as excinfo:
            generate_dataset(
                config,
                executor=ParallelExecutor(backend="thread", max_workers=2),
            )
        assert "labeling failed" in str(excinfo.value)
