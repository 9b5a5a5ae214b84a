"""Tests for pooling and the QAOA parameter predictor."""

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.gnn.batching import GraphBatch
from repro.gnn.pooling import max_pool, mean_pool, readout, sum_pool
from repro.gnn.predictor import (
    ARCHITECTURES,
    GNNEncoder,
    QAOAParameterPredictor,
)
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.nn.optim import Adam
from repro.nn.losses import mse_loss
from repro.nn.tensor import Tensor, rowwise_matmul_loop


class TestPooling:
    @pytest.fixture
    def batch(self, triangle, square):
        feats_a = np.array([[1.0], [2.0], [3.0]])
        feats_b = np.array([[4.0], [4.0], [4.0], [8.0]])
        return GraphBatch.from_graphs(
            [triangle, square], features=[feats_a, feats_b]
        )

    def test_mean_pool(self, batch):
        out = mean_pool(batch.x, batch)
        np.testing.assert_allclose(out.data, [[2.0], [5.0]])

    def test_sum_pool(self, batch):
        out = sum_pool(batch.x, batch)
        np.testing.assert_allclose(out.data, [[6.0], [20.0]])

    def test_max_pool(self, batch):
        out = max_pool(batch.x, batch)
        np.testing.assert_allclose(out.data, [[3.0], [8.0]])

    def test_readout_dispatch(self, batch):
        assert readout(batch.x, batch, "mean").data[0, 0] == 2.0
        with pytest.raises(ModelError):
            readout(batch.x, batch, "bogus")


class TestEncoder:
    def test_layer_count(self):
        encoder = GNNEncoder("gcn", in_dim=15, hidden_dim=32, num_layers=3, rng=0)
        assert len(encoder.layers) == 3
        assert encoder.out_dim == 32

    def test_rejects_zero_layers(self):
        with pytest.raises(ModelError):
            GNNEncoder("gcn", num_layers=0)

    def test_unknown_arch(self):
        with pytest.raises(ModelError, match="unknown architecture"):
            GNNEncoder("transformer")

    def test_embedding_shape(self, petersen_like):
        encoder = GNNEncoder("gin", rng=0)
        encoder.eval()
        batch = GraphBatch.from_graphs([petersen_like])
        assert encoder(batch).shape == (10, 32)


class TestPredictor:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_output_shape(self, arch, petersen_like, square):
        model = QAOAParameterPredictor(arch=arch, p=2, rng=0)
        batch = GraphBatch.from_graphs([petersen_like, square])
        assert model(batch).shape == (2, 4)

    def test_bounded_outputs_in_range(self, petersen_like):
        model = QAOAParameterPredictor(arch="gcn", p=1, rng=0)
        model.eval()
        gammas, betas = model.predict_angles(petersen_like)
        assert 0.0 <= gammas[0] <= 2 * np.pi
        assert 0.0 <= betas[0] <= np.pi

    def test_linear_scaling_unbounded(self, petersen_like):
        model = QAOAParameterPredictor(
            arch="gcn", p=1, output_scaling="linear", rng=0
        )
        batch = GraphBatch.from_graphs([petersen_like])
        # no error and no clipping applied
        assert model(batch).shape == (1, 2)

    def test_multihead_gat_predictor(self, petersen_like):
        model = QAOAParameterPredictor(
            arch="gat", p=1, gat_heads=4, rng=0
        )
        batch = GraphBatch.from_graphs([petersen_like])
        assert model(batch).shape == (1, 2)

    def test_gat_heads_must_divide_hidden(self):
        with pytest.raises(ModelError):
            QAOAParameterPredictor(
                arch="gat", p=1, hidden_dim=32, gat_heads=5, rng=0
            )

    def test_invalid_scaling(self):
        with pytest.raises(ModelError):
            QAOAParameterPredictor(output_scaling="clip")

    def test_invalid_depth(self):
        with pytest.raises(ModelError):
            QAOAParameterPredictor(p=0)

    def test_predict_eval_deterministic(self, petersen_like):
        # dropout must be off during predict: repeated calls identical
        model = QAOAParameterPredictor(arch="gin", p=1, dropout=0.5, rng=0)
        a = model.predict([petersen_like])
        b = model.predict([petersen_like])
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("arch", ["gcn", "gat", "gin", "sage"])
    def test_predict_rows_are_batch_invariant(self, arch):
        # A graph's row is the same bytes whichever graphs share its batch.
        model = QAOAParameterPredictor(arch=arch, p=2, hidden_dim=16, rng=5)
        model.eval()
        sizes = iter([6, 7, 9, 5, 8, 10, 11, 12, 13, 14])
        for count in (1, 2, 7):
            graphs = [
                erdos_renyi_graph(next(sizes), 0.5, rng=40 + i)
                for i in range(count)
            ]
            rows = model.predict(graphs)
            assert rows.shape == (count, 4)
            for graph, row in zip(graphs, rows):
                assert row.tobytes() == model.predict([graph])[0].tobytes()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("p", [1, 2])
    def test_predict_bytes_match_loop_kernel(self, arch, p, monkeypatch):
        # The one-pass batch-invariant matmul moves no served byte: the
        # same rows as the per-column loop for single graphs, a batch
        # under the one-pass row limit and one past it.
        model = QAOAParameterPredictor(arch=arch, p=p, rng=11)
        model.eval()
        graphs = [
            erdos_renyi_graph(5 + i % 10, 0.5, rng=90 + i) for i in range(12)
        ]
        batches = [[graph] for graph in graphs] + [graphs[:5], graphs]
        fast = [model.predict(batch).tobytes() for batch in batches]
        monkeypatch.setattr(
            "repro.nn.tensor.rowwise_matmul", rowwise_matmul_loop
        )
        assert [model.predict(batch).tobytes() for batch in batches] == fast

    def test_concurrent_predicts_match_serial(self):
        # More threads than cores and a tiny switch interval. Enough new
        # graphs to keep the flat scatter-index cache evicting, so
        # unlocked evictions or process-wide mode flags would show.
        model = QAOAParameterPredictor(arch="gin", p=1, hidden_dim=16, rng=3)
        model.eval()
        graphs = [
            erdos_renyi_graph(6 + i % 10, 0.5, rng=700 + i) for i in range(400)
        ]
        serial = [model.predict([graph]).tobytes() for graph in graphs]
        concurrent = [None] * len(graphs)
        errors = []
        workers = 8

        def work(start):
            try:
                for i in range(start, len(graphs), workers):
                    concurrent[i] = model.predict([graphs[i]]).tobytes()
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(workers)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert concurrent == serial

    def test_predict_restores_training_mode(self, petersen_like):
        model = QAOAParameterPredictor(arch="gin", p=1, rng=0)
        model.train()
        model.predict([petersen_like])
        assert model.training

    def test_as_initialization_strategy(self, petersen_like):
        model = QAOAParameterPredictor(arch="gcn", p=1, rng=0)
        model.eval()
        strategy = model.as_initialization()
        gammas, betas = strategy.initial_parameters(petersen_like, 1)
        direct_g, direct_b = model.predict_angles(petersen_like)
        np.testing.assert_allclose(gammas, direct_g)
        assert strategy.name == "gnn_gcn"

    def test_as_initialization_depth_mismatch(self, petersen_like):
        model = QAOAParameterPredictor(arch="gcn", p=1, rng=0)
        strategy = model.as_initialization()
        with pytest.raises(ModelError):
            strategy.initial_parameters(petersen_like, 2)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_overfits_single_target(self, arch):
        # each architecture can memorize a constant target on two graphs
        graphs = [Graph.cycle(5), Graph.complete(4)]
        model = QAOAParameterPredictor(arch=arch, p=1, dropout=0.0, rng=1)
        batch = GraphBatch.from_graphs(graphs)
        target = Tensor(np.tile([1.2, 0.5], (2, 1)))
        optimizer = Adam(model.parameters(), 0.01)
        losses = []
        for _ in range(150):
            optimizer.zero_grad()
            loss = mse_loss(model(batch), target)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.2, arch

    def test_distinguishes_graphs(self):
        # after training on two different targets, predictions differ
        graphs = [Graph.cycle(6), Graph.complete(6)]
        model = QAOAParameterPredictor(arch="gin", p=1, dropout=0.0, rng=2)
        batch = GraphBatch.from_graphs(graphs)
        target = Tensor(np.array([[0.5, 0.2], [2.5, 1.2]]))
        optimizer = Adam(model.parameters(), 0.01)
        for _ in range(300):
            optimizer.zero_grad()
            loss = mse_loss(model(batch), target)
            loss.backward()
            optimizer.step()
        model.eval()
        predictions = model.predict(graphs)
        assert abs(predictions[0, 0] - predictions[1, 0]) > 0.5
