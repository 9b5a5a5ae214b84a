"""CompiledDataset: cached batch assembly must match ``from_graphs``.

The batch cache is the default training path, so its output has to be
**bit-identical** to rebuilding the ``GraphBatch`` from raw graphs —
same features, same edge arrays, same targets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.compiled import CompiledDataset
from repro.data.dataset import QAOADataset, QAOARecord
from repro.exceptions import DatasetError, ModelError
from repro.gnn.batching import GraphBatch
from repro.graphs.generators import random_connected_graph


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(77)
    out = []
    for _ in range(10):
        graph = random_connected_graph(
            int(rng.integers(4, 10)), rng=int(rng.integers(0, 2**31))
        )
        out.append(
            QAOARecord(
                graph=graph,
                p=1,
                gammas=(float(rng.uniform(0, 3)),),
                betas=(float(rng.uniform(0, 1.5)),),
                expectation=1.0,
                optimal_value=2.0,
                approximation_ratio=0.8,
            )
        )
    return out


@pytest.fixture(scope="module")
def compiled(records):
    return CompiledDataset(records, max_nodes=15)


def _reference_batch(records, indices):
    return GraphBatch.from_graphs(
        [records[i].graph for i in indices],
        feature_kind="degree_onehot",
        max_nodes=15,
    )


def _assert_batches_bitwise_equal(batch, reference):
    assert np.array_equal(batch.x.data, reference.x.data)
    assert np.array_equal(batch.edge_src, reference.edge_src)
    assert np.array_equal(batch.edge_dst, reference.edge_dst)
    assert np.array_equal(batch.edge_weight, reference.edge_weight)
    assert np.array_equal(batch.node_graph, reference.node_graph)
    assert batch.num_graphs == reference.num_graphs


class TestBitIdenticalAssembly:
    def test_full_dataset(self, records, compiled):
        indices = list(range(len(records)))
        _assert_batches_bitwise_equal(
            compiled.batch(indices), _reference_batch(records, indices)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_shuffled_subsets(self, records, compiled, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, len(records) + 1))
        indices = rng.permutation(len(records))[:size]
        _assert_batches_bitwise_equal(
            compiled.batch(indices), _reference_batch(records, indices)
        )

    def test_repeated_indices(self, records, compiled):
        indices = [3, 3, 1]
        _assert_batches_bitwise_equal(
            compiled.batch(indices), _reference_batch(records, indices)
        )

    def test_targets_match_records(self, records, compiled):
        expected = np.stack([r.target_vector() for r in records])
        assert np.array_equal(compiled.targets(), expected)
        subset = [4, 0, 7]
        assert np.array_equal(compiled.targets(subset), expected[subset])

    def test_batch_and_targets_aligned(self, records, compiled):
        indices = [5, 2]
        batch, targets = compiled.batch_and_targets(indices)
        _assert_batches_bitwise_equal(
            batch, _reference_batch(records, indices)
        )
        assert np.array_equal(
            targets.data,
            np.stack([records[i].target_vector() for i in indices]),
        )


class TestApi:
    def test_accepts_dataset_and_sequence(self, records):
        from_seq = CompiledDataset(records, max_nodes=15)
        from_ds = CompiledDataset(QAOADataset(records), max_nodes=15)
        assert len(from_seq) == len(from_ds) == len(records)
        assert from_seq.target_dim == from_ds.target_dim == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            CompiledDataset([])

    def test_empty_batch_rejected(self, compiled):
        with pytest.raises(ModelError):
            compiled.batch([])

    def test_full_batch_memoized(self, records, compiled):
        first = compiled.full_batch()
        assert compiled.full_batch() is first
        _assert_batches_bitwise_equal(
            first, _reference_batch(records, range(len(records)))
        )
