"""Training determinism across the cached and reference paths.

The contract of the batch cache: with the same seed, the default cached
path produces **bit-identical** per-epoch losses, validation losses,
and final weights to the from-scratch ``GraphBatch.from_graphs`` loop —
including under ``batch_invariant()`` and against the seed
``np.add.at`` kernels (``reference_scatter``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import QAOADataset, QAOARecord
from repro.gnn.batching import GraphBatch
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.generators import random_connected_graph
from repro.nn.segment import reference_scatter
from repro.nn.tensor import batch_invariant
from repro.pipeline.training import Trainer, TrainingConfig


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(31)
    records = []
    for _ in range(20):
        graph = random_connected_graph(
            int(rng.integers(4, 9)), rng=int(rng.integers(0, 2**31))
        )
        records.append(
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
    return QAOADataset(records[:16]), QAOADataset(records[16:])


def _fit(dataset, arch="gin", reference=False, validation=None, **overrides):
    train, val = dataset
    if validation is None:
        validation = val
    model = QAOAParameterPredictor(arch=arch, p=1, rng=5)
    config = TrainingConfig(epochs=3, batch_size=8, seed=13, **overrides)
    trainer = Trainer(model, config)
    if reference:
        with reference_scatter():
            history = trainer.fit(train, validation=validation)
    else:
        history = trainer.fit(train, validation=validation)
    weights = np.concatenate([p.data.ravel() for p in model.parameters()])
    return history, weights


@pytest.mark.parametrize("arch", ["gin", "gcn", "gat", "sage", "mean"])
def test_cached_path_bitwise_identical(dataset, arch):
    cached_history, cached_weights = _fit(dataset, arch=arch)
    ref_history, ref_weights = _fit(
        dataset, arch=arch, reference=True, compile_batches=False
    )
    assert cached_history.losses == ref_history.losses
    assert cached_history.validation_losses == ref_history.validation_losses
    assert np.array_equal(cached_weights, ref_weights)


def test_bitwise_identical_under_batch_invariant(dataset):
    with batch_invariant():
        cached_history, cached_weights = _fit(dataset)
        ref_history, ref_weights = _fit(
            dataset, reference=True, compile_batches=False
        )
    assert cached_history.losses == ref_history.losses
    assert np.array_equal(cached_weights, ref_weights)


def test_validation_batch_built_once(dataset, monkeypatch):
    """The hoist satellite: one ``from_graphs`` for the whole fit."""
    calls = []
    original = GraphBatch.from_graphs.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(
        GraphBatch, "from_graphs", classmethod(counting)
    )
    _fit(dataset)
    assert sum(calls) == 1  # validation only; training uses the cache


def test_epoch_times_and_throughput_recorded(dataset):
    history, _ = _fit(dataset)
    assert len(history.epoch_times) == 3
    assert all(t >= 0 for t in history.epoch_times)
    assert history.epochs_per_second > 0


def test_profiler_off_by_default(dataset):
    history, _ = _fit(dataset)
    assert history.profile is None


def test_profiler_report_in_history(dataset):
    history, _ = _fit(dataset, profile=True)
    report = history.profile
    assert report is not None and report["schema"] == 1
    phases = report["phases"]
    for name in ("compile", "batch_assembly", "forward", "backward",
                 "optimizer", "evaluate"):
        assert name in phases, sorted(phases)
        assert phases[name]["calls"] > 0
    assert report["accounted_s"] <= report["total_s"] + 1e-6


def test_evaluate_loss_accepts_prebuilt_batch(dataset):
    train, val = dataset
    model = QAOAParameterPredictor(arch="gin", p=1, rng=5)
    trainer = Trainer(model, TrainingConfig(epochs=1, seed=13))
    from repro.nn.tensor import Tensor

    batch = GraphBatch.from_graphs(
        val.graphs(), feature_kind="degree_onehot", max_nodes=model.in_dim
    )
    targets = Tensor(val.targets())
    rebuilt = trainer.evaluate_loss(val)
    prebuilt = trainer.evaluate_loss(val, batch=batch, targets=targets)
    assert rebuilt == prebuilt
