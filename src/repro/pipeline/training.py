"""Model training loop.

Matches the paper's "Implementation Details": Adam, MSE regression onto
the labeled ``(gamma, beta)`` vectors, ReduceLROnPlateau monitoring the
training loss (mode ``min``, divide-by-5 factor, patience 5, min lr
1e-5), 100 epochs.

Performance structure (see DESIGN "Training performance"):

- By default the trainer compiles the dataset once
  (:class:`~repro.data.compiled.CompiledDataset`) and assembles every
  shuffled mini-batch by index slicing — bit-identical to rebuilding
  ``GraphBatch.from_graphs`` per step, just without the per-step cost.
  ``TrainingConfig(compile_batches=False)`` restores the seed loop.
- ``TrainingConfig(profile=True)`` (or ``repro train --profile``)
  records per-phase wall time — batch assembly / forward / backward /
  optimizer — into ``TrainingHistory.profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from repro.data.compiled import CompiledDataset
from repro.data.dataset import QAOADataset
from repro.exceptions import DatasetError
from repro.gnn.batching import GraphBatch
from repro.gnn.predictor import QAOAParameterPredictor
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, GradClipper
from repro.nn.schedulers import ReduceLROnPlateau
from repro.nn.tensor import Tensor
from repro.profiling import NULL_PROFILER, TrainingProfiler
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, ensure_rng

logger = get_logger(__name__)


@dataclass
class TrainingConfig:
    """Hyperparameters of the paper's training setup.

    The last two fields are performance knobs, not hyperparameters:
    ``compile_batches`` (default on, bit-identical) caches per-graph
    arrays and assembles mini-batches by slicing; ``profile`` records
    per-phase wall times into the returned history.
    """

    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    scheduler_factor: float = 5.0  # paper phrasing; normalized to 1/5
    scheduler_patience: int = 5
    scheduler_min_lr: float = 1e-5
    weight_decay: float = 0.0
    seed: Optional[int] = None
    compile_batches: bool = True
    profile: bool = False


@dataclass
class TrainingHistory:
    """Per-epoch records produced by :class:`Trainer.fit`."""

    losses: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    epoch_times: List[float] = field(default_factory=list)
    profile: Optional[dict] = None

    @property
    def final_loss(self) -> float:
        """Loss of the last epoch."""
        return self.losses[-1] if self.losses else float("nan")

    @property
    def epochs_per_second(self) -> float:
        """Mean training throughput over recorded epochs."""
        total = sum(self.epoch_times)
        return len(self.epoch_times) / total if total > 0 else 0.0


class Trainer:
    """Trains a :class:`QAOAParameterPredictor` on a labeled dataset."""

    def __init__(
        self,
        model: QAOAParameterPredictor,
        config: Optional[TrainingConfig] = None,
        rng: RngLike = None,
    ):
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self._rng = ensure_rng(
            rng if rng is not None else self.config.seed
        )
        self.optimizer = Adam(
            model.parameters(),
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.scheduler = ReduceLROnPlateau(
            self.optimizer,
            mode="min",
            factor=self.config.scheduler_factor,
            patience=self.config.scheduler_patience,
            min_lr=self.config.scheduler_min_lr,
        )
        self._clipper = (
            GradClipper(model.parameters(), self.config.grad_clip)
            if self.config.grad_clip > 0
            else None
        )
        self.profiler = (
            TrainingProfiler() if self.config.profile else NULL_PROFILER
        )

    def fit(
        self,
        dataset: QAOADataset,
        validation: Optional[QAOADataset] = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainingHistory:
        """Run the full training loop; returns the loss history."""
        if len(dataset) == 0:
            raise DatasetError("cannot train on an empty dataset")
        if dataset.depth() != self.model.p:
            raise DatasetError(
                f"dataset depth {dataset.depth()} != model depth {self.model.p}"
            )
        history = TrainingHistory()
        profiler = self.profiler
        records = list(dataset)
        compiled: Optional[CompiledDataset] = None
        if self.config.compile_batches:
            with profiler.phase("compile"):
                compiled = CompiledDataset(
                    records,
                    feature_kind=self.model.feature_kind,
                    max_nodes=self.model.feature_budget,
                )
        # The validation batch is structural: build it once, not once
        # per epoch.
        val_batch: Optional[GraphBatch] = None
        val_targets: Optional[Tensor] = None
        if validation is not None and len(validation) > 0:
            with profiler.phase("compile"):
                val_batch = GraphBatch.from_graphs(
                    validation.graphs(),
                    feature_kind=self.model.feature_kind,
                    max_nodes=self.model.feature_budget,
                )
                val_targets = Tensor(validation.targets())
        for epoch in range(self.config.epochs):
            epoch_start = perf_counter()
            self.model.train()
            order = self._rng.permutation(len(records))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(records), self.config.batch_size):
                chunk = order[start:start + self.config.batch_size]
                with profiler.phase("batch_assembly"):
                    if compiled is not None:
                        batch, targets = compiled.batch_and_targets(chunk)
                    else:
                        batch, targets = self._assemble_uncached(
                            [records[i] for i in chunk]
                        )
                epoch_loss += self._step(batch, targets)
                batches += 1
            epoch_loss /= max(batches, 1)
            history.epoch_times.append(perf_counter() - epoch_start)
            history.losses.append(epoch_loss)
            history.learning_rates.append(self.optimizer.learning_rate)
            if val_batch is not None:
                with profiler.phase("evaluate"):
                    history.validation_losses.append(
                        self.evaluate_loss(
                            validation, batch=val_batch, targets=val_targets
                        )
                    )
            self.scheduler.step(epoch_loss)
            if callback is not None:
                callback(epoch, epoch_loss)
            if (epoch + 1) % 20 == 0:
                logger.info(
                    "epoch %d/%d loss %.5f lr %.2e",
                    epoch + 1,
                    self.config.epochs,
                    epoch_loss,
                    self.optimizer.learning_rate,
                )
        if profiler.enabled:
            history.profile = profiler.report()
        return history

    def _assemble_uncached(self, records):
        """The seed path: rebuild the batch from raw graphs every step."""
        batch = GraphBatch.from_graphs(
            [r.graph for r in records],
            feature_kind=self.model.feature_kind,
            max_nodes=self.model.feature_budget,
        )
        targets = Tensor(np.stack([r.target_vector() for r in records]))
        return batch, targets

    def _step(self, batch: GraphBatch, targets: Tensor) -> float:
        """One optimization step on an assembled batch."""
        profiler = self.profiler
        self.optimizer.zero_grad()
        with profiler.phase("forward"):
            prediction = self.model(batch)
            loss = mse_loss(prediction, targets)
        with profiler.phase("backward"):
            loss.backward()
        with profiler.phase("optimizer"):
            if self._clipper is not None:
                self._clipper()
            self.optimizer.step()
        return loss.item()

    def _train_batch(self, records) -> float:
        """Back-compat helper: assemble from raw records and step once."""
        batch, targets = self._assemble_uncached(records)
        return self._step(batch, targets)

    def evaluate_loss(
        self,
        dataset: QAOADataset,
        batch: Optional[GraphBatch] = None,
        targets: Optional[Tensor] = None,
    ) -> float:
        """MSE of the model on ``dataset`` (eval mode, no gradient).

        ``batch``/``targets`` accept a prebuilt ``GraphBatch`` and
        target tensor for the dataset (``fit`` passes the hoisted
        validation batch); omitted, they are built from ``dataset``.
        """
        from repro.nn.tensor import no_grad

        self.model.eval()
        if batch is None:
            batch = GraphBatch.from_graphs(
                dataset.graphs(),
                feature_kind=self.model.feature_kind,
                max_nodes=self.model.feature_budget,
            )
        if targets is None:
            targets = Tensor(dataset.targets())
        with no_grad():
            prediction = self.model(batch)
            loss = mse_loss(prediction, targets)
        self.model.train()
        return loss.item()


def train_predictor(
    dataset: QAOADataset,
    arch: str = "gin",
    config: Optional[TrainingConfig] = None,
    model_kwargs: Optional[dict] = None,
    rng: RngLike = None,
) -> QAOAParameterPredictor:
    """One-call convenience: build a predictor and fit it on ``dataset``."""
    generator = ensure_rng(rng)
    kwargs = dict(model_kwargs) if model_kwargs else {}
    kwargs.setdefault("p", dataset.depth())
    model = QAOAParameterPredictor(arch=arch, rng=generator, **kwargs)
    trainer = Trainer(model, config, rng=generator)
    trainer.fit(dataset)
    model.eval()
    return model
