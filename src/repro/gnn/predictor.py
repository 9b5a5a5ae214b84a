"""The GNN-based QAOA parameter predictor.

Architecture per the paper's "Implementation Details": a 2-layer GNN
encoder (input dim 15, embedding dim 32, dropout 0.5), mean-pool
readout, and an MLP prediction head regressing the ``2p`` parameters
``[gamma_1..gamma_p, beta_1..beta_p]``. The encoder architecture is one
of ``gcn``, ``gat``, ``gin``, ``sage`` (plus ``mean`` as an ablation
control).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.gnn.batching import GraphBatch
from repro.gnn.layers import GATConv, GCNConv, GINConv, MeanConv, SAGEConv
from repro.gnn.pooling import readout
from repro.graphs.features import FEATURE_KINDS, feature_dim, feature_max_nodes
from repro.graphs.graph import Graph
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, batch_invariant, no_grad
from repro.utils.rng import RngLike, ensure_rng

ARCHITECTURES = ("gcn", "gat", "gin", "sage", "mean")


def _make_layer(
    arch: str, in_dim: int, out_dim: int, rng, gat_heads: int = 1
) -> Module:
    if arch == "gcn":
        return GCNConv(in_dim, out_dim, rng=rng)
    if arch == "gat":
        return GATConv(in_dim, out_dim, num_heads=gat_heads, rng=rng)
    if arch == "gin":
        return GINConv(in_dim, out_dim, rng=rng)
    if arch == "sage":
        return SAGEConv(in_dim, out_dim, rng=rng)
    if arch == "mean":
        return MeanConv(in_dim, out_dim, rng=rng)
    raise ModelError(
        f"unknown architecture {arch!r}; choose from {ARCHITECTURES}"
    )


class GNNEncoder(Module):
    """Stack of message-passing layers producing node embeddings."""

    def __init__(
        self,
        arch: str = "gin",
        in_dim: int = 15,
        hidden_dim: int = 32,
        num_layers: int = 2,
        dropout: float = 0.5,
        gat_heads: int = 1,
        rng: RngLike = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ModelError("encoder needs at least one layer")
        generator = ensure_rng(rng)
        self.arch = arch
        self.layers: List[Module] = []
        self.dropouts: List[Dropout] = []
        dim = in_dim
        for _ in range(num_layers):
            self.layers.append(
                _make_layer(arch, dim, hidden_dim, generator, gat_heads)
            )
            self.dropouts.append(Dropout(dropout, rng=generator))
            dim = hidden_dim
        self.out_dim = hidden_dim

    def forward(self, batch: GraphBatch) -> Tensor:
        x = batch.x
        last = len(self.layers) - 1
        for index, (layer, drop) in enumerate(zip(self.layers, self.dropouts)):
            x = layer(x, batch)
            if index < last:
                x = x.relu()
            x = drop(x)
        return x


class QAOAParameterPredictor(Module):
    """Graph -> (gammas, betas) regression model.

    ``output_scaling='bounded'`` squashes the raw head output through a
    sigmoid scaled to the canonical angle ranges (gamma in [0, 2 pi),
    beta in [0, pi)); ``'linear'`` leaves it unbounded (plain
    regression). Bounded is the default because the training targets are
    canonicalized into those ranges.

    ``feature_kind`` is part of the model's identity: it decides how
    graphs are featurized at both training and inference time, and —
    via :attr:`max_nodes` — whether the model has a size cap at all
    (size-agnostic kinds serve graphs of any size). ``in_dim=None``
    derives the input dimension from the kind.
    """

    def __init__(
        self,
        arch: str = "gin",
        p: int = 1,
        in_dim: int = None,
        hidden_dim: int = 32,
        num_layers: int = 2,
        dropout: float = 0.5,
        head_hidden: int = 32,
        output_scaling: str = "bounded",
        readout_kind: str = "mean",
        gat_heads: int = 1,
        feature_kind: str = "degree_onehot",
        rng: RngLike = None,
    ):
        super().__init__()
        if p < 1:
            raise ModelError("depth p must be >= 1")
        if output_scaling not in ("bounded", "linear"):
            raise ModelError(f"unknown output scaling {output_scaling!r}")
        if feature_kind not in FEATURE_KINDS:
            raise ModelError(
                f"unknown feature kind {feature_kind!r}; "
                f"choose from {FEATURE_KINDS}"
            )
        if in_dim is None:
            in_dim = feature_dim(feature_kind)
        in_dim = int(in_dim)
        if feature_max_nodes(feature_kind) is None and in_dim != feature_dim(
            feature_kind
        ):
            raise ModelError(
                f"feature kind {feature_kind!r} produces "
                f"{feature_dim(feature_kind)}-dim features, but in_dim="
                f"{in_dim}"
            )
        generator = ensure_rng(rng)
        self.arch = arch
        self.p = p
        self.in_dim = in_dim
        self.feature_kind = feature_kind
        self.output_scaling = output_scaling
        self.readout_kind = readout_kind
        self.encoder = GNNEncoder(
            arch, in_dim, hidden_dim, num_layers, dropout, gat_heads,
            generator,
        )
        self.head_lin1 = Linear(hidden_dim, head_hidden, rng=generator)
        self.head_lin2 = Linear(head_hidden, 2 * p, rng=generator)

    def forward(self, batch: GraphBatch) -> Tensor:
        embeddings = self.encoder(batch)
        graph_repr = readout(embeddings, batch, self.readout_kind)
        raw = self.head_lin2(self.head_lin1(graph_repr).relu())
        if self.output_scaling == "linear":
            return raw
        squashed = raw.sigmoid()
        scale = np.concatenate(
            [np.full(self.p, 2.0 * np.pi), np.full(self.p, np.pi)]
        )
        return squashed * Tensor(scale[None, :])

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @property
    def max_nodes(self):
        """Largest graph this model can featurize (``None`` = unbounded).

        One-hot-family kinds are capped by their column budget
        (``in_dim`` columns, minus the degree column for
        ``degree_plus_onehot``); size-agnostic kinds have no cap. The
        serving gate uses this — not ``in_dim`` — to decide whether the
        model path applies to a request.
        """
        return feature_max_nodes(self.feature_kind, self.feature_budget)

    @property
    def feature_budget(self) -> int:
        """The ``max_nodes`` argument :func:`build_features` expects.

        ``in_dim`` for the one-hot column kinds (minus the extra degree
        column for ``degree_plus_onehot``); ignored by size-agnostic
        kinds, where it just passes ``in_dim`` through.
        """
        if self.feature_kind == "degree_plus_onehot":
            return self.in_dim - 1
        return self.in_dim

    # ------------------------------------------------------------------
    # Inference conveniences
    # ------------------------------------------------------------------
    def predict(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Predict parameters for graphs; returns shape ``(len, 2p)``.

        Runs under :func:`~repro.nn.tensor.batch_invariant`, so each
        graph's row is bit-identical no matter which other graphs share
        the batch — the contract the serving micro-batcher relies on.
        A model already in eval mode (every served model) skips the
        mode walk over its modules.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            batch = GraphBatch.from_graphs(
                graphs,
                feature_kind=self.feature_kind,
                max_nodes=self.feature_budget,
            )
            with no_grad(), batch_invariant():
                output = self.forward(batch)
            return output.data.copy()
        finally:
            if was_training:
                self.train()

    def predict_angles(self, graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
        """Predict ``(gammas, betas)`` for a single graph."""
        output = self.predict([graph])[0]
        return output[: self.p], output[self.p:]

    def as_initialization(self):
        """Wrap as an :class:`InitializationStrategy` for the QAOA runner."""
        from repro.qaoa.initialization import WarmStartInitialization

        def predict_fn(graph: Graph, p: int):
            if p != self.p:
                raise ModelError(
                    f"model predicts depth {self.p}, runner asked for {p}"
                )
            return self.predict_angles(graph)

        return WarmStartInitialization(predict_fn, name=f"gnn_{self.arch}")
