"""Message-passing layers: GCN, GAT, GIN, GraphSAGE.

Each layer implements the AGGREGATE/COMBINE equations quoted in the
paper (Section 3.2):

- **GCN** (Eq. 5): ``h_v' = ReLU(W . MEAN{h_u, u in N(v) U {v}})`` in its
  spectral form with symmetric normalization
  ``D~^{-1/2} A~ D~^{-1/2} H W`` (self loops added).
- **GAT** (Eqs. 6-7): attention coefficients from
  ``LeakyReLU(a^T [W h_v || W h_u])``, softmax-normalized over each
  node's neighborhood, then a weighted aggregation.
- **GIN** (Eq. 8): ``h_v' = MLP((1 + eps) h_v + sum_u h_u)`` with a
  learnable ``eps``.
- **GraphSAGE** (Eqs. 3-4): max-pool aggregator
  ``a_v = MAX(ReLU(W_pool h_u))`` combined by ``W [h_v || a_v]``.

Layers output raw (pre-activation) features except where the defining
equation bakes the nonlinearity in (GCN, GIN's internal MLP); the
encoder applies inter-layer activations uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.gnn.batching import GraphBatch
from repro.nn import init
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.segment import (
    gather,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import RngLike, ensure_rng


class GCNConv(Module):
    """Graph convolution with symmetric normalization and self loops."""

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        n = batch.num_nodes
        # A~ = A + I: append self loops.
        src = np.concatenate([batch.edge_src, np.arange(n)])
        dst = np.concatenate([batch.edge_dst, np.arange(n)])
        weight = np.concatenate([batch.edge_weight, np.ones(n)])
        # bincount accumulates in item order — bitwise identical to the
        # former np.add.at loop, at a fraction of the cost.
        degree = np.bincount(dst, weights=weight, minlength=n)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
        coefficient = weight * inv_sqrt[src] * inv_sqrt[dst]

        transformed = self.linear(x)
        messages = gather(transformed, src) * Tensor(coefficient[:, None])
        return segment_sum(messages, dst, n)


class GATConv(Module):
    """Graph attention layer (Velickovic et al.), multi-head capable.

    Heads are concatenated, so ``out_features`` must be divisible by
    ``num_heads``. Self loops are added so every node attends to itself.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 1,
        negative_slope: float = 0.2,
        rng: RngLike = None,
    ):
        super().__init__()
        if out_features % num_heads != 0:
            raise ModelError(
                f"out_features {out_features} not divisible by "
                f"{num_heads} heads"
            )
        generator = ensure_rng(rng)
        self.num_heads = num_heads
        self.head_dim = out_features // num_heads
        self.negative_slope = negative_slope
        self.linear = Linear(in_features, out_features, bias=False, rng=generator)
        self.att_src = Parameter(
            init.xavier_uniform(num_heads, self.head_dim, rng=generator)
        )
        self.att_dst = Parameter(
            init.xavier_uniform(num_heads, self.head_dim, rng=generator)
        )
        self.bias = Parameter(init.zeros(out_features))

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        n = batch.num_nodes
        src = np.concatenate([batch.edge_src, np.arange(n)])
        dst = np.concatenate([batch.edge_dst, np.arange(n)])

        transformed = self.linear(x)  # (n, heads * head_dim)
        # Per-head projections of the attention vector: score contribution
        # alpha_src[v, h] = sum_d transformed[v, h, d] * att_src[h, d].
        reshaped = transformed.reshape(n, self.num_heads, self.head_dim)
        alpha_src = (reshaped * self.att_src.reshape(1, self.num_heads, self.head_dim)).sum(axis=2)
        alpha_dst = (reshaped * self.att_dst.reshape(1, self.num_heads, self.head_dim)).sum(axis=2)

        scores = (
            gather(alpha_src, src) + gather(alpha_dst, dst)
        ).leaky_relu(self.negative_slope)  # (edges, heads)
        attention = segment_softmax(scores, dst, n)

        messages = gather(reshaped, src) * attention.reshape(
            len(src), self.num_heads, 1
        )
        aggregated = segment_sum(messages, dst, n)
        return aggregated.reshape(n, self.num_heads * self.head_dim) + self.bias


class GINConv(Module):
    """Graph isomorphism layer: ``MLP((1 + eps) h_v + sum_u h_u)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden_features: int = None,
        learn_eps: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        generator = ensure_rng(rng)
        hidden = hidden_features if hidden_features is not None else out_features
        self.lin1 = Linear(in_features, hidden, rng=generator)
        self.lin2 = Linear(hidden, out_features, rng=generator)
        self.eps = Parameter(np.zeros(1)) if learn_eps else None

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        neighbor_sum = segment_sum(
            gather(x, batch.edge_src), batch.edge_dst, batch.num_nodes
        )
        if self.eps is not None:
            combined = x * (self.eps + 1.0) + neighbor_sum
        else:
            combined = x + neighbor_sum
        return self.lin2(self.lin1(combined).relu())


class SAGEConv(Module):
    """GraphSAGE with the max-pool aggregator (paper Eqs. 3-4)."""

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None):
        super().__init__()
        generator = ensure_rng(rng)
        self.pool = Linear(in_features, in_features, rng=generator)
        self.combine = Linear(2 * in_features, out_features, rng=generator)

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        pooled_messages = self.pool(gather(x, batch.edge_src)).relu()
        aggregated = segment_max(
            pooled_messages, batch.edge_dst, batch.num_nodes
        )
        return self.combine(concat([x, aggregated], axis=1))


class MeanConv(Module):
    """Plain mean aggregation + linear (ablation control with no tricks)."""

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None):
        super().__init__()
        self.linear = Linear(2 * in_features, out_features, rng=rng)

    def forward(self, x: Tensor, batch: GraphBatch) -> Tensor:
        aggregated = segment_mean(
            gather(x, batch.edge_src), batch.edge_dst, batch.num_nodes
        )
        return self.linear(concat([x, aggregated], axis=1))
