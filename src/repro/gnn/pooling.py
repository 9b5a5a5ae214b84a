"""Graph-level readout (Eq. 9): pool node embeddings per graph."""

from __future__ import annotations

from repro.exceptions import ModelError
from repro.gnn.batching import GraphBatch
from repro.nn.segment import segment_max, segment_mean, segment_sum
from repro.nn.tensor import Tensor


def mean_pool(x: Tensor, batch: GraphBatch) -> Tensor:
    """Per-graph mean of node embeddings — the paper's readout."""
    return segment_mean(x, batch.node_graph, batch.num_graphs)


def sum_pool(x: Tensor, batch: GraphBatch) -> Tensor:
    """Per-graph sum of node embeddings."""
    return segment_sum(x, batch.node_graph, batch.num_graphs)


def max_pool(x: Tensor, batch: GraphBatch) -> Tensor:
    """Per-graph elementwise max of node embeddings."""
    return segment_max(x, batch.node_graph, batch.num_graphs)


def readout(x: Tensor, batch: GraphBatch, kind: str = "mean") -> Tensor:
    """Dispatch pooling by name: mean (default) / sum / max."""
    if kind == "mean":
        return mean_pool(x, batch)
    if kind == "sum":
        return sum_pool(x, batch)
    if kind == "max":
        return max_pool(x, batch)
    raise ModelError(f"unknown readout {kind!r}")
