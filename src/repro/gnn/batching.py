"""Batched graph representation for message passing.

A :class:`GraphBatch` packs one or more graphs into a single disjoint
union: node features are stacked, edges are offset, and ``node_graph``
maps every node back to its graph for pooling. Message passing operates
on *directed* edges, so each undirected edge contributes both
orientations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.graphs.features import build_features
from repro.graphs.graph import Graph
from repro.nn.tensor import Tensor


class GraphBatch:
    """A disjoint union of graphs ready for GNN layers.

    Attributes
    ----------
    x:
        Node features, shape ``(total_nodes, feature_dim)``.
    edge_src, edge_dst:
        Directed edge endpoints (both orientations of each undirected
        edge), int arrays of length ``total_directed_edges``.
    edge_weight:
        Weights parallel to the directed edges.
    node_graph:
        Graph id per node, length ``total_nodes``.
    num_graphs, num_nodes:
        Counts for the whole batch.
    """

    def __init__(
        self,
        x: Tensor,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weight: np.ndarray,
        node_graph: np.ndarray,
        num_graphs: int,
    ):
        self.x = x
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
        self.node_graph = np.asarray(node_graph, dtype=np.int64)
        self.num_graphs = int(num_graphs)
        self.num_nodes = int(x.shape[0])
        if self.edge_src.shape != self.edge_dst.shape:
            raise ModelError("edge endpoint arrays differ in length")
        if self.edge_weight.shape != self.edge_src.shape:
            raise ModelError("edge weights differ in length from edges")
        if self.node_graph.shape[0] != self.num_nodes:
            raise ModelError("node_graph length != node count")

    @property
    def num_edges(self) -> int:
        """Number of *directed* edges in the batch."""
        return int(self.edge_src.shape[0])

    def degrees(self) -> np.ndarray:
        """In-degree per node over directed edges (== undirected degree)."""
        return np.bincount(
            self.edge_dst, minlength=self.num_nodes
        ).astype(np.float64)

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[Graph],
        features: Optional[Sequence[np.ndarray]] = None,
        feature_kind: str = "degree_onehot",
        max_nodes: int = 15,
    ) -> "GraphBatch":
        """Build a batch from graphs, computing features unless provided."""
        if not graphs:
            raise ModelError("empty batch")
        if features is not None and len(features) != len(graphs):
            raise ModelError("feature list length != graph count")
        xs: List[np.ndarray] = []
        srcs: List[np.ndarray] = []
        dsts: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        node_graph: List[np.ndarray] = []
        offset = 0
        for index, graph in enumerate(graphs):
            if features is not None:
                feats = np.asarray(features[index], dtype=np.float64)
                if feats.shape[0] != graph.num_nodes:
                    raise ModelError(
                        f"graph {index}: {feats.shape[0]} feature rows for "
                        f"{graph.num_nodes} nodes"
                    )
            else:
                feats = build_features(graph, feature_kind, max_nodes)
            xs.append(feats)
            edges = graph.edge_array()
            w = graph.weight_array()
            srcs.append(edges[:, 0] + offset)
            dsts.append(edges[:, 1] + offset)
            srcs.append(edges[:, 1] + offset)
            dsts.append(edges[:, 0] + offset)
            weights.append(w)
            weights.append(w)
            node_graph.append(np.full(graph.num_nodes, index, dtype=np.int64))
            offset += graph.num_nodes
        return cls(
            x=Tensor(np.concatenate(xs, axis=0)),
            edge_src=np.concatenate(srcs) if srcs else np.zeros(0, np.int64),
            edge_dst=np.concatenate(dsts) if dsts else np.zeros(0, np.int64),
            edge_weight=(
                np.concatenate(weights) if weights else np.zeros(0, np.float64)
            ),
            node_graph=np.concatenate(node_graph),
            num_graphs=len(graphs),
        )

    def with_features(self, x: Tensor) -> "GraphBatch":
        """Copy of the batch with replaced node features."""
        return GraphBatch(
            x,
            self.edge_src,
            self.edge_dst,
            self.edge_weight,
            self.node_graph,
            self.num_graphs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphBatch(graphs={self.num_graphs}, nodes={self.num_nodes}, "
            f"directed_edges={self.num_edges})"
        )
