"""Weisfeiler-Lehman canonical hashing for isomorphism-aware caching.

The serving layer wants relabeled copies of the same Max-Cut instance to
hit one cache entry, so it keys predictions by a canonical hash that is
invariant under node permutations. We use 1-dimensional Weisfeiler-Lehman
color refinement: every node starts from its (weighted) degree signature
and repeatedly absorbs the sorted multiset of its neighbors' colors (with
edge weights folded into each message) until the color partition stops
refining. The hash digests the per-round color histograms with SHA-256,
so it is stable across processes and Python hash randomization.

1-WL cannot distinguish every non-isomorphic pair — famously, all
d-regular graphs of one size share a coloring. That limit is *exactly*
the expressive power of the message-passing GNNs served here (GCN, GAT,
GIN, GraphSAGE are bounded by 1-WL), so two graphs that collide under
this hash receive identical predictions from the model anyway: the cache
stays semantically exact for the architectures it fronts.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Tuple

from repro.graphs.graph import Graph

#: Bump when the hash input layout changes; folded into every digest so
#: caches never mix hashes from different algorithm revisions.
WL_HASH_VERSION = 1


def _weight_token(weight: float) -> str:
    """Exact, repr-stable token for an edge weight (1.0 -> '1.0')."""
    return repr(float(weight))


def wl_color_classes(
    graph: Graph, max_iterations: int = None
) -> List[Tuple[int, ...]]:
    """Per-round WL colors: one tuple of node colors per refinement round.

    Colors are canonical integer ids assigned by sorting the refinement
    signatures, so the returned classes are invariant under node
    relabeling (up to the node-index permutation itself). Refinement
    stops when the partition is stable or after ``max_iterations``
    rounds (default: ``num_nodes``).
    """
    n = graph.num_nodes
    if max_iterations is None:
        max_iterations = max(1, n)

    # Weighted adjacency as per-node (weight_token, neighbor) lists.
    neighbors: List[List[Tuple[str, int]]] = [[] for _ in range(n)]
    for (u, v), w in zip(graph.edges, graph.weights):
        token = _weight_token(w)
        neighbors[u].append((token, v))
        neighbors[v].append((token, u))

    # Round 0: weighted-degree signature.
    signatures = [
        ("deg", len(neighbors[v]), tuple(sorted(t for t, _ in neighbors[v])))
        for v in range(n)
    ]
    colors = _canonicalize(signatures)
    rounds = [colors]
    for _ in range(max_iterations):
        signatures = [
            (
                colors[v],
                tuple(sorted((token, colors[u]) for token, u in neighbors[v])),
            )
            for v in range(n)
        ]
        refined = _canonicalize(signatures)
        if refined == colors:
            break
        colors = refined
        rounds.append(colors)
    return rounds


def _canonicalize(signatures: List) -> Tuple[int, ...]:
    """Map signatures to dense integer colors by sorted signature order.

    Signatures within one round are homogeneous tuples, so plain tuple
    ordering applies. Because a refinement signature leads with the old
    color and old colors are dense ranks, a stable partition reproduces
    exactly the same ids — which is what the fixpoint test checks.
    """
    order: Dict[object, int] = {
        signature: index
        for index, signature in enumerate(sorted(set(signatures)))
    }
    return tuple(order[s] for s in signatures)


def wl_canonical_hash(graph: Graph, max_iterations: int = None) -> str:
    """Permutation-invariant SHA-256 hash of a graph's WL coloring.

    Two isomorphic graphs always hash identically; graphs differing in
    node count, degree sequence, edge weights, or any WL-visible
    structure hash differently. See the module docstring for the 1-WL
    collision caveat and why it is harmless for GNN serving.
    """
    digest = hashlib.sha256()
    digest.update(f"wl-v{WL_HASH_VERSION}\x00".encode())
    digest.update(f"n={graph.num_nodes}\x00m={graph.num_edges}\x00".encode())
    for colors in wl_color_classes(graph, max_iterations):
        histogram = sorted(Counter(colors).items())
        digest.update(repr(histogram).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def wl_indistinguishable(a: Graph, b: Graph) -> bool:
    """True if 1-WL cannot tell ``a`` and ``b`` apart.

    A necessary condition for isomorphism, and a sufficient condition for
    the message-passing architectures in :mod:`repro.gnn` to produce
    identical outputs (up to floating-point summation order).
    """
    return wl_canonical_hash(a) == wl_canonical_hash(b)
