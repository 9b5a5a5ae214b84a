"""Tests for the WL canonical hash (`repro.graphs.canonical`)."""

import hashlib

import numpy as np
import pytest

from repro.graphs.canonical import (
    WL_HASH_VERSION,
    wl_canonical_hash,
    wl_color_classes,
    wl_indistinguishable,
)
from repro.graphs.generators import (
    feasible_regular_degrees,
    random_connected_graph,
    random_regular_graph,
    random_weighted_graph,
)
from repro.graphs.graph import Graph


def relabel(graph: Graph, perm) -> Graph:
    """Apply a node permutation (old label -> perm[old])."""
    edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
    return Graph.from_edges(graph.num_nodes, edges, graph.weights)


def final_colors(graph: Graph):
    """The stable (last-round) WL coloring."""
    return wl_color_classes(graph)[-1]


def count_histogram_hash(graph: Graph) -> str:
    """The digest built from one ``colors.count`` per distinct color: the
    oracle for the one-pass histogram, which must not move a cache key."""
    digest = hashlib.sha256()
    digest.update(f"wl-v{WL_HASH_VERSION}\x00".encode())
    digest.update(f"n={graph.num_nodes}\x00m={graph.num_edges}\x00".encode())
    for colors in wl_color_classes(graph):
        histogram = sorted(
            (color, colors.count(color)) for color in set(colors)
        )
        digest.update(repr(histogram).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class TestColorClasses:
    def test_regular_graph_is_one_class(self, petersen_like):
        assert len(set(final_colors(petersen_like))) == 1

    def test_star_splits_hub_from_leaves(self):
        colors = final_colors(Graph.star(5))
        assert len(set(colors)) == 2
        # the hub is alone in its class
        hub_color = colors[0]
        assert sum(1 for c in colors if c == hub_color) == 1

    def test_path_symmetry(self):
        colors = final_colors(Graph.path(5))
        assert colors[0] == colors[4]
        assert colors[1] == colors[3]
        assert colors[0] != colors[2]

    def test_weights_refine_classes(self, triangle, weighted_triangle):
        assert len(set(final_colors(triangle))) == 1
        assert len(set(final_colors(weighted_triangle))) > 1


class TestHashInvariance:
    def test_relabel_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 13))
            graph = random_connected_graph(n, rng=int(rng.integers(0, 2**31)))
            permuted = relabel(graph, rng.permutation(n))
            assert wl_canonical_hash(graph) == wl_canonical_hash(permuted)
            assert wl_indistinguishable(graph, permuted)

    def test_relabel_invariant_weighted(self, rng):
        n = 6
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
        weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, len(edges)))
        graph = Graph.from_edges(n, edges, weights)
        perm = rng.permutation(n)
        assert wl_canonical_hash(graph) == wl_canonical_hash(
            relabel(graph, perm)
        )

    def test_deterministic_across_calls(self, triangle):
        assert wl_canonical_hash(triangle) == wl_canonical_hash(triangle)

    def test_hash_is_hex_digest(self, triangle):
        digest = wl_canonical_hash(triangle)
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    @pytest.mark.parametrize("n", [3, 4, 6, 9, 15, 31, 64, 120, 200])
    def test_digest_equals_count_histogram(self, n, rng):
        seed = int(rng.integers(0, 2**31))
        sparse = min(1.0, 3.0 / n)
        graphs = [
            random_connected_graph(n, sparse, rng=seed),
            random_weighted_graph(n, sparse, rng=seed),
        ]
        # Weights from a small set tie edges, so classes stay coarse.
        tied = graphs[0].with_weights(
            rng.choice([0.5, 1.0, 2.0], size=graphs[0].num_edges)
        )
        graphs.append(tied)
        if n >= 4:
            graphs.append(random_regular_graph(n - n % 2, 3, rng=seed))
        for graph in graphs:
            assert wl_canonical_hash(graph) == count_histogram_hash(graph)


class TestHashSensitivity:
    def test_edge_edit_changes_hash(self):
        square = Graph.cycle(4)
        with_chord = Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        )
        assert wl_canonical_hash(square) != wl_canonical_hash(with_chord)

    def test_edge_removal_changes_hash(self, triangle):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert wl_canonical_hash(triangle) != wl_canonical_hash(path)

    def test_weight_edit_changes_hash(self, triangle, weighted_triangle):
        assert wl_canonical_hash(triangle) != wl_canonical_hash(
            weighted_triangle
        )

    def test_node_count_changes_hash(self):
        assert wl_canonical_hash(Graph.cycle(5)) != wl_canonical_hash(
            Graph.cycle(6)
        )

    def test_version_in_preimage(self, triangle, monkeypatch):
        before = wl_canonical_hash(triangle)
        monkeypatch.setattr(
            "repro.graphs.canonical.WL_HASH_VERSION", WL_HASH_VERSION + 1
        )
        assert wl_canonical_hash(triangle) != before


class TestCollisionSmoke:
    def test_distinct_regular_classes_hash_distinctly(self):
        """Every (n, d) class over the generator's range gets its own hash.

        Same-(n, d) regular graphs intentionally collide (1-WL — exactly
        the GNN's expressiveness bound), but across classes the hash
        must separate.
        """
        digests = {}
        for n in range(4, 13):
            for d in feasible_regular_degrees(n):
                graph = random_regular_graph(n, d, rng=7)
                digest = wl_canonical_hash(graph)
                assert digest not in digests, (
                    f"({n},{d}) collides with {digests[digest]}"
                )
                digests[digest] = (n, d)
        assert len(digests) >= 30

    def test_same_class_regular_graphs_collide(self):
        """The documented 1-WL limit: same-(n, d) regular graphs collide."""
        a = random_regular_graph(10, 3, rng=0)
        b = random_regular_graph(10, 3, rng=1)
        assert wl_canonical_hash(a) == wl_canonical_hash(b)

    def test_random_connected_graphs_mostly_distinct(self, rng):
        digests = {
            wl_canonical_hash(
                random_connected_graph(
                    int(rng.integers(6, 13)), rng=int(rng.integers(0, 2**31))
                )
            )
            for _ in range(40)
        }
        assert len(digests) >= 35


class TestValidation:
    def test_rejects_non_graph(self):
        with pytest.raises(AttributeError):
            wl_canonical_hash(None)

    def test_single_node(self):
        digest = wl_canonical_hash(Graph(1, ()))
        assert len(digest) == 64


class TestCacheKeyClaim:
    """The serving cache keys on this hash, so two graphs with one key
    get one answer. That is sound only where the model's output is a
    function of the 1-WL class: under ``wl_histogram`` features, whose
    inputs are 1-WL colors themselves."""

    @pytest.mark.parametrize("arch", ["gcn", "gat", "gin", "sage"])
    def test_wl_histogram_outputs_agree_within_a_hash_class(self, arch):
        from repro.gnn.predictor import QAOAParameterPredictor

        cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        regular = random_regular_graph(8, 3, rng=3)
        irregular = random_connected_graph(9, rng=5)
        pairs = [
            (cycle, triangles),  # 1-WL twins, not isomorphic
            (regular, relabel(regular, np.random.default_rng(1).permutation(8))),
            (irregular, relabel(irregular, np.random.default_rng(2).permutation(9))),
        ]
        model = QAOAParameterPredictor(
            arch=arch, p=2, feature_kind="wl_histogram", rng=42
        )
        for a, b in pairs:
            assert wl_canonical_hash(a) == wl_canonical_hash(b)
            out = model.predict([a, b])
            # Equal up to the order of float sums over relabeled nodes.
            np.testing.assert_allclose(out[0], out[1], atol=1e-12, rtol=0.0)
