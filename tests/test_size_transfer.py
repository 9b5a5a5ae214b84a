"""Tests for the n<=15 cap lift: size-agnostic features, feature-kind
model identity, analytic-p1 labels, and large-graph serving.

Covers the end-to-end claim of the cap-lift PR — a model trained only
on small graphs with a size-agnostic feature kind answers 60-node
requests from the model path over live HTTP — plus the satellite
regressions: checkpoint round-trips are bit-identical per feature kind,
v1 checkpoints still load, fingerprints change when the featurization
does, the serving gate keys on real capability, and analytic-p1 labels
agree with the dense statevector where both apply.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data.generation import (
    GenerationConfig,
    generate_dataset,
    label_graph_analytic,
)
from repro.exceptions import DatasetError, ModelError
from repro.flywheel.labeler import RelabelConfig, relabel_candidates
from repro.flywheel.replay import ReplayRecord
from repro.flywheel.selector import SelectionConfig, select_candidates
from repro.gnn.predictor import QAOAParameterPredictor
from repro.graphs.canonical import wl_canonical_hash
from repro.graphs.features import (
    FEATURE_KINDS,
    SIZE_AGNOSTIC_KINDS,
    build_features,
    feature_dim,
    feature_max_nodes,
)
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph


def ring_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
from repro.pipeline.transfer import evaluate_size_transfer
from repro.qaoa.analytic import p1_expectation
from repro.qaoa.simulator import QAOASimulator
from repro.serving import (
    PredictionService,
    ServingConfig,
    ServingHTTPServer,
)
from repro.serving.registry import (
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
)


def permuted_copy(graph: Graph, seed: int = 7):
    """An isomorphic relabeling and the node permutation used."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_nodes)
    edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
    return Graph.from_edges(graph.num_nodes, edges), perm


def post_predict(port, graph, timeout=15):
    body = json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [list(e) for e in graph.edges]}
    ).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestSizeAgnosticFeatures:
    def test_dims_do_not_depend_on_graph_size(self):
        for kind in SIZE_AGNOSTIC_KINDS:
            for nodes in (4, 18, 40):
                graph = random_regular_graph(nodes, 3, rng=nodes)
                features = build_features(graph, kind)
                assert features.shape == (nodes, feature_dim(kind))

    def test_features_are_permutation_equivariant(self):
        graph = random_regular_graph(14, 3, rng=5)
        relabeled, perm = permuted_copy(graph)
        for kind in SIZE_AGNOSTIC_KINDS:
            original = build_features(graph, kind)
            moved = build_features(relabeled, kind)
            np.testing.assert_allclose(
                moved[perm], original, rtol=0, atol=1e-12
            )

    def test_feature_max_nodes_capability(self):
        for kind in SIZE_AGNOSTIC_KINDS:
            assert feature_max_nodes(kind) is None
        assert feature_max_nodes("degree_onehot", 15) == 15
        assert feature_max_nodes("degree_plus_onehot", 15) == 15

    def test_every_kind_is_buildable(self):
        graph = ring_graph(6)
        for kind in FEATURE_KINDS:
            features = build_features(graph, kind, max_nodes=10)
            assert features.shape[0] == 6


class TestFeatureKindModelIdentity:
    def test_in_dim_derived_from_feature_kind(self):
        model = QAOAParameterPredictor("gcn", p=1, feature_kind="wl_histogram")
        assert model.in_dim == feature_dim("wl_histogram")
        assert model.max_nodes is None

    def test_degree_onehot_capability_is_in_dim(self):
        model = QAOAParameterPredictor("gcn", p=1)
        assert model.feature_kind == "degree_onehot"
        assert model.max_nodes == model.in_dim == 15

    def test_size_agnostic_kind_rejects_wrong_in_dim(self):
        with pytest.raises(ModelError):
            QAOAParameterPredictor(
                "gcn", p=1, in_dim=7, feature_kind="structural"
            )

    def test_checkpoint_round_trip_is_bit_identical(self, tmp_path):
        big = random_regular_graph(60, 3, rng=11)
        for kind in ("structural", "wl_histogram", "degree_positional"):
            model = QAOAParameterPredictor(
                "gin", p=1, hidden_dim=16, feature_kind=kind, rng=3
            )
            model.eval()
            path = tmp_path / f"{kind}.json"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.feature_kind == kind
            assert loaded.max_nodes is None
            np.testing.assert_array_equal(
                model.predict([big]), loaded.predict([big])
            )

    def test_v1_checkpoint_loads_with_paper_defaults(self, tmp_path):
        model = QAOAParameterPredictor("gcn", p=1, hidden_dim=16, rng=9)
        model.eval()
        path = tmp_path / "v2.json"
        save_checkpoint(model, path)
        state = json.loads(path.read_text())
        for key in (
            "feature_kind", "in_dim", "head_hidden",
            "output_scaling", "readout_kind", "gat_heads",
        ):
            state.pop(key, None)
        state["format_version"] = 1
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps(state))
        loaded = load_checkpoint(v1_path)
        assert loaded.feature_kind == "degree_onehot"
        assert loaded.in_dim == 15
        graph = ring_graph(8)
        np.testing.assert_array_equal(
            model.predict([graph]), loaded.predict([graph])
        )

    def test_fingerprint_changes_when_featurization_changes(self):
        # Same architecture, same depth, same seed (so the same weight
        # tensors where shapes allow): the fingerprint must still split
        # on every forward-affecting field.
        base = QAOAParameterPredictor("gcn", p=1, rng=0)
        onehot = QAOAParameterPredictor(
            "gcn", p=1, feature_kind="onehot", rng=0
        )
        assert base.in_dim == onehot.in_dim
        assert model_fingerprint(base) != model_fingerprint(onehot)
        unbounded = QAOAParameterPredictor(
            "gcn", p=1, feature_kind="structural", rng=0
        )
        assert model_fingerprint(base) != model_fingerprint(unbounded)

    def test_fingerprint_stable_for_identical_models(self):
        a = QAOAParameterPredictor("gcn", p=1, rng=0)
        b = QAOAParameterPredictor("gcn", p=1, rng=0)
        assert model_fingerprint(a) == model_fingerprint(b)


class TestServingCapabilityGate:
    def test_size_agnostic_model_serves_large_graph(self):
        model = QAOAParameterPredictor(
            "gin", p=1, hidden_dim=16, feature_kind="structural", rng=2
        )
        model.eval()
        with PredictionService(
            model=model, config=ServingConfig(batching=False)
        ) as service:
            result = service.predict(random_regular_graph(100, 3, rng=1))
        assert result.source == "model"

    def test_onehot_model_falls_back_past_its_budget(self):
        model = QAOAParameterPredictor("gin", p=1, hidden_dim=16, rng=2)
        model.eval()
        with PredictionService(
            model=model, config=ServingConfig(batching=False)
        ) as service:
            small = service.predict(ring_graph(12))
            large = service.predict(random_regular_graph(16, 3, rng=1))
        assert small.source == "model"
        assert large.source != "model"

    def test_describe_reports_true_capability(self):
        model = QAOAParameterPredictor(
            "gin", p=1, hidden_dim=16, feature_kind="structural", rng=2
        )
        model.eval()
        with PredictionService(
            model=model, config=ServingConfig(batching=False)
        ) as service:
            info = service.describe()["models"][0]
        assert info["max_nodes"] is None
        assert info["feature_kind"] == "structural"


class TestAnalyticLabels:
    def test_analytic_labels_match_statevector_small(self):
        config = GenerationConfig(
            num_graphs=6,
            min_nodes=4,
            max_nodes=10,
            p=1,
            label_method="analytic-p1",
            seed=123,
            progress_every=0,
        )
        dataset = generate_dataset(config)
        for record in dataset:
            simulator = QAOASimulator(record.graph)
            dense = simulator.expectation(
                np.asarray(record.gammas), np.asarray(record.betas)
            )
            assert abs(dense - record.expectation) <= 1e-10
            assert record.source == "analytic_p1"

    def test_large_graph_labels_without_statevector(self):
        graph = random_regular_graph(60, 3, rng=4)
        record = label_graph_analytic(graph)
        assert record.expectation == pytest.approx(
            p1_expectation(graph, record.gammas[0], record.betas[0])
        )
        # Optimum above the brute-force bound is the total-edge-weight
        # upper bound, so the ratio is a lower bound but still sane.
        assert 0.3 < record.approximation_ratio <= 1.0

    def test_analytic_rejects_weighted_and_deep(self):
        graph = ring_graph(6)
        with pytest.raises(DatasetError):
            label_graph_analytic(graph, p=2)
        weighted = graph.with_weights((1.5,) * graph.num_edges)
        with pytest.raises(DatasetError):
            label_graph_analytic(weighted)

    def test_generate_dataset_rejects_oversized_statevector(self):
        config = GenerationConfig(
            num_graphs=2, min_nodes=30, max_nodes=40, seed=0,
            progress_every=0,
        )
        with pytest.raises(DatasetError):
            generate_dataset(config)


def _replay(graph, source="random"):
    return ReplayRecord(
        graph=graph,
        wl_hash=wl_canonical_hash(graph),
        p=1,
        gammas=(0.4,),
        betas=(0.3,),
        source=source,
    )


class TestFlywheelLargeGraphs:
    def test_selector_excludes_large_under_statevector(self):
        big = random_regular_graph(60, 3, rng=8)
        selected = select_candidates([_replay(big)])
        assert selected == []

    def test_selector_admits_large_under_analytic(self):
        big = random_regular_graph(60, 3, rng=8)
        config = SelectionConfig(label_method="analytic-p1")
        selected = select_candidates([_replay(big)], config=config)
        assert len(selected) == 1
        # Within the evaluation budget, so the served AR must have been
        # scored — on the closed form, not a 2^60 statevector.
        assert selected[0].served_ar is not None
        assert 0.0 <= selected[0].served_ar <= 1.0

    def test_labeler_relabels_large_bucket_analytically(self):
        big = random_regular_graph(60, 3, rng=8)
        config = SelectionConfig(label_method="analytic-p1")
        candidates = select_candidates([_replay(big)], config=config)
        records = relabel_candidates(
            candidates, RelabelConfig(label_method="analytic-p1")
        )
        assert len(records) == 1
        record = records[0]
        assert record.source == "flywheel"
        assert record.expectation == pytest.approx(
            p1_expectation(big, record.gammas[0], record.betas[0])
        )
        # The optimizer can only improve on the served warm start.
        assert record.approximation_ratio >= candidates[0].served_ar - 1e-12


class TestTransferEvaluation:
    def test_report_shape_and_ranges(self):
        model = QAOAParameterPredictor(
            "gin", p=1, hidden_dim=16, feature_kind="structural", rng=0
        )
        model.eval()
        report = evaluate_size_transfer(
            model, node_sizes=(20, 30), graphs_per_size=2, rng=0
        )
        assert [entry["num_nodes"] for entry in report["sizes"]] == [20, 30]
        for entry in report["sizes"]:
            assert 0.0 <= entry["model_ratio"] <= 1.0 + 1e-9
            assert 0.0 <= entry["fixed_ratio"] <= 1.0 + 1e-9
        json.dumps(report)  # JSON-safe

    def test_capped_model_is_rejected(self):
        model = QAOAParameterPredictor("gcn", p=1, rng=0)
        with pytest.raises(ModelError):
            evaluate_size_transfer(model, node_sizes=(50,), rng=0)


class TestLargeGraphHTTP:
    def test_sixty_node_predict_answers_from_model(self):
        model = QAOAParameterPredictor(
            "gin", p=1, hidden_dim=16, feature_kind="structural", rng=2
        )
        model.eval()
        service = PredictionService(
            model=model, config=ServingConfig(batching=False)
        )
        server = ServingHTTPServer(service, port=0).start_background()
        try:
            status, payload = post_predict(
                server.port, random_regular_graph(60, 3, rng=3)
            )
        finally:
            server.close()
        assert status == 200
        assert payload["source"] == "model"
        assert len(payload["gammas"]) == 1

    def test_request_node_cap_is_400(self):
        service = PredictionService(config=ServingConfig(batching=False))
        server = ServingHTTPServer(
            service, port=0, max_request_nodes=10
        ).start_background()
        try:
            status, payload = post_predict(server.port, ring_graph(12))
        finally:
            server.close()
        assert status == 400
        assert "caps requests at 10 nodes" in payload["error"]

    def test_request_edge_cap_is_400(self):
        service = PredictionService(config=ServingConfig(batching=False))
        server = ServingHTTPServer(
            service, port=0, max_request_edges=5
        ).start_background()
        try:
            status, payload = post_predict(server.port, ring_graph(12))
        finally:
            server.close()
        assert status == 400
        assert "caps requests at 5 edges" in payload["error"]


class TestLargeGraphScaleStack:
    """The large-graph path with the load guards on: a tight admission
    gate and an 80-node request cap."""

    @pytest.fixture(scope="class")
    def scale_server(self):
        model = QAOAParameterPredictor(
            "gin", p=1, hidden_dim=16, feature_kind="structural", rng=2
        )
        model.eval()
        service = PredictionService(model=model, config=ServingConfig())
        with ServingHTTPServer(
            service, port=0, max_request_nodes=80, max_inflight=2
        ).start_background() as server:
            yield server

    def test_sixty_node_predict_answers_from_model(self, scale_server):
        status, payload = post_predict(
            scale_server.port, random_regular_graph(60, 3, rng=3)
        )
        assert status == 200
        assert payload["source"] == "model"
        assert "degraded" not in payload

    def test_request_cap_is_400_before_any_work(self, scale_server):
        requests_before = scale_server.service.metrics.requests
        status, payload = post_predict(
            scale_server.port, random_regular_graph(100, 3, rng=3)
        )
        assert status == 400
        assert "caps requests at 80 nodes" in payload["error"]
        # The service never saw the request, and the gate is balanced.
        assert scale_server.service.metrics.requests == requests_before
        stats = scale_server.admission.stats()
        assert stats["inflight"] == stats["concurrent"] == 0
