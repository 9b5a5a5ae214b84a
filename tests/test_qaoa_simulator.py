"""Tests for the fast QAOA simulator and its exact gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError
from repro.graphs.graph import Graph
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph
from repro.maxcut.problem import MaxCutProblem
from repro.qaoa.ansatz import build_qaoa_circuit
from repro.qaoa.simulator import QAOASimulator


class TestForward:
    def test_accepts_graph_or_problem(self, triangle):
        a = QAOASimulator(triangle)
        b = QAOASimulator(MaxCutProblem(triangle))
        assert a.expectation([0.3], [0.2]) == pytest.approx(
            b.expectation([0.3], [0.2])
        )

    def test_zero_angles_give_half_edges(self, petersen_like):
        # |+> state: every edge cut with probability 1/2
        simulator = QAOASimulator(petersen_like)
        assert simulator.expectation([0.0], [0.0]) == pytest.approx(
            petersen_like.num_edges / 2.0
        )

    def test_state_normalized(self, petersen_like):
        state = QAOASimulator(petersen_like).state([0.4, 0.1], [0.3, 0.2])
        assert state.norm() == pytest.approx(1.0)

    def test_matches_gate_level_circuit(self, petersen_like):
        gammas, betas = np.array([0.5, 0.9]), np.array([0.35, 0.15])
        fast = QAOASimulator(petersen_like).state(gammas, betas)
        slow = build_qaoa_circuit(petersen_like, gammas, betas).run()
        assert abs(np.vdot(fast.data, slow.data)) == pytest.approx(1.0)

    def test_matches_gate_level_weighted(self, weighted_triangle):
        gammas, betas = np.array([0.7]), np.array([0.4])
        fast = QAOASimulator(weighted_triangle).state(gammas, betas)
        slow = build_qaoa_circuit(weighted_triangle, gammas, betas).run()
        assert abs(np.vdot(fast.data, slow.data)) == pytest.approx(1.0)

    def test_expectation_below_optimum(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        optimum = MaxCutProblem(petersen_like).max_cut_value()
        for gamma in (0.2, 0.6, 1.1):
            assert simulator.expectation([gamma], [0.3]) <= optimum + 1e-9

    def test_gamma_periodicity_unweighted(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        e1 = simulator.expectation([0.4], [0.3])
        e2 = simulator.expectation([0.4 + 2 * np.pi], [0.3])
        assert e1 == pytest.approx(e2)

    def test_beta_periodicity(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        e1 = simulator.expectation([0.4], [0.3])
        e2 = simulator.expectation([0.4], [0.3 + np.pi])
        assert e1 == pytest.approx(e2)

    def test_param_validation(self, triangle):
        simulator = QAOASimulator(triangle)
        with pytest.raises(CircuitError):
            simulator.expectation([0.1, 0.2], [0.3])
        with pytest.raises(CircuitError):
            simulator.expectation([], [])

    def test_approximation_ratio_in_unit_interval(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        ratio = simulator.approximation_ratio([0.4], [0.3])
        assert 0.0 <= ratio <= 1.0

    def test_sample_cut_value_achievable(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        bitstring, value = simulator.sample_cut([0.4], [0.3], shots=64, rng=0)
        from repro.maxcut.problem import cut_value

        assert cut_value(petersen_like, bitstring) == value


class TestGradients:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_adjoint_matches_finite_difference(self, petersen_like, p):
        simulator = QAOASimulator(petersen_like)
        rng = np.random.default_rng(p)
        gammas = rng.uniform(0, 2, size=p)
        betas = rng.uniform(0, 1, size=p)
        _, grad_gamma, grad_beta = simulator.expectation_and_gradient(
            gammas, betas
        )
        fd_gamma, fd_beta = simulator.gradient_finite_difference(gammas, betas)
        assert np.allclose(grad_gamma, fd_gamma, atol=1e-6)
        assert np.allclose(grad_beta, fd_beta, atol=1e-6)

    def test_gradient_zero_at_zero_angles(self, petersen_like):
        # d<C>/dgamma at (0, 0): state is |+>, C expectation stationary in
        # beta (no phase structure to rotate), gradient wrt beta must be 0.
        simulator = QAOASimulator(petersen_like)
        _, _, grad_beta = simulator.expectation_and_gradient([0.0], [0.0])
        assert np.allclose(grad_beta, 0.0, atol=1e-12)

    def test_energy_consistency(self, petersen_like):
        simulator = QAOASimulator(petersen_like)
        gammas, betas = np.array([0.4, 0.8]), np.array([0.25, 0.1])
        energy, _, _ = simulator.expectation_and_gradient(gammas, betas)
        assert energy == pytest.approx(simulator.expectation(gammas, betas))

    @given(st.integers(3, 8), st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_property_gradients_on_random_graphs(self, n, seed):
        graph = erdos_renyi_graph(n, 0.5, rng=seed)
        if graph.num_edges == 0:
            return
        simulator = QAOASimulator(graph)
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(0, 2, size=2)
        betas = rng.uniform(0, 1, size=2)
        _, grad_gamma, grad_beta = simulator.expectation_and_gradient(
            gammas, betas
        )
        fd_gamma, fd_beta = simulator.gradient_finite_difference(gammas, betas)
        assert np.allclose(grad_gamma, fd_gamma, atol=1e-5)
        assert np.allclose(grad_beta, fd_beta, atol=1e-5)

    def test_weighted_graph_gradients(self, weighted_triangle):
        simulator = QAOASimulator(weighted_triangle)
        gammas, betas = np.array([0.3]), np.array([0.6])
        _, grad_gamma, grad_beta = simulator.expectation_and_gradient(
            gammas, betas
        )
        fd_gamma, fd_beta = simulator.gradient_finite_difference(gammas, betas)
        assert np.allclose(grad_gamma, fd_gamma, atol=1e-6)
        assert np.allclose(grad_beta, fd_beta, atol=1e-6)


class TestGradientCallHook:
    """perfbench times the simulator by wrapping
    ``QAOASimulator.expectation_and_gradient`` on the class; labeling and
    evaluation must reach the simulator through that one name, once per
    optimizer step."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        original = QAOASimulator.expectation_and_gradient

        def wrapper(self, gammas, betas):
            calls.append(np.shape(gammas))
            return original(self, gammas, betas)

        monkeypatch.setattr(QAOASimulator, "expectation_and_gradient", wrapper)
        return calls

    def test_labeling_calls_the_gradient_once_per_iteration(self, monkeypatch):
        from repro.data.generation import label_graph

        calls = self._count_calls(monkeypatch)
        label_graph(random_regular_graph(8, 3, rng=4), optimizer_iters=7, rng=0)
        assert calls == [(1,)] * 7

    def test_evaluation_calls_the_gradient_once_per_iteration_per_bucket(
        self, monkeypatch
    ):
        from repro.pipeline.evaluation import WarmStartEvaluator
        from repro.qaoa.initialization import ConstantInitialization

        graphs = [random_regular_graph(n, 3, rng=n) for n in (6, 8, 6, 8, 10)]
        calls = self._count_calls(monkeypatch)
        WarmStartEvaluator(p=1, optimizer_iters=5, rng=0).evaluate_strategy(
            graphs, ConstantInitialization(0.6, 0.4)
        )
        # Three node counts -> three buckets of 4, 4 and 2 rows.
        assert sorted(calls) == sorted([(4, 1)] * 10 + [(2, 1)] * 5)
