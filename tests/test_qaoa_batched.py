"""Stacked (batched) simulation: rows never mix.

``QAOASimulator([p_1, ..., p_K])`` runs K same-size problems as one
``(K, 2^n)`` amplitude stack. Every kernel applies the same operations
to a row whatever K is, so a stacked row is *bit-identical* to the same
instance run serially — alone, as a single-problem simulator with 1-D
angles. "Serial" below means exactly that, and equality is checked by
``tobytes()``. Each kernel also keeps an independent oracle: the
``np.flip`` reference kernels, ``quantum.gates.rx`` or finite
differences.
"""

import numpy as np
import pytest

from repro.exceptions import CircuitError, OptimizationError
from repro.graphs.generators import (
    random_connected_graph,
    random_weighted_graph,
)
from repro.maxcut.problem import MaxCutProblem
from repro.qaoa.hamiltonians import DiagonalProblem
from repro.qaoa.optimizers import AdamOptimizer, GradientDescentOptimizer
from repro.qaoa.simulator import (
    QAOASimulator,
    _apply_mixer_reference,
    _apply_sum_x_reference,
    _mixer_into,
    _rx_group_matrices,
    _sum_x_into,
)
from repro.quantum.gates import rx

TOL = 1e-12


def _problems(num_nodes, count, seed=0):
    return [
        MaxCutProblem(random_connected_graph(num_nodes, rng=seed + i))
        for i in range(count)
    ]


def _params(rng, batch, p):
    return rng.uniform(0.0, 2.0, (batch, p)), rng.uniform(0.0, 1.0, (batch, p))


def _random_stack(rng, batch, n):
    dim = 1 << n
    return np.ascontiguousarray(
        rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    )


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_rows_match_alone(problems, gammas, betas):
    """Every row's energy, gradient, expectation and ratio equal the same
    instance simulated alone, byte for byte."""
    stack = QAOASimulator(problems)
    energies, grad_gamma, grad_beta = stack.expectation_and_gradient(
        gammas, betas
    )
    values = stack.expectation(gammas, betas)
    ratios = stack.approximation_ratio(gammas, betas)
    for i, problem in enumerate(problems):
        alone = QAOASimulator(problem)
        e, gg, gb = alone.expectation_and_gradient(gammas[i], betas[i])
        assert isinstance(e, float)
        assert _same_bytes(energies[i], np.float64(e))
        assert _same_bytes(grad_gamma[i], gg)
        assert _same_bytes(grad_beta[i], gb)
        value = alone.expectation(gammas[i], betas[i])
        assert _same_bytes(values[i], np.float64(value))
        assert ratios[i] == problem.approximation_ratio(value)
    return stack


class TestBatchedKernels:
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_group_matrices_match_serial(self, k):
        betas = np.array([0.0, 0.3, -0.7, 1.9])
        stack = _rx_group_matrices(k, betas)
        for i, beta in enumerate(betas):
            alone = _rx_group_matrices(k, betas[i : i + 1])
            assert _same_bytes(stack[i], alone[0])
            oracle = np.ones((1, 1), dtype=np.complex128)
            for _ in range(k):
                oracle = np.kron(oracle, rx(2.0 * beta))
            np.testing.assert_allclose(stack[i], oracle, atol=TOL, rtol=0.0)

    @pytest.mark.parametrize("n", [1, 3, 6, 7, 9, 12, 13])
    def test_mixer_matches_serial(self, n):
        # n <= 6 is the single-gemm path, 7..12 the two-gemm path, and
        # 13 exercises the middle-qubit butterflies between the groups.
        rng = np.random.default_rng(n)
        src = _random_stack(rng, 3, n)
        dst = np.empty_like(src)
        betas = rng.uniform(-1.0, 1.0, 3)
        _mixer_into(src, dst, n, betas)
        for i, beta in enumerate(betas):
            alone = np.empty_like(src[i : i + 1])
            _mixer_into(src[i : i + 1].copy(), alone, n, betas[i : i + 1])
            assert _same_bytes(dst[i], alone[0])
            np.testing.assert_allclose(
                dst[i], _apply_mixer_reference(src[i], n, beta),
                atol=1e-10, rtol=0.0,
            )

    @pytest.mark.parametrize("n", [1, 4, 6, 8, 13])
    def test_sum_x_matches_serial(self, n):
        rng = np.random.default_rng(n)
        src = _random_stack(rng, 3, n)
        out = np.empty_like(src)
        _sum_x_into(src, n, out)
        for i in range(3):
            alone = np.empty_like(src[i : i + 1])
            _sum_x_into(src[i : i + 1].copy(), n, alone)
            assert _same_bytes(out[i], alone[0])
            np.testing.assert_allclose(
                out[i], _apply_sum_x_reference(src[i], n),
                atol=1e-10, rtol=0.0,
            )


class TestBatchedSimulator:
    @pytest.mark.parametrize("n", [2, 4, 6, 7, 8, 9, 12, 13])
    def test_forward_and_gradient_match_serial(self, n):
        # 4 and 6: one gemm; 7..12: two gemms; 13: middle butterflies.
        problems = _problems(n, 4, seed=10 * n)
        gammas, betas = _params(np.random.default_rng(n), 4, 2)
        _assert_rows_match_alone(problems, gammas, betas)
        # Independent oracle for the shared kernels: finite differences.
        alone = QAOASimulator(problems[0])
        _, gg, gb = alone.expectation_and_gradient(gammas[0], betas[0])
        fd_gamma, fd_beta = alone.gradient_finite_difference(
            gammas[0], betas[0]
        )
        np.testing.assert_allclose(gg, fd_gamma, atol=1e-5)
        np.testing.assert_allclose(gb, fd_beta, atol=1e-5)

    def test_middle_butterfly_path_matches_serial(self):
        # n = 13 puts one qubit between the low and high gemm groups;
        # seven rows at depth 3.
        problems = _problems(13, 7, seed=77)
        gammas, betas = _params(np.random.default_rng(13), 7, 3)
        _assert_rows_match_alone(problems, gammas, betas)

    def test_single_instance_stack(self):
        # K = 1 — the degenerate bucket a unique graph size produces.
        problems = _problems(6, 1, seed=3)
        gammas, betas = _params(np.random.default_rng(1), 1, 2)
        stack = _assert_rows_match_alone(problems, gammas, betas)
        assert stack.stacked and stack.num_instances == 1

    def test_weighted_graphs_use_dense_phase_fallback(self):
        # Non-integral diagonals cannot use the phase-gather table; one
        # weighted row sends the whole stack down the dense-exp path,
        # and its unweighted rows still equal their gather-path runs.
        problems = [
            MaxCutProblem(random_weighted_graph(9, rng=i)) for i in range(2)
        ] + _problems(9, 2, seed=4)
        stack = QAOASimulator(problems)
        assert stack._phase_index is None
        assert QAOASimulator(problems[2])._phase_index is not None
        gammas, betas = _params(np.random.default_rng(5), 4, 2)
        _assert_rows_match_alone(problems, gammas, betas)

    def test_unweighted_graphs_use_phase_table(self):
        stack = QAOASimulator(_problems(6, 2))
        assert stack._phase_index is not None

    def test_negative_diagonal_takes_dense_phase_path(self):
        rng = np.random.default_rng(2)
        problem = DiagonalProblem(rng.integers(-4, 5, size=32).astype(float))
        simulator = QAOASimulator(problem)
        assert simulator._phase_index is None
        gammas, betas = np.array([0.3, 0.7]), np.array([0.5, 0.2])
        _, gg, gb = simulator.expectation_and_gradient(gammas, betas)
        fd_gamma, fd_beta = simulator.gradient_finite_difference(
            gammas, betas
        )
        np.testing.assert_allclose(gg, fd_gamma, atol=1e-5)
        np.testing.assert_allclose(gb, fd_beta, atol=1e-5)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(CircuitError, match="share one node count"):
            QAOASimulator([_problems(5, 1)[0], _problems(6, 1)[0]])

    def test_empty_stack_rejected(self):
        with pytest.raises(CircuitError, match="at least one"):
            QAOASimulator([])

    def test_bad_parameter_shapes_rejected(self):
        stack = QAOASimulator(_problems(5, 2))
        with pytest.raises(CircuitError):
            stack.expectation(np.zeros(2), np.zeros(2))  # 1-D
        with pytest.raises(CircuitError):
            stack.expectation(np.zeros((2, 1)), np.zeros((2, 2)))
        with pytest.raises(CircuitError):
            stack.expectation(np.zeros((3, 1)), np.zeros((3, 1)))  # K=2
        with pytest.raises(CircuitError):
            stack.expectation(np.zeros((2, 0)), np.zeros((2, 0)))
        single = QAOASimulator(_problems(5, 1)[0])
        with pytest.raises(CircuitError):
            single.expectation(np.zeros((1, 1)), np.zeros((1, 1)))  # 2-D

    def test_single_instance_methods_refuse_a_stack(self):
        stack = QAOASimulator(_problems(4, 2))
        angles = np.zeros(1)
        with pytest.raises(CircuitError):
            stack.problem
        with pytest.raises(CircuitError):
            stack.state(angles, angles)
        with pytest.raises(CircuitError):
            stack.sample_cut(angles, angles)
        with pytest.raises(CircuitError):
            stack.gradient_finite_difference(angles, angles)

    def test_accepts_raw_graphs(self):
        graphs = [random_connected_graph(5, rng=i) for i in range(2)]
        stack = QAOASimulator(graphs)
        assert all(isinstance(p, MaxCutProblem) for p in stack.problems)
        assert isinstance(QAOASimulator(graphs[0]).problem, MaxCutProblem)


class TestLockStepOptimizers:
    """A K-row run equals K separate 1-D runs of the same optimizer."""

    @staticmethod
    def _assert_runs_match(optimizer, problems, gammas, betas, **kwargs):
        result = optimizer.run(QAOASimulator(problems), gammas, betas, **kwargs)
        for i, problem in enumerate(problems):
            alone = optimizer.run(
                QAOASimulator(problem), gammas[i], betas[i], **kwargs
            )
            assert isinstance(alone.expectation, float)
            assert _same_bytes(result.expectation[i], np.float64(alone.expectation))
            assert _same_bytes(result.gammas[i], alone.gammas)
            assert _same_bytes(result.betas[i], alone.betas)
            assert _same_bytes(result.history[i], alone.history)
            assert result.iterations[i] == alone.iterations
        return result

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_adam_trace_matches_serial(self, n):
        problems = _problems(n, 3, seed=n)
        gammas, betas = _params(np.random.default_rng(n), 3, 2)
        self._assert_runs_match(
            AdamOptimizer(learning_rate=0.05), problems, gammas, betas,
            max_iters=40,
        )

    def test_gradient_descent_trace_matches_serial(self):
        problems = _problems(6, 3, seed=21)
        gammas, betas = _params(np.random.default_rng(2), 3, 1)
        self._assert_runs_match(
            GradientDescentOptimizer(learning_rate=0.02), problems,
            gammas, betas, max_iters=30,
        )

    def _assert_rows_stop_independently(self, optimizer):
        problems = _problems(6, 4, seed=8)
        gammas, betas = _params(np.random.default_rng(9), 4, 1)
        result = self._assert_runs_match(
            optimizer, problems, gammas, betas, max_iters=200, tol=1e-6
        )
        # Rows really did stop at different steps, so the stack kept
        # sweeping frozen rows without moving them.
        assert len(set(result.iterations.tolist())) > 1

    def test_tolerance_stops_rows_independently(self):
        self._assert_rows_stop_independently(AdamOptimizer(learning_rate=0.05))

    def test_gradient_descent_tolerance_stops_rows_independently(self):
        self._assert_rows_stop_independently(
            GradientDescentOptimizer(learning_rate=0.02)
        )

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(OptimizationError):
            AdamOptimizer(learning_rate=0.0)
        with pytest.raises(OptimizationError):
            GradientDescentOptimizer(learning_rate=-1.0)

    def test_bad_parameter_rank_rejected(self):
        stack = QAOASimulator(_problems(5, 2))
        with pytest.raises(OptimizationError):
            AdamOptimizer().run(stack, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(OptimizationError):
            AdamOptimizer().run(stack, np.zeros((2, 1)), np.zeros((2, 2)))
        with pytest.raises(CircuitError):
            AdamOptimizer().run(stack, np.zeros(2), np.zeros(2))
