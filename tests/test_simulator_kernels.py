"""Equivalence tests for the simulator kernels.

The mixer contracts qubit groups against closed-form ``RX^(tensor g)``
matrices via gemm plus contiguous butterflies, on a ``(K, 2^n)`` stack;
these tests run it on one-row stacks and pin it against two independent
oracles — the gate-by-gate ``apply_gate`` path with the RX matrix, and
the ``np.flip`` reference kernels — plus the finite-difference gradient
oracle. The group tables the kernels share are read-only constants, so
simulators on many threads give the single-thread bytes.
"""

import sys
import threading

import numpy as np
import pytest

from repro.graphs.generators import random_regular_graph
from repro.qaoa.simulator import (
    _GROUP_BITS,
    _GROUP_POPCOUNTS,
    _SUM_X_GROUPS,
    QAOASimulator,
    _apply_mixer_reference,
    _apply_sum_x_reference,
    _mixer_into,
    _sum_x_into,
)
from repro.quantum.gates import rx
from repro.quantum.statevector import Statevector


def _random_state(num_qubits, rng):
    dim = 1 << num_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _mixer(psi, num_qubits, beta):
    """The stacked mixer kernel on a one-row stack."""
    src = np.ascontiguousarray(psi, dtype=np.complex128).reshape(1, -1)
    dst = np.empty_like(src)
    return _mixer_into(src, dst, num_qubits, np.array([beta]))[0]


def _sum_x(psi, num_qubits):
    src = np.ascontiguousarray(psi, dtype=np.complex128).reshape(1, -1)
    out = np.empty_like(src)
    return _sum_x_into(src, num_qubits, out)[0]


class TestMixerKernel:
    @pytest.mark.parametrize("num_qubits", [1, 2, 7, 12])
    def test_matches_apply_gate_rx_oracle(self, num_qubits):
        """Mixer == RX(2 beta) on every qubit via the gate-matrix path."""
        rng = np.random.default_rng(100 + num_qubits)
        psi = _random_state(num_qubits, rng)
        for beta in rng.uniform(-np.pi, np.pi, size=3):
            oracle = Statevector(num_qubits, psi)
            for qubit in range(num_qubits):
                oracle.apply_gate(rx(2.0 * beta), [qubit])
            fast = _mixer(psi, num_qubits, beta)
            np.testing.assert_allclose(
                fast, oracle.data, atol=1e-12, rtol=0.0
            )

    @pytest.mark.parametrize("num_qubits", [1, 2, 7, 12])
    def test_matches_flip_reference(self, num_qubits):
        rng = np.random.default_rng(200 + num_qubits)
        psi = _random_state(num_qubits, rng)
        for beta in rng.uniform(-np.pi, np.pi, size=3):
            np.testing.assert_allclose(
                _mixer(psi, num_qubits, beta),
                _apply_mixer_reference(psi, num_qubits, beta),
                atol=1e-12,
                rtol=0.0,
            )

    @pytest.mark.parametrize("num_qubits", [3, 6, 7, 11, 13])
    def test_into_kernel_writes_dst_and_preserves_src(self, num_qubits):
        """Every group split (gemm-only, two-gemm, gemm+butterfly)."""
        rng = np.random.default_rng(3)
        psi = _random_state(num_qubits, rng)
        src = psi.copy().reshape(1, -1)
        dst = np.empty_like(src)
        out = _mixer_into(src, dst, num_qubits, np.array([0.4]))
        assert out is dst
        np.testing.assert_array_equal(src[0], psi)  # src untouched
        np.testing.assert_allclose(
            out[0], _apply_mixer_reference(psi, num_qubits, 0.4), atol=1e-12
        )

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        psi = _random_state(8, rng)
        out = _mixer(psi, 8, 0.73)
        assert np.linalg.norm(out) == pytest.approx(1.0)


class TestSumXKernel:
    @pytest.mark.parametrize("num_qubits", [1, 2, 7, 12])
    def test_matches_reference(self, num_qubits):
        rng = np.random.default_rng(300 + num_qubits)
        psi = _random_state(num_qubits, rng)
        np.testing.assert_allclose(
            _sum_x(psi, num_qubits),
            _apply_sum_x_reference(psi, num_qubits),
            atol=1e-12,
            rtol=0.0,
        )


class TestGroupTables:
    @pytest.mark.parametrize("k", range(_GROUP_BITS + 1))
    def test_tables_are_read_only_and_follow_the_popcount(self, k):
        size = 1 << k
        popcount = np.array(
            [[bin(i ^ j).count("1") for j in range(size)] for i in range(size)]
        )
        assert not _GROUP_POPCOUNTS[k].flags.writeable
        assert not _SUM_X_GROUPS[k].flags.writeable
        np.testing.assert_array_equal(_GROUP_POPCOUNTS[k], popcount)
        np.testing.assert_array_equal(_SUM_X_GROUPS[k], popcount == 1)
        with pytest.raises(ValueError):
            _SUM_X_GROUPS[k][...] = 0.0

    def test_concurrent_fresh_simulators_give_single_thread_bytes(self):
        """Eight threads, each building simulators and gradients from
        scratch while the interpreter switches threads constantly."""
        cases = [
            (random_regular_graph(n, 3, rng=n), np.array([0.4, 0.9]),
             np.array([0.3, 0.1]))
            for n in (4, 6, 8, 10, 12, 14)
        ]

        def gradients():
            out = []
            for graph, gammas, betas in cases:
                e, gg, gb = QAOASimulator(graph).expectation_and_gradient(
                    gammas, betas
                )
                out.append(np.float64(e).tobytes() + gg.tobytes() + gb.tobytes())
            return out

        expected = gradients()
        results = [None] * 8
        start = threading.Barrier(8)

        def worker(i):
            start.wait(timeout=10.0)
            results[i] = gradients()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(result == expected for result in results)


class TestGradientAfterKernelSwap:
    @pytest.mark.parametrize("num_qubits,degree", [(4, 3), (7, 4), (10, 3)])
    def test_adjoint_matches_finite_difference(self, num_qubits, degree):
        graph = random_regular_graph(num_qubits, degree, rng=num_qubits)
        simulator = QAOASimulator(graph)
        rng = np.random.default_rng(17)
        gammas = rng.uniform(0, 2 * np.pi, size=2)
        betas = rng.uniform(0, np.pi / 2, size=2)
        _, grad_gamma, grad_beta = simulator.expectation_and_gradient(
            gammas, betas
        )
        fd_gamma, fd_beta = simulator.gradient_finite_difference(
            gammas, betas, eps=1e-6
        )
        np.testing.assert_allclose(grad_gamma, fd_gamma, atol=1e-5)
        np.testing.assert_allclose(grad_beta, fd_beta, atol=1e-5)

    def test_repeated_evaluations_do_not_interfere(self):
        """Workspace reuse must not leak state between calls."""
        graph = random_regular_graph(6, 3, rng=0)
        simulator = QAOASimulator(graph)
        gammas, betas = np.array([0.4]), np.array([0.3])
        first = simulator.expectation_and_gradient(gammas, betas)
        simulator.expectation(np.array([1.7]), np.array([0.9]))
        simulator.state(np.array([2.1]), np.array([0.2]))
        second = simulator.expectation_and_gradient(gammas, betas)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])
        np.testing.assert_array_equal(first[2], second[2])

    def test_state_returns_independent_arrays(self):
        """state() results must not alias the simulator workspaces."""
        graph = random_regular_graph(5, 2, rng=1)
        simulator = QAOASimulator(graph)
        a = simulator.state(np.array([0.3]), np.array([0.2]))
        a_data = a.data.copy()
        simulator.state(np.array([1.3]), np.array([0.8]))
        simulator.expectation(np.array([2.0]), np.array([0.1]))
        np.testing.assert_array_equal(a.data, a_data)


class TestStatevectorCopyGuard:
    def test_copy_is_independent(self):
        state = Statevector.plus_state(3)
        clone = state.copy()
        clone.data[0] = 0.0
        assert state.data[0] != 0.0

    def test_init_copies_by_default(self):
        data = np.zeros(4, dtype=np.complex128)
        data[0] = 1.0
        state = Statevector(2, data)
        data[0] = 0.0
        assert state.data[0] == 1.0

    def test_copy_false_adopts_array(self):
        data = np.zeros(4, dtype=np.complex128)
        data[0] = 1.0
        state = Statevector(2, data, copy=False)
        assert state.data is data
