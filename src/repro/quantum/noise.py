"""NISQ noise models for QAOA evaluation.

The paper motivates warm starts by NISQ constraints ("shorter coherence
times and higher error rates") and lists noise-robustness as future
work. This module provides the two standard laptop-scale noise models
for diagonal-cost QAOA:

- :class:`GlobalDepolarizingModel` — the analytic workhorse. A global
  depolarizing channel of fidelity ``F`` applied once per layer
  contracts the expectation toward the maximally mixed value exactly:
  ``E_noisy = F^p * E_ideal + (1 - F^p) * E_mixed`` where ``E_mixed``
  is the mean of the cost diagonal. Exact, free, and a good first-order
  model of white noise on QAOA (Wang et al. 2021 show depolarizing
  dominates at depth).
- :class:`PauliTrajectoryModel` — Monte-Carlo trajectories: after each
  layer, each qubit independently suffers X/Y/Z errors with
  probability ``error_rate/3`` each. Averaging trajectories converges
  to the corresponding Pauli channel without ever materializing a
  density matrix (which would be 4^n).

Plus :func:`apply_readout_error` for classical bit-flip noise on
sampled bitstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import CircuitError
from repro.utils.rng import RngLike, ensure_rng

# NOTE: repro.qaoa imports repro.quantum, so the QAOASimulator import is
# deferred into the functions below to keep the package graph acyclic.


@dataclass(frozen=True)
class NoiseSpec:
    """Noise-strength configuration shared by the models.

    Attributes
    ----------
    layer_fidelity:
        Probability that one full QAOA layer executes without the
        modeled error (global depolarizing parameter per layer).
    qubit_error_rate:
        Per-qubit, per-layer Pauli error probability (trajectory model).
    readout_error:
        Per-bit classical flip probability at measurement.
    """

    layer_fidelity: float = 1.0
    qubit_error_rate: float = 0.0
    readout_error: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.layer_fidelity <= 1.0:
            raise CircuitError("layer_fidelity must be in [0, 1]")
        if not 0.0 <= self.qubit_error_rate <= 1.0:
            raise CircuitError("qubit_error_rate must be in [0, 1]")
        if not 0.0 <= self.readout_error <= 0.5:
            raise CircuitError("readout_error must be in [0, 0.5]")


class GlobalDepolarizingModel:
    """Exact noisy expectation under per-layer global depolarizing noise."""

    def __init__(self, simulator, layer_fidelity: float):
        if not 0.0 <= layer_fidelity <= 1.0:
            raise CircuitError("layer_fidelity must be in [0, 1]")
        self.simulator = simulator
        self.layer_fidelity = layer_fidelity
        self._mixed_value = float(simulator.problem.cost_diagonal().mean())

    def expectation(self, gammas, betas) -> float:
        """``F^p * E_ideal + (1 - F^p) * <C>_mixed`` — exact."""
        gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        ideal = self.simulator.expectation(gammas, betas)
        survival = self.layer_fidelity ** len(gammas)
        return survival * ideal + (1.0 - survival) * self._mixed_value

    def approximation_ratio(self, gammas, betas) -> float:
        """Noisy expectation divided by the exact optimum."""
        return self.simulator.problem.approximation_ratio(
            self.expectation(gammas, betas)
        )


class PauliTrajectoryModel:
    """Monte-Carlo Pauli-error trajectories on the statevector.

    Each trajectory runs the ideal layer then, per qubit, with
    probability ``error_rate`` applies a uniformly random Pauli (X, Y or
    Z). The trajectory average converges to the single-qubit
    depolarizing channel with parameter ``error_rate`` per layer.
    """

    def __init__(
        self,
        simulator,
        error_rate: float,
        trajectories: int = 64,
        rng: RngLike = None,
    ):
        if not 0.0 <= error_rate <= 1.0:
            raise CircuitError("error_rate must be in [0, 1]")
        if trajectories < 1:
            raise CircuitError("need at least one trajectory")
        self.simulator = simulator
        self.error_rate = error_rate
        self.trajectories = trajectories
        self._rng = ensure_rng(rng)

    def expectation(self, gammas, betas) -> float:
        """Trajectory-averaged noisy expectation."""
        gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
        if self.error_rate == 0.0:
            return self.simulator.expectation(gammas, betas)
        total = 0.0
        for _ in range(self.trajectories):
            total += self._single_trajectory(gammas, betas)
        return total / self.trajectories

    def _single_trajectory(self, gammas, betas) -> float:
        from repro.qaoa.simulator import _mixer_into

        n = self.simulator.num_qubits
        diag = self.simulator.problem.cost_diagonal()
        dim = 1 << n
        psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
        for gamma, beta in zip(gammas, betas):
            phased = (psi * np.exp(-1j * gamma * diag)).reshape(1, dim)
            mixed = np.empty_like(phased)
            psi = _mixer_into(phased, mixed, n, np.array([beta]))[0]
            psi = self._inject_errors(psi, n)
        return float(np.real(np.vdot(psi, diag * psi)))

    def _inject_errors(self, psi: np.ndarray, n: int) -> np.ndarray:
        hits = self._rng.random(n) < self.error_rate
        if not hits.any():
            return psi
        tensor = psi.reshape((2,) * n)
        for qubit in np.nonzero(hits)[0]:
            pauli = self._rng.choice(("X", "Y", "Z"))
            axis = n - 1 - int(qubit)
            if pauli in ("X", "Y"):
                tensor = np.flip(tensor, axis=axis)
            if pauli in ("Y", "Z"):
                # phase -1 on the |1> slice of this qubit (global phase
                # factors of Y are irrelevant to expectations)
                slicer = [slice(None)] * n
                slicer[axis] = 1
                tensor = tensor.copy()
                tensor[tuple(slicer)] *= -1.0
        return tensor.reshape(-1)


def apply_readout_error(
    samples: np.ndarray,
    num_qubits: int,
    flip_probability: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Flip each measured bit independently with ``flip_probability``."""
    if not 0.0 <= flip_probability <= 0.5:
        raise CircuitError("flip_probability must be in [0, 0.5]")
    generator = ensure_rng(rng)
    samples = np.asarray(samples, dtype=np.int64).copy()
    if flip_probability == 0.0:
        return samples
    for qubit in range(num_qubits):
        flips = generator.random(samples.shape[0]) < flip_probability
        samples[flips] ^= 1 << qubit
    return samples


class NoisyQAOASimulator:
    """Facade combining the analytic channel and readout noise.

    Drop-in replacement for the ideal :class:`QAOASimulator` in
    evaluation loops: ``expectation`` applies the global depolarizing
    contraction; ``sample_cut`` additionally corrupts sampled
    bitstrings with readout flips.
    """

    def __init__(
        self,
        problem,
        noise: NoiseSpec,
        rng: RngLike = None,
    ):
        from repro.qaoa.simulator import QAOASimulator

        self.ideal = QAOASimulator(problem)
        self.noise = noise
        self.problem = self.ideal.problem
        self.num_qubits = self.ideal.num_qubits
        self._channel = GlobalDepolarizingModel(
            self.ideal, noise.layer_fidelity
        )
        self._rng = ensure_rng(rng)

    def expectation(self, gammas, betas) -> float:
        """Noisy expectation (analytic depolarizing contraction)."""
        return self._channel.expectation(gammas, betas)

    def approximation_ratio(self, gammas, betas) -> float:
        """Noisy expectation over the exact optimum."""
        return self.problem.approximation_ratio(self.expectation(gammas, betas))

    def expectation_and_gradient(self, gammas, betas):
        """Noisy expectation and its exact gradient.

        The depolarizing contraction is affine in the ideal expectation,
        so the noisy gradient is the ideal gradient scaled by ``F^p``.
        """
        gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        energy, grad_gamma, grad_beta = self.ideal.expectation_and_gradient(
            gammas, betas
        )
        survival = self.noise.layer_fidelity ** len(gammas)
        mixed = float(self.problem.cost_diagonal().mean())
        noisy = survival * energy + (1.0 - survival) * mixed
        return noisy, survival * grad_gamma, survival * grad_beta

    def sample_cut(
        self, gammas, betas, shots: int = 1024, rng: RngLike = None
    ) -> Tuple[int, float]:
        """Sample with readout flips; returns the best (possibly
        corrupted) measured cut."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        state = self.ideal.state(gammas, betas)
        samples = state.sample(shots, generator)
        samples = apply_readout_error(
            samples, self.num_qubits, self.noise.readout_error, generator
        )
        diagonal = self.problem.cost_diagonal()
        values = diagonal[samples]
        best = int(np.argmax(values))
        return int(samples[best]), float(values[best])
