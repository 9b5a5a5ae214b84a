"""Classical optimizers for QAOA parameters.

The labeling pipeline (paper: "optimization over 500 iterations") runs a
gradient-based optimizer against the exact adjoint gradient of the
simulator. We provide:

- :class:`AdamOptimizer` — the default; exact gradients, per-parameter
  adaptive steps.
- :class:`GradientDescentOptimizer` — plain ascent, useful as a baseline
  and in tests.
- :class:`SPSAOptimizer` — gradient-free simultaneous-perturbation, the
  standard choice on real (shot-noise-limited) hardware.
- :func:`scipy_optimize` — wraps :func:`scipy.optimize.minimize` for
  Nelder-Mead / COBYLA / L-BFGS-B reference runs.

All optimizers MAXIMIZE the expectation (the expected cut value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.exceptions import OptimizationError
from repro.qaoa.simulator import QAOASimulator
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class OptimizationResult:
    """Outcome of a parameter optimization.

    Attributes
    ----------
    gammas, betas:
        Best parameters found.
    expectation:
        Expectation at the best parameters.
    history:
        Expectation value after each iteration (length = iterations run).
    iterations:
        Number of iterations executed.
    """

    gammas: np.ndarray
    betas: np.ndarray
    expectation: float
    history: List[float] = field(default_factory=list)
    iterations: int = 0


class AdamOptimizer:
    """Adam ascent on the exact QAOA gradient."""

    def __init__(
        self,
        learning_rate: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise OptimizationError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    def run(
        self,
        simulator: QAOASimulator,
        gammas: np.ndarray,
        betas: np.ndarray,
        max_iters: int = 500,
        tol: float = 0.0,
    ) -> OptimizationResult:
        """Maximize the expectation from the given starting parameters.

        ``tol`` > 0 enables early stopping when the absolute expectation
        improvement over an iteration drops below it.
        """
        gammas = np.asarray(gammas, dtype=np.float64).copy()
        betas = np.asarray(betas, dtype=np.float64).copy()
        p = len(gammas)
        m = np.zeros(2 * p)
        v = np.zeros(2 * p)
        history: List[float] = []
        best_value = -np.inf
        best = (gammas.copy(), betas.copy())
        previous = None
        iterations = 0
        for step in range(1, max_iters + 1):
            value, grad_gamma, grad_beta = simulator.expectation_and_gradient(
                gammas, betas
            )
            history.append(value)
            iterations = step
            if value > best_value:
                best_value = value
                best = (gammas.copy(), betas.copy())
            gradient = np.concatenate([grad_gamma, grad_beta])
            m = self.beta1 * m + (1 - self.beta1) * gradient
            v = self.beta2 * v + (1 - self.beta2) * gradient**2
            m_hat = m / (1 - self.beta1**step)
            v_hat = v / (1 - self.beta2**step)
            update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            gammas = gammas + update[:p]
            betas = betas + update[p:]
            if tol > 0 and previous is not None and abs(value - previous) < tol:
                break
            previous = value
        final_value = simulator.expectation(gammas, betas)
        if final_value > best_value:
            best_value = final_value
            best = (gammas.copy(), betas.copy())
        return OptimizationResult(
            gammas=best[0],
            betas=best[1],
            expectation=best_value,
            history=history,
            iterations=iterations,
        )


class GradientDescentOptimizer:
    """Plain gradient ascent with a fixed step size."""

    def __init__(self, learning_rate: float = 0.05):
        if learning_rate <= 0:
            raise OptimizationError("learning rate must be positive")
        self.learning_rate = learning_rate

    def run(
        self,
        simulator: QAOASimulator,
        gammas: np.ndarray,
        betas: np.ndarray,
        max_iters: int = 500,
        tol: float = 0.0,
    ) -> OptimizationResult:
        """Maximize the expectation from the given starting parameters."""
        gammas = np.asarray(gammas, dtype=np.float64).copy()
        betas = np.asarray(betas, dtype=np.float64).copy()
        history: List[float] = []
        previous = None
        iterations = 0
        for step in range(max_iters):
            value, grad_gamma, grad_beta = simulator.expectation_and_gradient(
                gammas, betas
            )
            history.append(value)
            iterations = step + 1
            gammas = gammas + self.learning_rate * grad_gamma
            betas = betas + self.learning_rate * grad_beta
            if tol > 0 and previous is not None and abs(value - previous) < tol:
                break
            previous = value
        value = simulator.expectation(gammas, betas)
        return OptimizationResult(
            gammas=gammas,
            betas=betas,
            expectation=value,
            history=history,
            iterations=iterations,
        )


class SPSAOptimizer:
    """Simultaneous-perturbation stochastic approximation (gradient-free).

    Standard Spall gain schedules ``a_k = a / (k + 1 + A)^alpha`` and
    ``c_k = c / (k + 1)^gamma_exp``. Two expectation evaluations per
    iteration regardless of the parameter count — the reason SPSA is the
    default on shot-limited hardware.
    """

    def __init__(
        self,
        a: float = 0.2,
        c: float = 0.1,
        A: float = 10.0,
        alpha: float = 0.602,
        gamma_exp: float = 0.101,
        rng: RngLike = None,
    ):
        self.a = a
        self.c = c
        self.A = A
        self.alpha = alpha
        self.gamma_exp = gamma_exp
        self.rng = ensure_rng(rng)

    def run(
        self,
        simulator: QAOASimulator,
        gammas: np.ndarray,
        betas: np.ndarray,
        max_iters: int = 500,
        tol: float = 0.0,
    ) -> OptimizationResult:
        """Maximize the expectation from the given starting parameters."""
        theta = np.concatenate(
            [
                np.asarray(gammas, dtype=np.float64),
                np.asarray(betas, dtype=np.float64),
            ]
        )
        p = len(theta) // 2
        history: List[float] = []
        best_value = -np.inf
        best_theta = theta.copy()
        iterations = 0
        for k in range(max_iters):
            a_k = self.a / (k + 1 + self.A) ** self.alpha
            c_k = self.c / (k + 1) ** self.gamma_exp
            delta = self.rng.choice([-1.0, 1.0], size=theta.shape)
            plus = theta + c_k * delta
            minus = theta - c_k * delta
            value_plus = simulator.expectation(plus[:p], plus[p:])
            value_minus = simulator.expectation(minus[:p], minus[p:])
            gradient = (value_plus - value_minus) / (2 * c_k) * delta
            theta = theta + a_k * gradient
            value = max(value_plus, value_minus)
            history.append(value)
            iterations = k + 1
            if value > best_value:
                best_value = value
                best_theta = theta.copy()
        final = simulator.expectation(theta[:p], theta[p:])
        if final > best_value:
            best_value = final
            best_theta = theta
        return OptimizationResult(
            gammas=best_theta[:p],
            betas=best_theta[p:],
            expectation=float(
                simulator.expectation(best_theta[:p], best_theta[p:])
            ),
            history=history,
            iterations=iterations,
        )


def scipy_optimize(
    simulator: QAOASimulator,
    gammas: np.ndarray,
    betas: np.ndarray,
    method: str = "L-BFGS-B",
    max_iters: int = 500,
) -> OptimizationResult:
    """Reference optimization via :func:`scipy.optimize.minimize`.

    Minimizes the negated expectation; gradient-based methods receive the
    exact adjoint gradient.
    """
    # Imported here, not at module top: labeling imports this module,
    # and only this reference path needs scipy.
    from scipy import optimize as scipy_opt

    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    p = len(gammas)
    history: List[float] = []

    gradient_methods = {"L-BFGS-B", "BFGS", "CG", "TNC", "SLSQP"}
    use_gradient = method in gradient_methods

    def objective(theta: np.ndarray):
        if use_gradient:
            value, grad_gamma, grad_beta = simulator.expectation_and_gradient(
                theta[:p], theta[p:]
            )
            history.append(value)
            return -value, -np.concatenate([grad_gamma, grad_beta])
        value = simulator.expectation(theta[:p], theta[p:])
        history.append(value)
        return -value

    theta0 = np.concatenate([gammas, betas])
    result = scipy_opt.minimize(
        objective,
        theta0,
        method=method,
        jac=use_gradient,
        options={"maxiter": max_iters},
    )
    theta = result.x
    return OptimizationResult(
        gammas=theta[:p],
        betas=theta[p:],
        expectation=float(-result.fun),
        history=history,
        iterations=int(result.get("nit", len(history))),
    )
