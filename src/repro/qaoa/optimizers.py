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
from typing import List, Union

import numpy as np

from repro.exceptions import OptimizationError
from repro.qaoa.simulator import QAOASimulator
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class OptimizationResult:
    """Outcome of a parameter optimization.

    For a single problem (1-D angles) the fields are scalars and one
    history; for a stack of ``K`` problems (``(K, p)`` angles) every
    field holds one entry per row.

    Attributes
    ----------
    gammas, betas:
        Best parameters found (Adam) or the final iterate (gradient
        descent): ``(p,)`` or ``(K, p)``.
    expectation:
        Expectation at the returned parameters: a float or ``(K,)``.
    history:
        Expectation value after each iteration (length = iterations
        run); one list per row for a stack.
    iterations:
        Number of iterations executed: an int or ``(K,)`` (stacked rows
        stop independently when ``tol`` is set).
    """

    gammas: np.ndarray
    betas: np.ndarray
    expectation: Union[float, np.ndarray]
    history: list = field(default_factory=list)
    iterations: Union[int, np.ndarray] = 0


class _StopTracker:
    """Per-row early stopping shared by the gradient optimizers.

    A row stops once its expectation moves by less than ``tol`` over
    one iteration. ``active`` is a boolean of the value's shape (0-d
    for one problem, ``(K,)`` for a stack); ``all_active`` lets the
    loops skip masking until a stacked row first stops.
    """

    def __init__(self, shape, tol: float):
        self.tol = tol
        self.active = np.ones(shape, dtype=bool)
        self.all_active = True
        self.stopped_at = np.zeros(shape, dtype=np.int64)
        self._previous = None

    def update(self, step: int, value) -> bool:
        """Record ``value``; True once every row has stopped."""
        if self.tol <= 0:
            return False
        if self._previous is not None:
            stopped = self.active & (np.abs(value - self._previous) < self.tol)
            if stopped.any():
                self.stopped_at[stopped] = step
                self.active &= ~stopped
                self.all_active = False
                if not self.active.any():
                    return True
        self._previous = value
        return False

    def iterations(self, last_step: int):
        """Steps each row ran: an int for one problem, ``(K,)`` for a stack."""
        steps = np.where(self.active, last_step, self.stopped_at)
        return int(steps) if steps.ndim == 0 else steps

    def history(self, trace: list):
        """The value trace: as recorded for one problem, split per row
        (each up to its own stop) for a stack."""
        if self.active.ndim == 0:
            return trace
        steps = self.iterations(len(trace))
        if not trace:
            return [[] for _ in range(len(steps))]
        stacked = np.stack(trace, axis=0)
        return [
            [float(v) for v in stacked[: steps[i], i]]
            for i in range(stacked.shape[1])
        ]


def _start(gammas, betas):
    """Own ``(..., 2p)`` copy of the starting angles, validated."""
    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if gammas.ndim not in (1, 2) or gammas.shape != betas.shape:
        raise OptimizationError(
            "parameters must be 1-D (one problem) or (K, p) (a stack) "
            f"of equal shape; got {gammas.shape} and {betas.shape}"
        )
    return np.concatenate([gammas, betas], axis=-1), gammas.shape[-1]


def _masked_step(theta, step, tracker: _StopTracker):
    """``theta + step`` with stopped rows left exactly as they are."""
    if tracker.all_active:
        return theta + step
    theta = theta.copy()
    theta[tracker.active] += step[tracker.active]
    return theta


class AdamOptimizer:
    """Adam ascent on the exact QAOA gradient.

    Runs one problem (1-D angles) or a stack of problems (``(K, p)``
    angles, one row per problem) against any simulator exposing
    ``expectation_and_gradient`` and ``expectation`` — the one
    :class:`~repro.qaoa.simulator.QAOASimulator`, or a duck-typed
    single-problem stand-in such as the noisy simulator. Each stacked
    row follows exactly the iteration a 1-D run of that row would:
    same moment updates, bias correction, best-iterate tracking, final
    re-evaluation and (with ``tol``) stopping step.
    """

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
        simulator,
        gammas: np.ndarray,
        betas: np.ndarray,
        max_iters: int = 500,
        tol: float = 0.0,
    ) -> OptimizationResult:
        """Maximize the expectation from the given starting parameters.

        ``tol`` > 0 enables early stopping when the absolute expectation
        improvement over an iteration drops below it (per row for a
        stack; the stack keeps sweeping until every row has stopped).
        """
        theta, p = _start(gammas, betas)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        best_value = np.full(theta.shape[:-1], -np.inf)
        best_theta = theta.copy()
        tracker = _StopTracker(theta.shape[:-1], tol)
        trace: list = []
        step = 0
        for step in range(1, max_iters + 1):
            value, grad_gamma, grad_beta = simulator.expectation_and_gradient(
                theta[..., :p], theta[..., p:]
            )
            trace.append(value)
            improved = value > best_value
            if not tracker.all_active:
                improved &= tracker.active
            np.copyto(best_value, value, where=improved)
            np.copyto(best_theta, theta, where=improved[..., None])
            gradient = np.concatenate([grad_gamma, grad_beta], axis=-1)
            m = self.beta1 * m + (1 - self.beta1) * gradient
            v = self.beta2 * v + (1 - self.beta2) * gradient**2
            m_hat = m / (1 - self.beta1**step)
            v_hat = v / (1 - self.beta2**step)
            update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            theta = _masked_step(theta, update, tracker)
            if tracker.update(step, value):
                break
        final_value = simulator.expectation(theta[..., :p], theta[..., p:])
        better = final_value > best_value
        np.copyto(best_value, final_value, where=better)
        np.copyto(best_theta, theta, where=better[..., None])
        return OptimizationResult(
            gammas=best_theta[..., :p],
            betas=best_theta[..., p:],
            expectation=best_value if best_value.ndim else float(best_value),
            history=tracker.history(trace),
            iterations=tracker.iterations(step),
        )


class GradientDescentOptimizer:
    """Plain gradient ascent with a fixed step size.

    Returns the final iterate (no best tracking); takes one problem or
    a stack, like :class:`AdamOptimizer`.
    """

    def __init__(self, learning_rate: float = 0.05):
        if learning_rate <= 0:
            raise OptimizationError("learning rate must be positive")
        self.learning_rate = learning_rate

    def run(
        self,
        simulator,
        gammas: np.ndarray,
        betas: np.ndarray,
        max_iters: int = 500,
        tol: float = 0.0,
    ) -> OptimizationResult:
        """Maximize the expectation from the given starting parameters."""
        theta, p = _start(gammas, betas)
        tracker = _StopTracker(theta.shape[:-1], tol)
        trace: list = []
        step = 0
        for step in range(1, max_iters + 1):
            value, grad_gamma, grad_beta = simulator.expectation_and_gradient(
                theta[..., :p], theta[..., p:]
            )
            trace.append(value)
            gradient = np.concatenate([grad_gamma, grad_beta], axis=-1)
            theta = _masked_step(theta, self.learning_rate * gradient, tracker)
            if tracker.update(step, value):
                break
        value = simulator.expectation(theta[..., :p], theta[..., p:])
        return OptimizationResult(
            gammas=theta[..., :p],
            betas=theta[..., p:],
            expectation=value,
            history=tracker.history(trace),
            iterations=tracker.iterations(step),
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
