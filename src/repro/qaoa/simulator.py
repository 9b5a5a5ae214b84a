"""Fast Max-Cut QAOA simulator with exact adjoint gradients.

Conventions
-----------
Cost Hamiltonian ``C = sum_(u,v) w_uv (1 - Z_u Z_v) / 2`` — diagonal in
the computational basis with entries equal to the cut value of each
bitstring, so *maximizing* ``<C>`` maximizes the expected cut. The depth-p
ansatz is::

    |psi(gamma, beta)> = U_B(beta_p) U_C(gamma_p) ... U_B(beta_1) U_C(gamma_1) |+>^n

with ``U_C(g) = exp(-i g C)`` (elementwise complex phase on the cached
cut-value diagonal) and ``U_B(b) = exp(-i b B)``, ``B = sum_q X_q``
(``RX(2b)`` on every qubit). Because ``C`` is diagonal, a depth-p
evaluation costs ``O(p (n + 1) 2^n)`` — exact and fast for n <= 15.

Gradients are computed by the adjoint (reverse-mode) method: one extra
backward sweep gives all ``2p`` partial derivatives exactly, which is
what lets the labeling pipeline run hundreds of optimizer iterations per
graph at dataset scale.

Kernels
-------
The mixer ``U_B = RX(2 beta)^(tensor n)`` factorizes over qubits, so it
can be applied group-wise: the lowest ``g`` qubits are contracted in a
single BLAS ``zgemm`` against the ``2^g x 2^g`` group matrix
``RX^(tensor g)`` (closed form ``c^(g-h) (-i s)^h`` where ``h`` is the
popcount of ``row xor column``), the highest ``g`` qubits in a second
gemm from the left, and any middle qubits by contiguous-slice
butterflies: viewing the statevector as ``(-1, 2, 2^q)`` exposes the
amplitude pairs ``(i, i | 2^q)`` as the two middle-axis slices, each a
large contiguous block. This keeps every memory access either inside a
gemm or unit-stride — no ``np.flip`` reversals, no per-qubit
``ascontiguousarray`` re-packs, no full-size temporaries. The kernels
write ``src -> dst`` so the evolution loop ping-pongs two buffers
instead of copying. The simulator owns all workspaces (plus state,
phase table, ping-pong pairs, adjoint vectors), so repeated
evaluations — the labeling inner loop — allocate nothing. One
consequence: a :class:`QAOASimulator` instance is NOT safe for
concurrent use from multiple threads; give each worker its own
instance (the parallel runtime does).

The original ``reshape``/``np.flip`` kernels are kept as
``*_reference`` functions — they are the independent oracles the kernel
equivalence tests and benchmarks compare against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import CircuitError
from repro.graphs.graph import Graph
from repro.maxcut.problem import MaxCutProblem
from repro.quantum.statevector import Statevector


class QAOASimulator:
    """Simulator bound to one Max-Cut instance.

    Parameters are passed as two arrays ``gammas`` and ``betas`` of equal
    length ``p``. The simulator caches the cost diagonal on the wrapped
    :class:`MaxCutProblem` plus all evaluation workspaces, so repeated
    evaluations are allocation-free.
    """

    def __init__(self, problem):
        if isinstance(problem, Graph):
            problem = MaxCutProblem(problem)
        self.problem: MaxCutProblem = problem
        self.num_qubits = problem.num_nodes
        self._diagonal = problem.cost_diagonal()
        dim = 1 << self.num_qubits
        self._plus = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
        self._phase = np.empty(dim, dtype=np.complex128)
        self._work = np.empty(dim, dtype=np.complex128)
        self._psi = np.empty(dim, dtype=np.complex128)
        self._psi_alt = np.empty(dim, dtype=np.complex128)
        self._lam = np.empty(dim, dtype=np.complex128)
        self._lam_alt = np.empty(dim, dtype=np.complex128)
        self._scratch = np.empty(dim, dtype=np.complex128)

    # ------------------------------------------------------------------
    # Forward evaluation
    # ------------------------------------------------------------------
    def state(self, gammas: np.ndarray, betas: np.ndarray) -> Statevector:
        """The QAOA state ``|psi(gamma, beta)>``."""
        gammas, betas = self._check_params(gammas, betas)
        psi = self._evolve(gammas, betas)
        return Statevector(self.num_qubits, psi.copy(), copy=False)

    def expectation(self, gammas: np.ndarray, betas: np.ndarray) -> float:
        """``<psi| C |psi>`` — the expected cut value."""
        gammas, betas = self._check_params(gammas, betas)
        psi = self._evolve(gammas, betas)
        np.multiply(self._diagonal, psi, out=self._work)
        return float(np.real(np.vdot(psi, self._work)))

    def approximation_ratio(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> float:
        """Expected cut divided by the exact optimum."""
        return self.problem.approximation_ratio(self.expectation(gammas, betas))

    def sample_cut(
        self, gammas: np.ndarray, betas: np.ndarray, shots: int = 1024, rng=None
    ) -> Tuple[int, float]:
        """Sample the state and return the best cut seen: (bitstring, value)."""
        state = self.state(gammas, betas)
        samples = state.sample(shots, rng)
        values = self._diagonal[samples]
        best = int(np.argmax(values))
        return int(samples[best]), float(values[best])

    # ------------------------------------------------------------------
    # Exact gradients (adjoint method)
    # ------------------------------------------------------------------
    def expectation_and_gradient(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Expectation and exact ``(dE/dgamma, dE/dbeta)`` in one pass.

        Forward pass evolves the state in place; the backward pass
        propagates the adjoint state ``lambda = V_k^dag C |psi_p>`` and
        reads off ``dE/dtheta_k = 2 Re <lambda_k| (-i G_k) |psi_k>``
        where ``G_k`` is the layer generator (``C`` or ``B``).
        """
        gammas, betas = self._check_params(gammas, betas)
        p = len(gammas)
        n = self.num_qubits
        diag = self._diagonal

        psi = self._evolve(gammas, betas)
        psi_alt = self._psi_alt if psi is self._psi else self._psi

        lam = self._lam
        lam_alt = self._lam_alt
        np.multiply(diag, psi, out=lam)
        energy = float(np.real(np.vdot(psi, lam)))
        grad_gamma = np.zeros(p, dtype=np.float64)
        grad_beta = np.zeros(p, dtype=np.float64)
        work = self._work
        phase = self._phase

        for k in range(p - 1, -1, -1):
            # psi currently equals psi_k (state after layer k).
            # dE/dbeta_k = 2 Re <lam | -i B psi_k> = 2 Im <lam | B psi_k>
            _apply_sum_x_into(psi, n, work)
            grad_beta[k] = 2.0 * float(np.imag(np.vdot(lam, work)))
            # Undo the mixer on both vectors -> phi_k = U_C(gamma_k) psi_{k-1}
            _apply_mixer_into(psi, psi_alt, n, -betas[k], self._scratch)
            psi, psi_alt = psi_alt, psi
            _apply_mixer_into(lam, lam_alt, n, -betas[k], self._scratch)
            lam, lam_alt = lam_alt, lam
            # dE/dgamma_k = 2 Re <lam' | -i C phi_k> = 2 Im <lam' | C phi_k>
            np.multiply(diag, psi, out=work)
            grad_gamma[k] = 2.0 * float(np.imag(np.vdot(lam, work)))
            # Undo the phase separator -> psi_{k-1}
            np.multiply(diag, 1j * gammas[k], out=phase)
            np.exp(phase, out=phase)
            psi *= phase
            lam *= phase

        return energy, grad_gamma, grad_beta

    def gradient_finite_difference(
        self, gammas: np.ndarray, betas: np.ndarray, eps: float = 1e-6
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Central finite-difference gradient (test oracle for the adjoint)."""
        gammas, betas = self._check_params(gammas, betas)
        grad_gamma = np.zeros_like(gammas)
        grad_beta = np.zeros_like(betas)
        for i in range(len(gammas)):
            up, down = gammas.copy(), gammas.copy()
            up[i] += eps
            down[i] -= eps
            grad_gamma[i] = (
                self.expectation(up, betas) - self.expectation(down, betas)
            ) / (2 * eps)
        for i in range(len(betas)):
            up, down = betas.copy(), betas.copy()
            up[i] += eps
            down[i] -= eps
            grad_beta[i] = (
                self.expectation(gammas, up) - self.expectation(gammas, down)
            ) / (2 * eps)
        return grad_gamma, grad_beta

    # ------------------------------------------------------------------
    def _evolve(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> np.ndarray:
        """Evolve ``|+>^n`` through the depth-p ansatz.

        Ping-pongs between the ``_psi``/``_psi_alt`` workspaces and
        returns the buffer holding the final state — the caller must
        copy before triggering another evaluation.
        """
        cur, nxt = self._psi, self._psi_alt
        np.copyto(cur, self._plus)
        phase = self._phase
        for gamma, beta in zip(gammas, betas):
            np.multiply(self._diagonal, -1j * gamma, out=phase)
            np.exp(phase, out=phase)
            cur *= phase
            _apply_mixer_into(cur, nxt, self.num_qubits, beta, self._scratch)
            cur, nxt = nxt, cur
        return cur

    def _check_params(
        self, gammas, betas
    ) -> Tuple[np.ndarray, np.ndarray]:
        gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
        if gammas.ndim != 1 or betas.ndim != 1:
            raise CircuitError("gammas and betas must be 1-D")
        if gammas.shape != betas.shape:
            raise CircuitError(
                f"gamma/beta length mismatch: {gammas.shape} vs {betas.shape}"
            )
        if len(gammas) == 0:
            raise CircuitError("depth p must be at least 1")
        return gammas, betas


# ----------------------------------------------------------------------
# Optimized grouped kernels
# ----------------------------------------------------------------------
#: Qubits contracted per gemm group. 2^6 = 64 keeps the group matrices
#: small while giving the gemm enough inner dimension to saturate BLAS.
_GROUP_BITS = 6

_POPCOUNT_CACHE: dict = {}
_SUM_X_GROUP_CACHE: dict = {}


def _group_popcount(k: int) -> np.ndarray:
    """``popcount(i xor j)`` for all index pairs of a ``k``-qubit group."""
    cached = _POPCOUNT_CACHE.get(k)
    if cached is None:
        idx = np.arange(1 << k, dtype=np.uint32)
        xor = idx[:, None] ^ idx[None, :]
        if hasattr(np, "bitwise_count"):
            cached = np.bitwise_count(xor).astype(np.intp)
        else:  # pragma: no cover - numpy < 2.0 fallback
            bits = np.unpackbits(
                xor.astype(">u4").view(np.uint8).reshape(*xor.shape, 4),
                axis=-1,
            )
            cached = bits.sum(axis=-1).astype(np.intp)
        _POPCOUNT_CACHE[k] = cached
    return cached


def _rx_group_matrix(k: int, beta: float) -> np.ndarray:
    """``RX(2 beta)^(tensor k)`` — entry ``[i, j] = c^(k-h) (-i s)^h``
    with ``h = popcount(i xor j)``."""
    h = _group_popcount(k)
    c_pow = np.cos(beta) ** np.arange(k + 1)
    s_pow = (-1j * np.sin(beta)) ** np.arange(k + 1)
    return c_pow[k - h] * s_pow[h]


def _sum_x_group_matrix(k: int) -> np.ndarray:
    """``sum_(q<k) X_q`` as a dense ``2^k x 2^k`` matrix (cached)."""
    cached = _SUM_X_GROUP_CACHE.get(k)
    if cached is None:
        cached = (_group_popcount(k) == 1).astype(np.complex128)
        _SUM_X_GROUP_CACHE[k] = cached
    return cached


def _apply_mixer_into(
    src: np.ndarray,
    dst: np.ndarray,
    num_qubits: int,
    beta: float,
    scratch: np.ndarray,
) -> np.ndarray:
    """Write ``exp(-i beta sum_q X_q) src`` into ``dst``; ``src`` is
    preserved.

    All three arrays must be contiguous 1-D complex vectors of length
    ``2^n`` (``scratch`` is clobbered). The lowest ``_GROUP_BITS``
    qubits are contracted by one gemm against the group matrix (which is
    symmetric, so no transpose is needed), the highest group by a second
    gemm from the left, and any middle qubits by contiguous-slice
    butterflies ``a' = c a - i s b``, ``b' = c b - i s a`` on the
    ``(-1, 2, 2^q)`` view, using the halves of ``dst`` as temporaries
    until the final gemm overwrites it.
    """
    n = num_qubits
    if n <= _GROUP_BITS:
        group = _rx_group_matrix(n, beta)
        np.matmul(src.reshape(1, -1), group, out=dst.reshape(1, -1))
        return dst
    low = _GROUP_BITS
    high = min(_GROUP_BITS, n - low)
    low_matrix = _rx_group_matrix(low, beta)
    np.matmul(
        src.reshape(-1, 1 << low), low_matrix,
        out=scratch.reshape(-1, 1 << low),
    )
    c = np.cos(beta)
    ms = -1j * np.sin(beta)
    half = src.size >> 1
    wa = dst[:half]
    wb = dst[half:]
    for q in range(low, n - high):
        block = 1 << q
        view = scratch.reshape(-1, 2, block)
        a = view[:, 0, :]
        b = view[:, 1, :]
        shaped_wa = wa.reshape(a.shape)
        shaped_wb = wb.reshape(b.shape)
        np.multiply(a, ms, out=shaped_wa)  # wa = -i s a_old
        a *= c
        np.multiply(b, ms, out=shaped_wb)  # wb = -i s b_old
        a += shaped_wb                     # a = c a_old - i s b_old
        b *= c
        b += shaped_wa                     # b = c b_old - i s a_old
    high_matrix = _rx_group_matrix(high, beta)
    np.matmul(
        high_matrix, scratch.reshape(1 << high, -1),
        out=dst.reshape(1 << high, -1),
    )
    return dst


def _apply_sum_x_into(
    psi: np.ndarray, num_qubits: int, out: np.ndarray
) -> np.ndarray:
    """Write ``(sum_q X_q) psi`` into ``out``; ``psi`` is preserved.

    The low-qubit group goes through one gemm; every remaining qubit
    adds its bit-flipped ``(-1, 2, 2^q)`` slices of ``psi`` into
    ``out``, all contiguous.
    """
    n = num_qubits
    low = min(_GROUP_BITS, n)
    group = _sum_x_group_matrix(low)
    np.matmul(
        psi.reshape(-1, 1 << low), group, out=out.reshape(-1, 1 << low)
    )
    for q in range(low, n):
        block = 1 << q
        view = psi.reshape(-1, 2, block)
        target = out.reshape(-1, 2, block)
        target[:, 0, :] += view[:, 1, :]
        target[:, 1, :] += view[:, 0, :]
    return out


# ----------------------------------------------------------------------
# Out-of-place wrappers and reference kernels
# ----------------------------------------------------------------------
def _apply_mixer(psi: np.ndarray, num_qubits: int, beta: float) -> np.ndarray:
    """Out-of-place mixer (compatibility wrapper over the fast kernel)."""
    src = np.ascontiguousarray(psi, dtype=np.complex128)
    dst = np.empty(src.size, dtype=np.complex128)
    scratch = np.empty(src.size, dtype=np.complex128)
    return _apply_mixer_into(src, dst, num_qubits, beta, scratch)


def _apply_sum_x(psi: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply the mixer generator ``B = sum_q X_q`` to the amplitudes."""
    out = np.empty(psi.size, dtype=np.complex128)
    return _apply_sum_x_into(np.ascontiguousarray(psi), num_qubits, out)


def _apply_mixer_reference(
    psi: np.ndarray, num_qubits: int, beta: float
) -> np.ndarray:
    """The original ``np.flip``-based mixer — oracle for kernel tests."""
    c = np.cos(beta)
    s = np.sin(beta)
    tensor = psi.reshape((2,) * num_qubits)
    for axis in range(num_qubits):
        tensor = c * tensor - 1j * s * np.flip(tensor, axis=axis)
    return np.ascontiguousarray(tensor).reshape(-1)


def _apply_sum_x_reference(psi: np.ndarray, num_qubits: int) -> np.ndarray:
    """The original ``np.flip``-based generator — oracle for kernel tests."""
    tensor = psi.reshape((2,) * num_qubits)
    total = np.zeros_like(tensor)
    for axis in range(num_qubits):
        total = total + np.flip(tensor, axis=axis)
    return total.reshape(-1)
