"""Max-Cut QAOA statevector simulator with exact adjoint gradients.

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

One problem or a stack
----------------------
``QAOASimulator(problem)`` takes 1-D angles and returns scalars — the
labeling loop, the runner and every single-instance caller.
``QAOASimulator([problem, ...])`` takes several problems of one node
count, ``(K, p)`` angles and returns one result per row — the warm-start
evaluation, the flywheel relabeler and the fixed-angle ensemble. Both
run the same kernels on a ``(K, 2^n)`` amplitude stack (K = 1 for one
problem). Rows never mix, and every kernel applies the same operations
to a row whatever K is, so a row's energies and gradients are
bit-identical to the same instance simulated alone.

Kernels
-------
- the **cost phase** ``exp(-i gamma C)`` is a per-row elementwise
  multiply. Cut values are small non-negative integers for unweighted
  graphs, so the phases are gathered from a tiny per-row table of
  ``exp(-i gamma_k * v)`` (one transcendental per *distinct cut value*
  instead of one per amplitude); other diagonals (weighted graphs,
  Ising/QUBO diagonals with negative entries) take a dense ``exp``. The
  gradient pass caches the forward phases and undoes them by
  conjugation;
- the **mixer** ``RX(2 beta)^(tensor n)`` factorizes over qubits, so it
  is applied group-wise: the lowest ``_GROUP_BITS`` qubits contract
  through one stacked right-gemm against the ``RX^(tensor g)`` group
  matrix (gathered from its ``g + 1`` distinct entries through a
  popcount table), the highest group through a stacked left-gemm, and any middle qubits through contiguous-slice
  butterflies on the ``(K, -1, 2, 2^q)`` view. Every memory access is
  inside a gemm or unit-stride. The backward sweep reuses the cached
  forward group matrices: ``RX(-2 beta)^(tensor g)`` is their
  elementwise conjugate;
- the **generator** ``B = sum_q X_q`` splits the same way, against
  group matrices built once at import.

The popcount and ``sum_x`` group tables are read-only module constants,
so simulators on different threads share them without a lock.

The kernels write ``src -> dst`` so the evolution loop ping-pongs two
buffers instead of copying, and the simulator owns every workspace, so
repeated evaluations allocate nothing. One consequence: a
:class:`QAOASimulator` instance is NOT safe for concurrent use from
multiple threads; give each worker its own instance (the parallel
runtime does).

The ``np.flip`` kernels ``_apply_mixer_reference`` and
``_apply_sum_x_reference`` are the independent oracles the kernel tests
compare against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import CircuitError
from repro.graphs.graph import Graph
from repro.maxcut.problem import MaxCutProblem
from repro.quantum.statevector import Statevector

#: Qubits contracted per gemm group. 2^6 = 64 keeps the group matrices
#: small while giving the gemm enough inner dimension to saturate BLAS.
_GROUP_BITS = 6

#: Widest integer cost diagonal served from a phase-gather table. Cut
#: values are bounded by the edge count, so evaluation-size graphs stay
#: far below this; the cap only guards table memory for huge inputs.
_PHASE_TABLE_MAX = 1 << 16

#: Most instance rows one stack carries. Callers that simulate many
#: same-size problems at once (evaluation, relabeling) chunk by it.
MAX_STACK_ROWS = 64


def _build_group_tables() -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Per-width group tables for ``k = 0 .. _GROUP_BITS`` qubits.

    Returns ``(popcounts, sum_x)``: ``popcounts[k][i, j]`` is the
    number of set bits of ``i xor j`` (the index the mixer's group
    matrix gathers by), and ``sum_x[k]`` is ``sum_(q<k) X_q`` as a dense
    ``2^k x 2^k`` matrix — 1 where ``i xor j`` has exactly one bit set.
    Built once at import and read-only, so every thread and simulator
    shares them without a lock.
    """
    popcounts, sum_x = [], []
    for k in range(_GROUP_BITS + 1):
        index = np.arange(1 << k)
        xor = index[:, None] ^ index[None, :]
        count = np.zeros(xor.shape, dtype=np.intp)
        for bit in range(k):
            count += (xor >> bit) & 1
        group = (count == 1).astype(np.complex128)
        count.setflags(write=False)
        group.setflags(write=False)
        popcounts.append(count)
        sum_x.append(group)
    return tuple(popcounts), tuple(sum_x)


_GROUP_POPCOUNTS, _SUM_X_GROUPS = _build_group_tables()


class QAOASimulator:
    """Exact QAOA simulator over one Max-Cut instance or a same-size stack.

    Parameters
    ----------
    problems:
        One :class:`MaxCutProblem` (or raw :class:`Graph`, or any
        diagonal problem such as
        :class:`~repro.qaoa.hamiltonians.DiagonalProblem`), or a list or
        tuple of them sharing one node count. Problems may repeat — the
        random and warm arm of one graph occupy two rows backed by the
        same cached problem.

    A single problem takes 1-D ``gammas``/``betas`` of equal length
    ``p`` and returns scalars; a stack takes ``(K, p)`` arrays, row
    ``i`` holding instance ``i``'s angles, and returns one value per
    row. ``state``, ``sample_cut`` and ``gradient_finite_difference``
    are single-problem only.
    """

    def __init__(self, problems):
        self.stacked = isinstance(problems, (list, tuple))
        if not self.stacked:
            problems = [problems]
        if len(problems) == 0:
            raise CircuitError("simulator needs at least one instance")
        resolved = [
            MaxCutProblem(p) if isinstance(p, Graph) else p for p in problems
        ]
        n = resolved[0].num_nodes
        for problem in resolved:
            if problem.num_nodes != n:
                raise CircuitError(
                    "stacked instances must share one node count: "
                    f"got {problem.num_nodes} and {n}"
                )
        self.problems: List = resolved
        self.num_qubits = n
        self.num_instances = batch = len(resolved)
        dim = 1 << n
        self._diagonals = np.empty((batch, dim), dtype=np.float64)
        for i, problem in enumerate(resolved):
            self._diagonals[i] = problem.cost_diagonal()
        # Integral diagonals (every unweighted Max-Cut instance) are
        # served by a per-row phase-table gather: exp(-i gamma_k v) for
        # each distinct cut value v, then one flat take. This is
        # bit-identical to the dense exp — the same products reach the
        # same exp calls — at a fraction of the transcendental work.
        self._phase_index: Optional[np.ndarray] = None
        if np.all(self._diagonals >= 0) and np.all(
            self._diagonals == np.rint(self._diagonals)
        ):
            max_value = int(self._diagonals.max())
            if max_value < _PHASE_TABLE_MAX:
                self._phase_values = np.arange(
                    max_value + 1, dtype=np.float64
                )
                rows = np.arange(batch, dtype=np.intp)[:, None]
                self._phase_index = (
                    self._diagonals.astype(np.intp) + rows * (max_value + 1)
                )
        self._plus = np.full((1, dim), 1.0 / np.sqrt(dim), dtype=np.complex128)
        self._phase = np.empty((batch, dim), dtype=np.complex128)
        self._work = np.empty((batch, dim), dtype=np.complex128)
        self._psi = np.empty((batch, dim), dtype=np.complex128)
        self._psi_alt = np.empty((batch, dim), dtype=np.complex128)
        self._lam = np.empty((batch, dim), dtype=np.complex128)
        self._lam_alt = np.empty((batch, dim), dtype=np.complex128)
        self._row = np.empty(batch, dtype=np.complex128)
        low = min(_GROUP_BITS, n)
        high = min(_GROUP_BITS, n - low)
        self._low_bits = low
        self._high_bits = high
        self._low_tmp = np.empty(
            (batch, 1 << low, 1 << low), dtype=np.complex128
        )
        # When the high group is as wide as the low one (n = 2 groups)
        # the two matrices coincide, so no second build is needed.
        self._shared_groups = high == low
        self._high_tmp = (
            np.empty((batch, 1 << high, 1 << high), dtype=np.complex128)
            if high and not self._shared_groups
            else None
        )
        # The two-gemm mixer stages through a scratch stack; sum_x
        # accumulates its high-group gemm through another.
        self._scratch = (
            np.empty((batch, dim), dtype=np.complex128) if high else None
        )
        self._sum_x_work = (
            np.empty((batch, dim), dtype=np.complex128) if high else None
        )
        # Per-layer forward caches for the adjoint sweep (phases and
        # group matrices), sized on first gradient call for depth p.
        self._phase_stack: Optional[np.ndarray] = None
        self._low_stack: Optional[np.ndarray] = None
        self._high_stack: Optional[np.ndarray] = None
        # Butterfly temporaries are exercised only when middle qubits
        # sit between the low and high gemm groups (n > 2 groups).
        self._butterfly: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if n > low + high:
            half = dim >> 1
            self._butterfly = (
                np.empty((batch, half), dtype=np.complex128),
                np.empty((batch, half), dtype=np.complex128),
            )

    @property
    def problem(self):
        """The one instance of a single-problem simulator."""
        if self.stacked:
            raise CircuitError(
                "a stacked simulator holds several problems; use .problems"
            )
        return self.problems[0]

    # ------------------------------------------------------------------
    # Forward evaluation
    # ------------------------------------------------------------------
    def state(self, gammas: np.ndarray, betas: np.ndarray) -> Statevector:
        """The QAOA state ``|psi(gamma, beta)>`` (single problem)."""
        self._require_single("state")
        gammas, betas = self._check_params(gammas, betas)
        psi = self._evolve(gammas, betas)
        return Statevector(self.num_qubits, psi[0].copy(), copy=False)

    def expectation(self, gammas: np.ndarray, betas: np.ndarray):
        """``<psi| C |psi>`` — the expected cut value (per row for a stack)."""
        gammas, betas = self._check_params(gammas, betas)
        psi = self._evolve(gammas, betas)
        np.multiply(self._diagonals, psi, out=self._work)
        _row_vdot(psi, self._work, self._row)
        if self.stacked:
            return self._row.real.copy()
        return float(self._row[0].real)

    def approximation_ratio(self, gammas: np.ndarray, betas: np.ndarray):
        """Expected cut divided by the exact optimum (per row for a stack)."""
        energies = self.expectation(gammas, betas)
        if not self.stacked:
            return self.problem.approximation_ratio(energies)
        return np.array(
            [
                problem.approximation_ratio(energy)
                for problem, energy in zip(self.problems, energies)
            ]
        )

    def sample_cut(
        self, gammas: np.ndarray, betas: np.ndarray, shots: int = 1024, rng=None
    ) -> Tuple[int, float]:
        """Sample the state and return the best cut seen: (bitstring, value)."""
        state = self.state(gammas, betas)
        samples = state.sample(shots, rng)
        values = self._diagonals[0][samples]
        best = int(np.argmax(values))
        return int(samples[best]), float(values[best])

    # ------------------------------------------------------------------
    # Exact gradients (adjoint method)
    # ------------------------------------------------------------------
    def expectation_and_gradient(self, gammas: np.ndarray, betas: np.ndarray):
        """Expectation and exact ``(dE/dgamma, dE/dbeta)`` in one pass.

        Returns ``(energy, grad_gamma (p,), grad_beta (p,))`` for one
        problem and ``(energies (K,), (K, p), (K, p))`` for a stack.
        The forward pass caches each layer's phase array and mixer
        group matrices; the backward pass propagates the adjoint state
        ``lambda = V_k^dag C |psi_p>``, undoing each layer by
        conjugating its cached factors, and reads off
        ``dE/dtheta_k = 2 Re <lambda_k| (-i G_k) |psi_k>`` where ``G_k``
        is the layer generator (``C`` or ``B``).
        """
        gammas, betas = self._check_params(gammas, betas)
        p = gammas.shape[1]
        n = self.num_qubits
        diag = self._diagonals
        batch = self.num_instances
        dim = diag.shape[1]
        low = self._low_bits
        high = self._high_bits
        if self._phase_stack is None or self._phase_stack.shape[0] < p:
            self._phase_stack = np.empty(
                (p, batch, dim), dtype=np.complex128
            )
            self._low_stack = np.empty(
                (p, batch, 1 << low, 1 << low), dtype=np.complex128
            )
            self._high_stack = (
                np.empty(
                    (p, batch, 1 << high, 1 << high), dtype=np.complex128
                )
                if high and not self._shared_groups
                else None
            )
        phases = self._phase_stack
        low_stack = self._low_stack
        high_stack = self._high_stack

        # Forward pass, caching per-layer phases and group matrices.
        cur, nxt = self._psi, self._psi_alt
        np.copyto(cur, self._plus)
        for k in range(p):
            cur *= self._phases_into(gammas[:, k], phases[k])
            low_groups, high_groups = self._group_matrices(
                betas[:, k],
                low_stack[k],
                high_stack[k] if high_stack is not None else None,
            )
            _mixer_into(
                cur, nxt, n, betas[:, k], self._scratch, self._butterfly,
                low_groups=low_groups, high_groups=high_groups,
            )
            cur, nxt = nxt, cur
        psi, psi_alt = cur, nxt

        lam = self._lam
        lam_alt = self._lam_alt
        row = self._row
        np.multiply(diag, psi, out=lam)
        _row_vdot(psi, lam, row)
        energies = row.real.copy()
        grad_gamma = np.zeros((batch, p), dtype=np.float64)
        grad_beta = np.zeros((batch, p), dtype=np.float64)
        work = self._work

        for k in range(p - 1, -1, -1):
            # psi currently equals psi_k (state after layer k).
            # dE/dbeta_k = 2 Re <lam | -i B psi_k> = 2 Im <lam | B psi_k>
            _sum_x_into(psi, n, work, self._sum_x_work)
            _row_vdot(lam, work, row)
            grad_beta[:, k] = 2.0 * row.imag
            # Undo the mixer on both vectors: the inverse group
            # matrices are the conjugate of the cached forward ones.
            inv_low = np.conjugate(low_stack[k], out=low_stack[k])
            if self._shared_groups:
                inv_high = inv_low
            elif high:
                inv_high = np.conjugate(high_stack[k], out=high_stack[k])
            else:
                inv_high = None
            _mixer_into(
                psi, psi_alt, n, -betas[:, k], self._scratch,
                self._butterfly, low_groups=inv_low, high_groups=inv_high,
            )
            psi, psi_alt = psi_alt, psi
            _mixer_into(
                lam, lam_alt, n, -betas[:, k], self._scratch,
                self._butterfly, low_groups=inv_low, high_groups=inv_high,
            )
            lam, lam_alt = lam_alt, lam
            # dE/dgamma_k = 2 Re <lam' | -i C phi_k> = 2 Im <lam' | C phi_k>
            np.multiply(diag, psi, out=work)
            _row_vdot(lam, work, row)
            grad_gamma[:, k] = 2.0 * row.imag
            # Undo the phase separator: conjugate of the cached phase.
            ph = np.conjugate(phases[k], out=phases[k])
            psi *= ph
            lam *= ph

        if self.stacked:
            return energies, grad_gamma, grad_beta
        return float(energies[0]), grad_gamma[0], grad_beta[0]

    def gradient_finite_difference(
        self, gammas: np.ndarray, betas: np.ndarray, eps: float = 1e-6
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Central finite-difference gradient (test oracle for the adjoint)."""
        self._require_single("gradient_finite_difference")
        gammas, betas = self._check_params(gammas, betas)
        gammas, betas = gammas[0], betas[0]
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
    def _phases_into(
        self, gammas_k: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Write ``exp(-i gammas_k[i] C_i)`` into ``out[i]``.

        Integral diagonals gather from a ``(K, max_cut+1)`` table of
        per-row value phases (bit-identical to the dense path — the
        same ``(-i gamma) * value`` products feed the same ``exp``);
        anything else computes the dense elementwise ``exp``.
        """
        if self._phase_index is not None:
            table = np.exp(
                (-1j * gammas_k)[:, None] * self._phase_values[None, :]
            )
            np.take(table, self._phase_index, out=out, mode="clip")
        else:
            np.multiply(
                self._diagonals, (-1j * gammas_k)[:, None], out=out
            )
            np.exp(out, out=out)
        return out

    def _group_matrices(self, betas_k, low_out, high_out):
        """The layer's low and high mixer group matrices, built into the
        given buffers (the high one is the low one when widths match)."""
        low_groups = _rx_group_matrices(self._low_bits, betas_k, out=low_out)
        if self._shared_groups:
            return low_groups, low_groups
        if self._high_bits:
            return low_groups, _rx_group_matrices(
                self._high_bits, betas_k, out=high_out
            )
        return low_groups, None

    def _evolve(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Evolve the ``|+>`` stack through the depth-p ansatz.

        Ping-pongs the ``_psi``/``_psi_alt`` workspaces; the returned
        buffer is invalidated by the next evaluation.
        """
        cur, nxt = self._psi, self._psi_alt
        np.copyto(cur, self._plus)
        for k in range(gammas.shape[1]):
            cur *= self._phases_into(gammas[:, k], self._phase)
            low_groups, high_groups = self._group_matrices(
                betas[:, k], self._low_tmp, self._high_tmp
            )
            _mixer_into(
                cur, nxt, self.num_qubits, betas[:, k], self._scratch,
                self._butterfly, low_groups=low_groups,
                high_groups=high_groups,
            )
            cur, nxt = nxt, cur
        return cur

    def _check_params(
        self, gammas, betas
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validated ``(K, p)`` float views of the caller's angles."""
        gammas = np.asarray(gammas, dtype=np.float64)
        betas = np.asarray(betas, dtype=np.float64)
        if self.stacked:
            if gammas.ndim != 2 or betas.ndim != 2:
                raise CircuitError(
                    "stacked gammas and betas must be (num_instances, p) arrays"
                )
        else:
            gammas = np.atleast_1d(gammas)
            betas = np.atleast_1d(betas)
            if gammas.ndim != 1 or betas.ndim != 1:
                raise CircuitError("gammas and betas must be 1-D")
            gammas = gammas[None]
            betas = betas[None]
        if gammas.shape != betas.shape:
            raise CircuitError(
                f"gamma/beta shape mismatch: {gammas.shape} vs {betas.shape}"
            )
        if gammas.shape[0] != self.num_instances:
            raise CircuitError(
                f"parameter stack has {gammas.shape[0]} rows for "
                f"{self.num_instances} instances"
            )
        if gammas.shape[1] == 0:
            raise CircuitError("depth p must be at least 1")
        return gammas, betas

    def _require_single(self, method: str) -> None:
        if self.stacked:
            raise CircuitError(f"{method} needs a single-problem simulator")


# ----------------------------------------------------------------------
# Stacked kernels
# ----------------------------------------------------------------------
def _rx_group_matrices(
    k: int, betas: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``RX(2 beta_i)^(tensor k)`` for every row: ``(K, 2^k, 2^k)``.

    Entry ``[i, r, c] = cos(beta_i)^(k-h) (-i sin(beta_i))^h`` with
    ``h = popcount(r xor c)``, so a row's matrix holds only ``k + 1``
    distinct values. They are built per row by running products
    (``cos^j`` and ``(-i sin)^j``, one multiply per power) and gathered
    through the read-only popcount table — a fixed handful of numpy
    calls whatever ``k`` and ``K`` are.
    """
    betas = np.asarray(betas, dtype=np.float64)
    batch = betas.shape[0]
    if out is None:
        out = np.empty((batch, 1 << k, 1 << k), dtype=np.complex128)
    powers = np.empty((batch, 2, k + 1), dtype=np.complex128)
    powers[:, :, 0] = 1.0
    powers[:, 0, 1:] = np.cos(betas)[:, None]
    powers[:, 1, 1:] = (-1j * np.sin(betas))[:, None]
    np.multiply.accumulate(powers, axis=2, out=powers)
    values = powers[:, 0, ::-1] * powers[:, 1]
    np.take(values, _GROUP_POPCOUNTS[k], axis=1, out=out)
    return out


def _mixer_into(
    src: np.ndarray,
    dst: np.ndarray,
    num_qubits: int,
    betas: np.ndarray,
    scratch: Optional[np.ndarray] = None,
    butterfly_work: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    low_groups: Optional[np.ndarray] = None,
    high_groups: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``exp(-i betas[i] B) src[i]`` into ``dst[i]`` for a stack.

    ``src`` and ``dst`` are contiguous ``(K, 2^n)`` complex arrays
    (``src`` preserved). The lowest ``min(_GROUP_BITS, n)`` qubits
    contract through one stacked right-gemm (the group matrix is
    symmetric, so no transpose is needed), the highest
    ``min(_GROUP_BITS, n - low)`` through one stacked left-gemm, and
    any middle qubits through batch-broadcast butterflies
    ``a' = c a - i s b``, ``b' = c b - i s a`` on ``scratch``. The
    per-row group matrices (``low_groups`` / ``high_groups``) may be
    supplied — the simulator caches these across the two adjoint states
    and conjugates them for the backward sweep — else they are built
    from ``betas``.
    """
    n = num_qubits
    batch = src.shape[0]
    if n <= _GROUP_BITS:
        if low_groups is None:
            low_groups = _rx_group_matrices(n, betas)
        np.matmul(
            src.reshape(batch, 1, -1),
            low_groups,
            out=dst.reshape(batch, 1, -1),
        )
        return dst
    low = _GROUP_BITS
    high = min(_GROUP_BITS, n - low)
    if low_groups is None:
        low_groups = _rx_group_matrices(low, betas)
    if high_groups is None:
        # Equal group widths share one matrix (RX tensor powers depend
        # only on the width and the angle).
        high_groups = (
            low_groups if high == low else _rx_group_matrices(high, betas)
        )
    if scratch is None:
        scratch = np.empty_like(src)
    np.matmul(
        src.reshape(batch, -1, 1 << low),
        low_groups,
        out=scratch.reshape(batch, -1, 1 << low),
    )
    if n > low + high:
        if butterfly_work is None:
            half = src.shape[1] >> 1
            butterfly_work = (
                np.empty((batch, half), dtype=np.complex128),
                np.empty((batch, half), dtype=np.complex128),
            )
        betas = np.asarray(betas, dtype=np.float64)
        c = np.cos(betas).reshape(batch, 1, 1)
        ms = (-1j * np.sin(betas)).reshape(batch, 1, 1)
        wa, wb = butterfly_work
        for q in range(low, n - high):
            block = 1 << q
            view = scratch.reshape(batch, -1, 2, block)
            a = view[:, :, 0, :]
            b = view[:, :, 1, :]
            shaped_wa = wa.reshape(a.shape)
            shaped_wb = wb.reshape(b.shape)
            np.multiply(a, ms, out=shaped_wa)  # wa = -i s a_old
            a *= c
            np.multiply(b, ms, out=shaped_wb)  # wb = -i s b_old
            a += shaped_wb                     # a = c a_old - i s b_old
            b *= c
            b += shaped_wa                     # b = c b_old - i s a_old
    np.matmul(
        high_groups,
        scratch.reshape(batch, 1 << high, -1),
        out=dst.reshape(batch, 1 << high, -1),
    )
    return dst


def _sum_x_into(
    psi: np.ndarray,
    num_qubits: int,
    out: np.ndarray,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``(sum_q X_q) psi[i]`` into ``out[i]``; ``psi`` preserved.

    Splits like the mixer: the low group through one stacked right-gemm
    against the shared read-only ``sum_x`` group matrix, the high group
    through one stacked left-gemm accumulated via ``work``, and any
    middle qubits through bit-flip slice adds, all contiguous.
    """
    n = num_qubits
    batch = psi.shape[0]
    low = min(_GROUP_BITS, n)
    np.matmul(
        psi.reshape(batch, -1, 1 << low),
        _SUM_X_GROUPS[low],
        out=out.reshape(batch, -1, 1 << low),
    )
    if n <= low:
        return out
    high = min(_GROUP_BITS, n - low)
    for q in range(low, n - high):
        block = 1 << q
        view = psi.reshape(batch, -1, 2, block)
        target = out.reshape(batch, -1, 2, block)
        target[:, :, 0, :] += view[:, :, 1, :]
        target[:, :, 1, :] += view[:, :, 0, :]
    if work is None:
        work = np.empty_like(psi)
    np.matmul(
        _SUM_X_GROUPS[high],
        psi.reshape(batch, 1 << high, -1),
        out=work.reshape(batch, 1 << high, -1),
    )
    out += work
    return out


def _row_vdot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = <a[i] | b[i]>`` row by row.

    A Python loop over ``np.vdot`` on contiguous rows, so each row's
    reduction is the same BLAS ``zdotc`` call whatever the stack height.
    """
    for i in range(a.shape[0]):
        out[i] = np.vdot(a[i], b[i])
    return out


# ----------------------------------------------------------------------
# Reference kernels (test oracles)
# ----------------------------------------------------------------------
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
