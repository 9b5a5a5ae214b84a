"""Fixed-angle conjecture angles for regular Max-Cut graphs.

The paper relabels part of its dataset with the fixed angles of Wurtz &
Lykov (PRA 104, 052419): universal (gamma, beta) per (degree, depth)
that perform near-optimally on *all* d-regular graphs, available in the
JPMorgan open-source library for degrees 3-11 — "about 6% of our
dataset".

Substitution (no network access to the published lookup tables): at
p = 1 the angles have the exact closed form ``gamma = arctan(1 /
sqrt(d-1))``, ``beta = pi/8`` (see :mod:`repro.qaoa.analytic`), which is
what the conjecture tabulates; a p = 1 lookup never simulates. For
p >= 2 we regenerate *transfer angles* the same way the original authors
did — optimize on an ensemble of random d-regular instances and keep the
angles that maximize the mean ratio — and cache them per (degree,
depth). Each entry draws its ensemble and restarts from its own stream,
seeded by (table seed, degree, depth), so an entry does not depend on
which entries the process computed before it. The coverage window (degrees 3-11) mirrors the paper's
statement, so the "~6% coverage" ablation is faithful.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import FixedAngleLookupError, GraphError
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.maxcut.problem import MaxCutProblem
from repro.qaoa.analytic import p1_optimal_angles_regular
from repro.qaoa.optimizers import AdamOptimizer
from repro.qaoa.simulator import QAOASimulator
from repro.utils.rng import RngLike

#: Degrees covered by the published fixed-angle tables.
MIN_COVERED_DEGREE = 3
MAX_COVERED_DEGREE = 11


@dataclass(frozen=True)
class FixedAngles:
    """A fixed-angle entry: parameters plus the ensemble ratio achieved."""

    degree: int
    p: int
    gammas: Tuple[float, ...]
    betas: Tuple[float, ...]
    #: Mean approximation ratio the transfer optimization reached on its
    #: ensemble; ``None`` at p = 1, whose closed-form angles need none.
    mean_ratio: Optional[float]


class FixedAngleTable:
    """Lazy per-process cache of fixed angles keyed by (degree, depth)."""

    def __init__(
        self,
        ensemble_size: int = 8,
        ensemble_nodes: int = 12,
        optimizer_iters: int = 150,
        restarts: int = 4,
        rng: RngLike = None,
    ):
        self.ensemble_size = ensemble_size
        self.ensemble_nodes = ensemble_nodes
        self.optimizer_iters = optimizer_iters
        self.restarts = restarts
        if rng is None:
            rng = 20240305
        #: Root of every entry's stream (see :meth:`_entry_rng`).
        self.seed = (
            int(rng.integers(0, 2**63 - 1))
            if isinstance(rng, np.random.Generator)
            else int(rng)
        )
        self._cache: Dict[Tuple[int, int], FixedAngles] = {}
        self._lock = threading.Lock()

    def covers(self, degree: int, p: int = 1) -> bool:
        """True if (degree, p) is inside the published coverage window."""
        return MIN_COVERED_DEGREE <= degree <= MAX_COVERED_DEGREE and p >= 1

    def lookup(self, degree: int, p: int = 1) -> FixedAngles:
        """Fixed angles for depth-p QAOA on degree-d regular graphs.

        Raises :class:`FixedAngleLookupError` outside the coverage
        window, mirroring the paper's partial coverage.
        """
        if not self.covers(degree, p):
            raise FixedAngleLookupError(
                f"no fixed-angle entry for degree {degree}, p={p} "
                f"(coverage: degrees {MIN_COVERED_DEGREE}-{MAX_COVERED_DEGREE})"
            )
        key = (degree, p)
        entry = self._cache.get(key)
        if entry is None:
            # Computed once, under the lock: concurrent first lookups
            # would otherwise both run the same transfer optimization.
            with self._lock:
                entry = self._cache.get(key)
                if entry is None:
                    entry = self._cache[key] = self._compute(degree, p)
        return entry

    def _compute(self, degree: int, p: int) -> FixedAngles:
        if p == 1:
            gamma, beta = p1_optimal_angles_regular(degree)
            return FixedAngles(
                degree=degree,
                p=1,
                gammas=(float(gamma),),
                betas=(float(beta),),
                mean_ratio=None,
            )
        return self._transfer_angles(degree, p)

    def _entry_rng(self, degree: int, p: int) -> np.random.Generator:
        """The (degree, p) entry's own stream, independent of lookup order."""
        return np.random.default_rng([self.seed, degree, p])

    def _transfer_angles(self, degree: int, p: int) -> FixedAngles:
        """Optimize shared angles over an ensemble of random d-regular graphs."""
        rng = self._entry_rng(degree, p)
        objective = _EnsembleRatio(self._ensemble(degree, rng))
        optimizer = AdamOptimizer(learning_rate=0.05)
        best = None
        for restart in range(self.restarts):
            if restart == 0:
                # Seed with the p=1 closed form replicated and jittered.
                gamma1, beta1 = p1_optimal_angles_regular(degree)
                gammas = np.linspace(0.6, 1.2, p) * gamma1
                betas = np.linspace(1.2, 0.5, p) * beta1
            else:
                gammas = rng.uniform(0.0, np.pi / 2, size=p)
                betas = rng.uniform(0.0, np.pi / 4, size=p)
            result = optimizer.run(
                objective, gammas, betas, max_iters=self.optimizer_iters
            )
            if best is None or result.expectation > best.expectation:
                best = result
        return FixedAngles(
            degree=degree,
            p=p,
            gammas=tuple(float(g) for g in best.gammas),
            betas=tuple(float(b) for b in best.betas),
            mean_ratio=float(best.expectation),
        )

    def _ensemble(self, degree: int, rng: np.random.Generator):
        problems = []
        attempts = 0
        while len(problems) < self.ensemble_size and attempts < 10 * self.ensemble_size:
            attempts += 1
            num_nodes = self.ensemble_nodes
            if (num_nodes * degree) % 2 != 0:
                num_nodes += 1
            if degree >= num_nodes:
                num_nodes = degree + 1 + ((degree + 1) * degree) % 2
            try:
                graph = random_regular_graph(num_nodes, degree, rng)
            except GraphError:
                continue
            problems.append(MaxCutProblem(graph))
        if not problems:
            raise FixedAngleLookupError(
                f"could not build a degree-{degree} ensemble"
            )
        return problems


class _EnsembleRatio:
    """Mean approximation ratio of *shared* angles over an ensemble.

    The ensemble's graphs share one node count, so they run as one
    simulator stack; the objective exposes the single-problem
    ``expectation``/``expectation_and_gradient`` pair, so the one
    :class:`~repro.qaoa.optimizers.AdamOptimizer` drives it.
    """

    def __init__(self, problems):
        self.simulator = QAOASimulator(list(problems))
        self._optima = np.array([pr.max_cut_value() for pr in problems])

    def _rows(self, gammas, betas):
        rows = len(self._optima)
        return (
            np.tile(np.asarray(gammas, dtype=np.float64), (rows, 1)),
            np.tile(np.asarray(betas, dtype=np.float64), (rows, 1)),
        )

    def expectation(self, gammas, betas) -> float:
        values = self.simulator.expectation(*self._rows(gammas, betas))
        return float(np.mean(values / self._optima))

    def expectation_and_gradient(self, gammas, betas):
        values, grad_g, grad_b = self.simulator.expectation_and_gradient(
            *self._rows(gammas, betas)
        )
        scale = self._optima[:, None]
        return (
            float(np.mean(values / self._optima)),
            np.mean(grad_g / scale, axis=0),
            np.mean(grad_b / scale, axis=0),
        )


_DEFAULT_TABLE: Optional[FixedAngleTable] = None
_DEFAULT_TABLE_LOCK = threading.Lock()


def default_table() -> FixedAngleTable:
    """Process-wide shared fixed-angle table (built once, under a lock,
    so concurrent first callers share one table and its entries)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        with _DEFAULT_TABLE_LOCK:
            if _DEFAULT_TABLE is None:
                _DEFAULT_TABLE = FixedAngleTable()
    return _DEFAULT_TABLE


def lookup_fixed_angles(degree: int, p: int = 1) -> FixedAngles:
    """Convenience lookup against the shared table."""
    return default_table().lookup(degree, p)


def fixed_angles_for_graph(graph: Graph, p: int = 1) -> FixedAngles:
    """Fixed angles for a *regular* graph; raises if irregular/uncovered."""
    degree = graph.regular_degree()
    if degree is None:
        raise FixedAngleLookupError("fixed angles require a regular graph")
    return lookup_fixed_angles(degree, p)
