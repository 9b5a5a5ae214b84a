"""QAOA core: simulator, gradients, optimizers, initialization, runner."""

from repro.qaoa.simulator import QAOASimulator
from repro.qaoa.ansatz import build_qaoa_circuit, qaoa_resource_counts
from repro.qaoa.analytic import (
    p1_edge_expectation,
    p1_expectation,
    p1_optimal_angles_regular,
    p1_regular_triangle_free_expectation,
)
from repro.qaoa.optimizers import (
    AdamOptimizer,
    GradientDescentOptimizer,
    OptimizationResult,
    SPSAOptimizer,
    scipy_optimize,
)
from repro.qaoa.fixed_angles import (
    FixedAngleTable,
    FixedAngles,
    default_table,
    fixed_angles_for_graph,
    lookup_fixed_angles,
)
from repro.qaoa.initialization import (
    BETA_RANGE,
    GAMMA_RANGE,
    ConstantInitialization,
    FixedAngleInitialization,
    InitializationStrategy,
    LinearRampInitialization,
    RandomInitialization,
    WarmStartInitialization,
)
from repro.qaoa.runner import QAOAOutcome, QAOARunner
from repro.qaoa.landscape import (
    LandscapeGrid,
    find_local_maxima,
    global_optimum_p1,
    gradient_variance,
    grid_landscape,
)
from repro.qaoa.hamiltonians import (
    DiagonalProblem,
    IsingModel,
    QUBO,
    ising_to_maxcut,
    maxcut_to_ising,
)
from repro.qaoa.shots import ShotBasedSimulator
from repro.qaoa.interp import (
    fourier_coefficients,
    fourier_extend,
    fourier_schedule,
    interp_extend,
    interp_to_depth,
)

__all__ = [
    "QAOASimulator",
    "build_qaoa_circuit",
    "qaoa_resource_counts",
    "p1_edge_expectation",
    "p1_expectation",
    "p1_optimal_angles_regular",
    "p1_regular_triangle_free_expectation",
    "AdamOptimizer",
    "GradientDescentOptimizer",
    "OptimizationResult",
    "SPSAOptimizer",
    "scipy_optimize",
    "FixedAngleTable",
    "FixedAngles",
    "default_table",
    "fixed_angles_for_graph",
    "lookup_fixed_angles",
    "BETA_RANGE",
    "GAMMA_RANGE",
    "ConstantInitialization",
    "FixedAngleInitialization",
    "InitializationStrategy",
    "LinearRampInitialization",
    "RandomInitialization",
    "WarmStartInitialization",
    "QAOAOutcome",
    "QAOARunner",
    "LandscapeGrid",
    "find_local_maxima",
    "global_optimum_p1",
    "gradient_variance",
    "grid_landscape",
    "DiagonalProblem",
    "IsingModel",
    "QUBO",
    "ising_to_maxcut",
    "maxcut_to_ising",
    "fourier_coefficients",
    "fourier_extend",
    "fourier_schedule",
    "interp_extend",
    "interp_to_depth",
    "ShotBasedSimulator",
]
