"""Parallel-in-time MGRIT-FAS solver with spatial coarsening.

The solver treats all time steps of an initial-value problem as one
block system and iterates multigrid cycles over a hierarchy of time
grids, optionally coarsening the spatial grid on coarse time levels.
Converged answers match plain sequential time stepping; the payoff is
that the expensive fine-level sweeps run distributed over workers.

Typical use:

    from pintmg import (LinearDiffusionProblem, PwmSource, TimeHierarchy,
                        build_uniform_grid, mgrit_solve)

    problem = LinearDiffusionProblem(31, excitation=PwmSource())
    grid = build_uniform_grid(0.0, 0.02, 256)
    run, solution = mgrit_solve(problem, TimeHierarchy.plan(grid, 1, 5, 4))

The ``pintmg`` command line wraps the same machinery behind config
files; see ``pintmg --help``.
"""

from .config import (ExperimentConfig, load_config, parse_config,
                     save_config, serialize_config, with_overrides)
from .errors import NewtonConvergenceError, NonFiniteError, TransportError
from .excitation import PwmSource
from .harness import (build_hierarchy, build_problem, compare_variants,
                      run_experiment, scale_experiment)
from .mgrit import (CycleSpec, MgritSolver, SolverRun, StoppingCriterion,
                    StorageReport, mgrit_solve, qoi_change, storage_estimate)
from .problems import (BrauerCurve, DahlquistProblem, LinearDiffusionProblem,
                       NewtonOptions, NonlinearSaturationProblem,
                       SurrogateMachineProblem, sequential_solve)
from .runtime import Decomposition, NullTransport, run_spmd
from .spatial import SpatialHierarchy, assign_spatial_levels
from .state import BlockState, SpaceTimeVector
from .time_hierarchy import TimeGrid, TimeHierarchy, build_uniform_grid

__version__ = "0.1.0"

__all__ = [
    "BlockState",
    "BrauerCurve",
    "CycleSpec",
    "DahlquistProblem",
    "Decomposition",
    "ExperimentConfig",
    "LinearDiffusionProblem",
    "MgritSolver",
    "NewtonConvergenceError",
    "NewtonOptions",
    "NonFiniteError",
    "NonlinearSaturationProblem",
    "NullTransport",
    "PwmSource",
    "SolverRun",
    "SpaceTimeVector",
    "SpatialHierarchy",
    "StoppingCriterion",
    "StorageReport",
    "SurrogateMachineProblem",
    "TimeGrid",
    "TimeHierarchy",
    "TransportError",
    "assign_spatial_levels",
    "build_hierarchy",
    "build_problem",
    "build_uniform_grid",
    "compare_variants",
    "load_config",
    "mgrit_solve",
    "parse_config",
    "qoi_change",
    "run_experiment",
    "run_spmd",
    "save_config",
    "scale_experiment",
    "sequential_solve",
    "serialize_config",
    "storage_estimate",
    "with_overrides",
]
