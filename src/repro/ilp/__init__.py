"""Exact integer linear programming substrate.

This subpackage replaces the ILP back-ends (PIP, GLPK, isl's solver) used by
the schedulers the paper builds on.  It offers a declarative problem type
and one lexicographic multi-objective solver (:class:`IlpSolver` over the
incremental engine), plus the exact rational simplex and cold branch & bound
the tests use as its reference (:func:`solve_lexicographic`).
"""

from .backend import (
    ExactSimplexBackend,
    LpBackend,
    ScipyHighsBackend,
    default_backend,
)
from .branch_bound import MilpResult, MilpStatus, solve_lexicographic, solve_milp
from .engine import (
    EngineError,
    EngineLimitError,
    EngineStatistics,
    IncrementalIlpEngine,
)
from .options import SolverOptions
from .problem import (
    ConstraintSense,
    LinearConstraint,
    LinearProblem,
    Variable,
    merge_linear_terms,
    scale_linear_terms,
)
from .simplex import LpResult, LpStatus, StandardFormRow, solve_standard_form
from .solver import IlpSolution, IlpSolver

__all__ = [
    "ExactSimplexBackend",
    "LpBackend",
    "ScipyHighsBackend",
    "default_backend",
    "ConstraintSense",
    "LinearConstraint",
    "LinearProblem",
    "Variable",
    "merge_linear_terms",
    "scale_linear_terms",
    "LpResult",
    "LpStatus",
    "StandardFormRow",
    "solve_standard_form",
    "MilpResult",
    "MilpStatus",
    "solve_milp",
    "solve_lexicographic",
    "EngineError",
    "EngineLimitError",
    "EngineStatistics",
    "IncrementalIlpEngine",
    "SolverOptions",
    "IlpSolution",
    "IlpSolver",
]
