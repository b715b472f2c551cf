"""Exact integer linear programming substrate.

This subpackage replaces the ILP back-ends (PIP, GLPK, isl's solver) used by
the schedulers the paper builds on.  It offers a declarative problem type
whose one row type, :class:`LinearConstraint`, is what the scheduler builds
from the Farkas linearisation onwards, and one lexicographic multi-objective
solver, ``IncrementalIlpEngine(problem, node_limit).solve()``; it exports the
production names only.  The reference the tests compare it against is
imported from its own modules — ``repro.ilp.branch_bound``
(:func:`solve_lexicographic`, :func:`solve_milp`), ``repro.ilp.backend`` and
``repro.ilp.simplex`` — which import :mod:`repro.ilp.encode`, never the other
way round: a compile loads none of the three.
"""

from .encode import LpStatus
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
)
from .solution import IlpSolution

__all__ = [
    "ConstraintSense",
    "LinearConstraint",
    "LinearProblem",
    "Variable",
    "LpStatus",
    "EngineError",
    "EngineLimitError",
    "EngineStatistics",
    "IncrementalIlpEngine",
    "SolverOptions",
    "IlpSolution",
]
