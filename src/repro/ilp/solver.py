"""Lexicographic ILP driver.

The scheduler's per-dimension problems carry an ordered list of objectives
(cost functions followed by tie-breakers).  They are minimised one after the
other: each stage's optimum is frozen as an equality constraint before the next
stage is solved, exactly like the lexicographic minimisation performed by the
ILP back-ends of Pluto and isl.

There is one execution path: :meth:`IlpSolver.solve` always runs the stateful
:class:`repro.ilp.engine.IncrementalIlpEngine` — the problem is encoded to
standard form once, phase 1 runs once, objective stages re-use the previous
basis and branch & bound children are warm-started with the dual simplex on
the sparse revised-simplex core (:mod:`repro.ilp.revised`).  An internal
inconsistency of the engine is never answered by switching to another
implementation: :class:`~repro.ilp.engine.EngineError` propagates, carrying
the offending :class:`LinearProblem` as ``error.problem`` (and printed in the
message) so the failure comes with its reproducer.
:class:`~repro.ilp.engine.EngineLimitError` (the ``node_limit`` budget ran
out) propagates as itself.

The independent reference the tests and the nightly sweep compare against is
a plain function, :func:`repro.ilp.branch_bound.solve_lexicographic`; nothing
in a compile calls it or imports its module (the encoding both share is
:mod:`repro.ilp.encode`, which the reference imports).

The search is depth-first branch & bound on the calling thread; its one knob,
``node_limit`` on :class:`~repro.ilp.options.SolverOptions`, bounds the nodes
of one objective stage.  There is one call site in a compile, the scheduler's
``PolyTOPSScheduler._solve`` (under ``SchedulerConfig.solver_options``).
Emptiness probes do not come through here: ``polyhedra.emptiness._probe``
asks :meth:`~repro.ilp.engine.IncrementalIlpEngine.probe` of a root it keeps
(default node limit).
"""

from __future__ import annotations

from .engine import (
    EngineError,
    EngineLimitError,
    EngineStatistics,
    IncrementalIlpEngine,
)
from .options import SolverOptions
from .problem import LinearProblem
from .solution import IlpSolution

__all__ = ["IlpSolution", "IlpSolver"]


class IlpSolver:
    """Solve :class:`LinearProblem` instances with lexicographic objectives.

    ``options`` defaults to ``SolverOptions()``; the solver aggregates the
    engine statistics of every problem it solves.
    """

    def __init__(self, options: SolverOptions | None = None):
        self.options = options if options is not None else SolverOptions()
        self.node_limit = self.options.node_limit
        self.statistics = EngineStatistics()

    def solve(self, problem: LinearProblem) -> IlpSolution | None:
        """Return the lexicographically optimal solution, or ``None`` when infeasible.

        Raises :class:`EngineLimitError` when a stage exhausts ``node_limit``
        and :class:`EngineError` (with ``error.problem is problem``) on an
        internal inconsistency of the engine.
        """
        try:
            return IncrementalIlpEngine(
                problem, self.node_limit, stats=self.statistics
            ).solve()
        except EngineLimitError:
            raise
        except EngineError as error:
            raise EngineError(f"{error}\nwhile solving {problem}", problem) from error
