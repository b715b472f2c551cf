"""The station every scheduling solve of one run goes through.

Algorithm 1 solves a sequence of near-identical ILPs under one set of solver
options.  :class:`SolverContext` carries those options across the dimensions
of a run and is where a scheduling solve is counted: each
:meth:`SolverContext.solve` runs the engine on its own
:class:`~repro.ilp.engine.EngineStatistics` and reports them to the work
ledger (:mod:`repro.obs.ledger`) once, under the ``ilp.solve`` span.  The run
keeps no totals of its own — :meth:`PolyTOPSScheduler.schedule` reads them off
the ledger scope it opens, next to the Fourier–Motzkin work of
:func:`~repro.polyhedra.farkas.farkas_nonnegative` and the answers a
:class:`~repro.deps.dependence.Dependence` remembered.

It owns no constraint rows either: the legality and bounding blocks outlive
the run on the dependence they were linearised over
(:mod:`repro.scheduler.legality`), so the next strategy scheduling the same
kernel finds them there.
"""

from __future__ import annotations

from ..deps.dependence import PROBE_VERDICTS_REUSED
from ..ilp.engine import EngineStatistics
from ..ilp.options import SolverOptions
from ..ilp.solver import IlpSolver
from ..obs import active_tracer, count
from ..polyhedra.sparse_fm import FmStatistics
from .legality import FARKAS_BLOCKS_REUSED

__all__ = ["SolverContext", "NO_WORK"]

#: What a run that solved, linearised and remembered nothing reports: every
#: name a scheduling run's units count under, at zero.
NO_WORK: dict[str, int | float] = {
    **EngineStatistics().as_dict(),
    "solve_calls": 0,
    **FmStatistics().as_dict(),
    PROBE_VERDICTS_REUSED: 0,
    FARKAS_BLOCKS_REUSED: 0,
}


class SolverContext:
    """Solver options of one scheduling run; its solves are counted here."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options

    def solve(self, problem):
        """Solve *problem* and count the engine work it took.

        ``solve_calls`` counts the ask; the engine's own counters (``solves``,
        ``pivots``, ``nodes``, the FTRAN/BTRAN/refactor seconds, ...) follow
        under their :class:`~repro.ilp.engine.EngineStatistics` names, so the
        ``ilp.solve`` span of a traced run carries exactly this solve's work.
        """
        solver = IlpSolver(self.options)
        with active_tracer().span("ilp.solve", category="ilp") as span:
            solution = solver.solve(problem)
            count("solve_calls")
            for name, amount in solver.statistics.as_dict().items():
                count(name, amount)
            span.set("feasible", solution is not None)
        return solution
