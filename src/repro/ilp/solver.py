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
in a compile calls it.

The three knobs live on :class:`~repro.ilp.options.SolverOptions`:
``workers=N`` (or ``REPRO_ILP_WORKERS=N``) turns on the parallel branch &
bound layer (:mod:`repro.ilp.parallel`): sibling subtrees are dispatched
across a worker pool that lives as long as the solver — one pool serves every
scheduling dimension of a run — while a shared, deterministically tie-broken
incumbent keeps the results bit-identical to ``workers=1``.
``processes=True`` (or ``REPRO_ILP_PROCESSES=1``) opts the pool into forked
workers for CPU-bound corpora where the GIL serialises thread workers.
``node_limit`` bounds the branch & bound nodes of one stage.
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

    All knobs live on one frozen :class:`SolverOptions` object
    (``IlpSolver(options=SolverOptions(...))``); without one the
    ``REPRO_ILP_*`` environment supplies the defaults.
    """

    def __init__(self, options: SolverOptions | None = None):
        resolved = options if options is not None else SolverOptions.from_env()
        self.options = resolved
        self.workers = resolved.workers
        self.processes = resolved.processes
        self.node_limit = resolved.node_limit
        self._pool = None
        self.solve_count = 0
        self.statistics = EngineStatistics()

    # ------------------------------------------------------------------ #
    # Worker pool (shared across every solve of this solver's lifetime)
    # ------------------------------------------------------------------ #
    @property
    def pool(self):
        """The run-wide worker pool (``None`` while ``workers == 1``)."""
        if self.workers > 1 and self._pool is None:
            from .parallel import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the solver stays usable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def solve(self, problem: LinearProblem) -> IlpSolution | None:
        """Return the lexicographically optimal solution, or ``None`` when infeasible.

        Raises :class:`EngineLimitError` when a stage exhausts ``node_limit``
        and :class:`EngineError` (with ``error.problem is problem``) on an
        internal inconsistency of the engine.
        """
        try:
            solution = IncrementalIlpEngine(
                problem,
                self.node_limit,
                stats=self.statistics,
                workers=self.workers,
                pool=self.pool,
                use_processes=self.processes,
            ).solve()
        except EngineLimitError:
            raise
        except EngineError as error:
            raise EngineError(f"{error}\nwhile solving {problem}", problem) from error
        self.solve_count += 1
        return solution

    def is_feasible(self, problem: LinearProblem) -> bool:
        """True when the problem admits at least one integer point."""
        stripped = problem.copy()
        stripped.objectives = []
        return self.solve(stripped) is not None

    def statistics_summary(self) -> dict[str, int | float]:
        """Aggregated counters across every solve of this solver instance."""
        summary: dict[str, int | float] = dict(self.statistics.as_dict())
        summary["lex_solves"] = self.solve_count
        summary["workers"] = self.workers
        summary["worker_mode"] = "process" if self.processes else "thread"
        return summary
