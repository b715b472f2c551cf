"""Lexicographic ILP driver.

The scheduler's per-dimension problems carry an ordered list of objectives
(cost functions followed by tie-breakers).  They are minimised one after the
other: each stage's optimum is frozen as an equality constraint before the next
stage is solved, exactly like the lexicographic minimisation performed by the
ILP back-ends of Pluto and isl.

Two execution paths implement that contract, selected by the ``engine`` field
of :class:`~repro.ilp.options.SolverOptions` (the one object carrying all five
solver knobs: ``engine``, ``core``, ``workers``, ``processes``,
``node_limit``):

* ``engine="incremental"`` (the default) — the stateful
  :class:`repro.ilp.engine.IncrementalIlpEngine`: the problem is encoded to
  standard form once, phase 1 runs once, objective stages re-use the previous
  basis and branch & bound children are warm-started with the dual simplex.
* ``engine="oracle"`` — the retained dense path: one cold
  :func:`repro.ilp.branch_bound.solve_milp` call per objective stage.  It is
  the reference implementation the differential tests validate the engine
  against, and the automatic fallback when the engine reports an internal
  inconsistency (:class:`repro.ilp.engine.EngineError`).

Passing an explicit LP ``backend`` forces the oracle path, since backends only
apply to the cold relaxation solves.  The ``REPRO_ILP_ENGINE`` environment
variable overrides the default choice process-wide (useful for A/B timing and
for differential CI runs).

The incremental engine itself runs on one of two simplex cores
(``core="revised"`` / ``core="tableau"``, or ``REPRO_ILP_CORE``): the sparse
revised-simplex core with a factored basis is the default, and the dense
integer tableau is retained as the differential reference.  Pivot sequences
are bit-identical between the two, so the choice only affects speed and
memory, never results.

``workers=N`` (or ``REPRO_ILP_WORKERS=N``) turns on the parallel branch &
bound layer (:mod:`repro.ilp.parallel`): sibling subtrees are dispatched
across a worker pool that lives as long as the solver — one pool serves every
scheduling dimension of a run — while a shared, deterministically tie-broken
incumbent keeps the results bit-identical to ``workers=1``.
``processes=True`` (or ``REPRO_ILP_PROCESSES=1``) opts the pool into forked
workers for CPU-bound corpora where the GIL serialises thread workers.
"""

from __future__ import annotations

from fractions import Fraction

from .branch_bound import MilpResult, solve_milp
from .engine import (
    EngineError,
    EngineLimitError,
    EngineStatistics,
    IncrementalIlpEngine,
)
from .options import SolverOptions
from .problem import ConstraintSense, LinearProblem
from .simplex import LpStatus
from .solution import IlpSolution

__all__ = ["IlpSolution", "IlpSolver"]


class IlpSolver:
    """Solve :class:`LinearProblem` instances with lexicographic objectives.

    All knobs live on one frozen :class:`SolverOptions` object
    (``IlpSolver(options=SolverOptions(...))``); without one the
    ``REPRO_ILP_*`` environment supplies the defaults.
    """

    def __init__(self, backend=None, options: SolverOptions | None = None):
        resolved = options if options is not None else SolverOptions.from_env()
        self.backend = backend
        if backend is not None:
            if options is not None and resolved.engine != "oracle":
                raise ValueError(
                    "an explicit LP backend only applies to the oracle path; "
                    "drop the backend or pass SolverOptions(engine='oracle')"
                )
            resolved = resolved.with_overrides(engine="oracle")
        self.options = resolved
        self.engine = resolved.engine
        self.core = resolved.core
        self.workers = resolved.workers
        self.processes = resolved.processes
        self.node_limit = resolved.node_limit
        self._pool = None
        self.solve_count = 0
        self.oracle_solve_count = 0
        self.engine_fallbacks = 0
        self.oracle_nodes = 0
        self.oracle_iterations = 0
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
        """Return the lexicographically optimal solution, or ``None`` when infeasible."""
        if self.engine == "incremental":
            try:
                engine = IncrementalIlpEngine(
                    problem,
                    self.node_limit,
                    stats=self.statistics,
                    workers=self.workers,
                    pool=self.pool,
                    use_processes=self.processes,
                    core=self.core,
                )
                solution = engine.solve()
                self.solve_count += 1
                return solution
            except EngineLimitError as error:
                # The oracle would grind through the same exponential
                # search; fail fast with its error instead of solving
                # twice.
                raise RuntimeError(str(error)) from error
            except EngineError:
                self.engine_fallbacks += 1
        return self._solve_oracle(problem)

    def is_feasible(self, problem: LinearProblem) -> bool:
        """True when the problem admits at least one integer point."""
        stripped = problem.copy()
        stripped.objectives = []
        return self.solve(stripped) is not None

    def statistics_summary(self) -> dict[str, int | float]:
        """Aggregated counters across every solve of this solver instance."""
        summary: dict[str, int | float] = dict(self.statistics.as_dict())
        summary["lex_solves"] = self.solve_count
        summary["oracle_solves"] = self.oracle_solve_count
        summary["oracle_nodes"] = self.oracle_nodes
        summary["oracle_iterations"] = self.oracle_iterations
        summary["engine_fallbacks"] = self.engine_fallbacks
        summary["workers"] = self.workers
        summary["worker_mode"] = "process" if self.processes else "thread"
        summary["simplex_core"] = self.core
        return summary

    # ------------------------------------------------------------------ #
    # Retained dense oracle path
    # ------------------------------------------------------------------ #
    def _solve_oracle(self, problem: LinearProblem) -> IlpSolution | None:
        # One lexicographic solve, regardless of how many MILP stages it takes
        # (the engine path counts the same way, so the units stay comparable).
        self.solve_count += 1
        working = problem.copy()
        objective_values: list[Fraction] = []
        last_result: MilpResult | None = None

        if not working.objectives:
            result = solve_milp(working, None, self.node_limit, self.backend)
            self._record_oracle(result)
            if result.status is not LpStatus.OPTIMAL:
                return None
            return IlpSolution(result.assignment, [])

        for objective in working.objectives:
            result = solve_milp(working, objective, self.node_limit, self.backend)
            self._record_oracle(result)
            if result.status is LpStatus.INFEASIBLE:
                return None
            if result.status is LpStatus.UNBOUNDED:
                raise ValueError(
                    "objective is unbounded below; scheduling variables must be bounded"
                )
            assert result.objective is not None
            objective_values.append(result.objective)
            working.add_constraint(objective, ConstraintSense.EQ, result.objective)
            last_result = result

        assert last_result is not None
        return IlpSolution(last_result.assignment, objective_values)

    def _record_oracle(self, result: MilpResult) -> None:
        self.oracle_solve_count += 1
        self.oracle_nodes += result.nodes
        self.oracle_iterations += result.iterations
