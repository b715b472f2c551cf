"""Persistent solver state shared by every dimension of one scheduling run.

Algorithm 1 solves a sequence of near-identical ILPs: the legality block of a
band is shared by all of its dimensions, the bounding rows of the proximity
cost only depend on the dependence, and the same solver serves every
dimension.  :class:`SolverContext` is the object that survives across those
solves.  It owns

* the :class:`~repro.ilp.solver.IlpSolver` (and therefore the incremental
  engine's aggregated statistics **and** the run-wide branch & bound worker
  pool: ``workers=N`` spins the pool up once and every scheduling dimension
  reuses it),
* the cached constraint-row blocks, keyed per family ("legality",
  "proximity", ...) by a **stable dependence index** — the context interns
  every dependence it sees and holds a strong reference, so the index can
  never be confused by a recycled ``id()`` the way the historical
  ``id(dependence)``-keyed caches could be.

(Variable-name interning itself lives one layer down: the indexed
Fourier–Motzkin/Farkas core and the engine's standard-form encoder each
intern their own column spaces per linearisation/problem.)
"""

from __future__ import annotations

from fractions import Fraction

from ..deps.dependence import Dependence
from ..ilp.options import SolverOptions
from ..ilp.solver import IlpSolver
from ..obs import active_tracer
from ..polyhedra.sparse_fm import FmStatistics

__all__ = ["SolverContext"]

#: Engine counters attached (as exact per-solve deltas) to every
#: ``ilp.solve`` span.  One tuple so the traced and untraced paths can never
#: drift apart on which counters they snapshot.
_SOLVE_SPAN_COUNTERS = (
    "pivots",
    "phase1_pivots",
    "nodes",
    "warm_start_hits",
)

IlpRow = tuple[dict[str, Fraction], str, Fraction]


class SolverContext:
    """Solver, row-block caches and variable interning for one scheduling run."""

    def __init__(
        self,
        dependences: tuple[Dependence, ...] | list[Dependence] = (),
        options: SolverOptions | None = None,
        tracer=None,
    ):
        self.solver = IlpSolver(options=options)
        self.row_caches: dict[str, dict[int, list[IlpRow]]] = {}
        self._dependence_index: dict[int, int] = {}
        self._dependences: list[Dependence] = []
        self.solve_calls = 0
        #: Per-run Fourier–Motzkin/Farkas counters.  Every linearisation of
        #: this run threads this object down to the elimination cores, so the
        #: numbers are exact even when several scheduling runs execute
        #: concurrently in one process.
        self.fm_stats = FmStatistics()
        #: The tracer the run's ILP solves record spans against; resolved at
        #: construction time (the schedule stage runs with the session tracer
        #: activated), injectable for tests.
        self.tracer = tracer if tracer is not None else active_tracer()
        for dependence in dependences:
            self.intern_dependence(dependence)

    # ------------------------------------------------------------------ #
    # Dependence interning
    # ------------------------------------------------------------------ #
    def intern_dependence(self, dependence: Dependence) -> int:
        """Stable index of *dependence* for this run.

        The context keeps a strong reference to every interned dependence, so
        the identity-to-index mapping stays valid for the context's lifetime
        (a garbage-collected dependence can never leak its index to a new
        object).
        """
        key = id(dependence)
        index = self._dependence_index.get(key)
        if index is None:
            index = len(self._dependences)
            self._dependence_index[key] = index
            self._dependences.append(dependence)
        return index

    @property
    def interned_dependences(self) -> tuple[Dependence, ...]:
        return tuple(self._dependences)

    # ------------------------------------------------------------------ #
    # Row-block caches
    # ------------------------------------------------------------------ #
    def block_cache(self, family: str) -> dict[int, list[IlpRow]]:
        """The per-dependence row cache of one constraint family."""
        return self.row_caches.setdefault(family, {})

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, problem):
        """Solve through the shared solver (counts the call).

        When a tracer is active, every solve records an ``ilp.solve`` span
        with the engine-counter deltas (pivots, nodes, warm-start hits) it
        caused — tracing never changes what the solver does.
        """
        if not self.tracer.enabled:
            return self._solve(problem)
        statistics = self.solver.statistics
        with self.tracer.span(
            "ilp.solve", category="ilp", solve_call=self.solve_calls + 1
        ) as span:
            before = {
                name: getattr(statistics, name) for name in _SOLVE_SPAN_COUNTERS
            }
            solution = self._solve(problem)
            for name in _SOLVE_SPAN_COUNTERS:
                span.set(name, getattr(statistics, name) - before[name])
            span.set("feasible", solution is not None)
        return solution

    def _solve(self, problem):
        self.solve_calls += 1
        return self.solver.solve(problem)

    def statistics(self) -> dict[str, int | float]:
        """Aggregated solver counters for this run (engine + oracle path).

        The ``fm_*`` keys are this run's Fourier–Motzkin/Farkas elimination
        work: rows generated, rows pruned by the sparse core's redundancy
        filters, and rows emitted to the ILP encoder.
        """
        summary = self.solver.statistics_summary()
        summary["solve_calls"] = self.solve_calls
        summary.update(self.fm_stats.as_dict())
        return summary

    def close(self) -> None:
        """Release the run's worker pool (no-op for sequential runs)."""
        self.solver.close()
