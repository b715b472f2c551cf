"""Persistent solver state shared by every dimension of one scheduling run.

Algorithm 1 solves a sequence of near-identical ILPs: the legality block of a
band is shared by all of its dimensions, the bounding rows of the proximity
cost only depend on the dependence, and the same solver serves every
dimension.  :class:`SolverContext` is the object that survives across those
solves.  It owns

* the :class:`~repro.ilp.solver.IlpSolver` (and therefore the incremental
  engine's aggregated statistics),
* the run's counters: Fourier–Motzkin/Farkas work done (``fm_stats``) and
  work *not* done because a dependence remembered the answer (``reuse``).

It owns no constraint rows: the legality and bounding blocks outlive the run
on the :class:`~repro.deps.dependence.Dependence` they were linearised over
(:mod:`repro.scheduler.legality`), so the next strategy scheduling the same
kernel finds them there.
"""

from __future__ import annotations

from ..deps.dependence import PROBE_VERDICTS_REUSED
from ..ilp.options import SolverOptions
from ..ilp.solver import IlpSolver
from ..obs import active_tracer
from ..polyhedra.sparse_fm import FmStatistics
from .legality import FARKAS_BLOCKS_REUSED

__all__ = ["SolverContext"]

#: Engine counters attached (as exact per-solve deltas) to every
#: ``ilp.solve`` span.  One tuple so the traced and untraced paths can never
#: drift apart on which counters they snapshot.
_SOLVE_SPAN_COUNTERS = (
    "pivots",
    "phase1_pivots",
    "nodes",
    "warm_start_hits",
    "refactorizations",
    "eta_entries",
)
#: Leaf times of the basis linear algebra over the same window, attached as
#: (float) attributes: where inside the solve the wall went.
_SOLVE_SPAN_SECONDS = ("ftran_seconds", "btran_seconds", "refactor_seconds")


class SolverContext:
    """Solver and work counters of one scheduling run."""

    def __init__(self, options: SolverOptions | None = None, tracer=None):
        self.solver = IlpSolver(options=options)
        #: Per-run Fourier–Motzkin/Farkas counters.  Every linearisation of
        #: this run threads this object down to the elimination cores, so the
        #: numbers are exact even when several scheduling runs execute
        #: concurrently in one process.
        self.fm_stats = FmStatistics()
        #: Answers this run was handed from a dependence's memo (the
        #: ``reuse=`` sink of its predicates and of the Farkas row builders).
        self.reuse = {PROBE_VERDICTS_REUSED: 0, FARKAS_BLOCKS_REUSED: 0}
        #: The tracer the run's ILP solves record spans against; resolved at
        #: construction time (the schedule stage runs with the session tracer
        #: activated), injectable for tests.
        self.tracer = tracer if tracer is not None else active_tracer()

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, problem):
        """Solve through the shared solver.

        When a tracer is active, every solve records an ``ilp.solve`` span
        with the engine-counter deltas (pivots, nodes, warm-start hits) it
        caused and the FTRAN/BTRAN/refactor seconds it spent — tracing never
        changes what the solver does.
        """
        if not self.tracer.enabled:
            return self.solver.solve(problem)
        statistics = self.solver.statistics
        names = _SOLVE_SPAN_COUNTERS + _SOLVE_SPAN_SECONDS
        with self.tracer.span(
            "ilp.solve", category="ilp", solve_call=statistics.solves + 1
        ) as span:
            before = [getattr(statistics, name) for name in names]
            solution = self.solver.solve(problem)
            for name, value in zip(names, before):
                span.set(name, getattr(statistics, name) - value)
            span.set("feasible", solution is not None)
        return solution

    def statistics(self) -> dict[str, int | float]:
        """Aggregated solver counters for this run.

        The ``fm_*`` keys are the Fourier–Motzkin/Farkas elimination work
        *done in this run*: rows generated, rows pruned by the sparse core's
        redundancy filters, and rows emitted to the ILP encoder.  A block a
        dependence remembered (from an earlier dimension, strategy or
        compile) adds nothing to them and one to ``farkas_blocks_reused``;
        ``probe_verdicts_reused`` counts the satisfaction/parallelism probes
        answered the same way.
        """
        summary = self.solver.statistics_summary()
        summary["solve_calls"] = summary["solves"]
        summary.update(self.fm_stats.as_dict())
        summary.update(self.reuse)
        return summary
