"""The PolyTOPS iterative scheduler (Algorithm 1 of the paper).

The scheduler finds the schedule dimension by dimension, outermost first.  At
every dimension it either applies a distribution decided by the configuration
(or by the dimensionality heuristic), or solves one ILP combining

* weak legality for every *active* dependence (Eq. 2),
* the progression constraint for every unfinished statement (Eq. 3),
* custom constraints and (droppable) directive constraints,
* the configured cost functions as lexicographic objectives.

Dependences stay active (i.e. keep contributing weak-legality constraints,
which is what makes bands permutable/tilable) until the current band is
closed; a band closes when the ILP becomes infeasible, after a distribution
dimension, or after a dimension recomputed with the Feautrier fallback.

One pass of the loop in :meth:`PolyTOPSScheduler._schedule` is one step of
Algorithm 1, in this order:

1. *All statements complete*: drop the satisfied dependences and distribute
   along the SCCs of what is left, or stop.
2. *isl-style recompute* (Listing 3): a strategy callback may undo the last
   ILP row (:meth:`_Run.restore`) to solve it again with other cost functions.
3. *Configured or heuristic distribution* (Listing 2 ``fusion``, the
   dimensionality heuristic): one constant row per statement.
4. *The ILP* of the dimension; when it fails, the band closes (satisfied
   dependences leave the active set) and the ILP is retried once.
5. *SCC fallback* (lines 32-36): when the retry fails too, statements are
   distributed along the strongly connected components of the remaining
   dependence graph.  If no progress is possible at all the scheduler falls
   back to the original schedule (exactly like Pluto does on kernels such as
   nussinov or deriche), unless the blockage comes from user-provided custom
   constraints or fusion directives, in which case a :class:`SchedulingError`
   is raised.

Steps 1, 3 and 5 are one :meth:`_distribute` step; the state of a run is one
:class:`_Run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..deps.analysis import compute_dependences, deduplicate_dependences
from ..deps.dependence import PROBE_VERDICTS_REUSED, Dependence
from ..ilp.engine import EngineStatistics, IncrementalIlpEngine
from ..ilp.options import SolverOptions
from ..ilp.problem import LinearConstraint, LinearProblem
from ..ilp.solution import IlpSolution
from ..model.schedule import Schedule, StatementSchedule
from ..model.scop import Scop
from ..obs import active_tracer, count, ledger
from ..polyhedra.affine import AffineExpr
from ..polyhedra.emptiness import probe_scope
from ..polyhedra.sparse_fm import FmStatistics
from .config import DimensionConfig, SchedulerConfig, StrategyDecision, StrategyState
from .custom_constraints import CustomConstraintParser
from .directives import DirectiveManager
from .errors import SchedulingError
from .fusion import DistributionDecision, FusionController
from .ilp_builder import IlpBuilder
from .legality import FARKAS_BLOCKS_REUSED
from .naming import constant_coefficient, iterator_coefficient, parameter_coefficient
from .progression import ProgressionState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..pipeline.session import Session

__all__ = ["PolyTOPSScheduler", "SchedulingResult"]

#: Scheduling ILPs a run asked and its session answered from an earlier solve.
ILP_SOLUTIONS_REUSED = "ilp_solutions_reused"

#: Runs of Algorithm 1 the session answered from an earlier run (0 or 1).
SCHEDULES_REUSED = "schedules_reused"

#: The engine counters a remembered solution counts again (not the seconds).
_ENGINE_COUNTS = tuple(
    name for name, value in EngineStatistics().as_dict().items() if isinstance(value, int)
)

#: What a run that solved, linearised and remembered nothing reports: every
#: name a scheduling run's units count under, at zero.
NO_WORK: dict[str, int | float] = {
    **EngineStatistics().as_dict(),
    "solve_calls": 0,
    ILP_SOLUTIONS_REUSED: 0,
    SCHEDULES_REUSED: 0,
    **FmStatistics().as_dict(),
    PROBE_VERDICTS_REUSED: 0,
    FARKAS_BLOCKS_REUSED: 0,
}


#: What the session keeps under a configuration's key when its run read the
#: parameter values: the answer itself is kept under the key plus the values.
_READS_VALUES = "reads parameter values"


class _RecordedValues(Mapping[str, int]):
    """The resolved parameter values as a run reads them: ``read`` says
    whether anything did (a ``dict()`` copy reads every value)."""

    def __init__(self, values: Mapping[str, int]):
        self._values = values
        self.read = False

    def __getitem__(self, name: str) -> int:
        self.read = True
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        self.read = True
        return iter(self._values)

    def __len__(self) -> int:
        self.read = True
        return len(self._values)


@dataclass(frozen=True)
class _Answer:
    """What a session keeps of one run: the outcome and the integer counts
    of its ledger scope (``ilp_solutions_reused`` set to ``solve_calls``:
    a replay answers every ILP).  Never handed out: each caller gets copies."""

    schedule: Schedule
    satisfaction_dimension: dict[int, int]
    fallback_to_original: bool
    counts: tuple[tuple[str, int], ...]


@dataclass
class SchedulingResult:
    """Outcome of a scheduling run.

    ``statistics`` mixes scheduler-level facts (``dimensions``,
    ``dependences``) with the work counted while the run was scheduling, read
    off its work-ledger scope: ``schedules_reused`` (1 when the session
    answered the whole run, whose counts are then counted again), the
    scheduling solves (``solve_calls`` asked,
    ``ilp_solutions_reused`` of them answered by the session; ``solves``,
    ``pivots``, ``nodes``, encode/solve seconds, ... of the engine, the counts
    of a reused solution included), the Farkas eliminations (``fm_*``),
    the remembered answers (``probe_verdicts_reused``,
    ``farkas_blocks_reused``) and the engine work of the run's emptiness
    probes (``probe_*``).
    """

    schedule: Schedule
    dependences: list[Dependence]
    satisfaction_dimension: dict[int, int] = field(default_factory=dict)
    fallback_to_original: bool = False
    statistics: dict[str, int | float] = field(default_factory=dict)


@dataclass
class _Run:
    """The state of one run of Algorithm 1.

    ``rows`` holds every statement's schedule rows so far, ``bands`` and
    ``parallel`` one entry per dimension, ``active`` the dependences (indices)
    still constraining the current band, ``satisfied`` the dimension that
    strongly satisfies each carried dependence (in the order they were
    carried), ``band`` the current band, ``dimension`` the next schedule
    dimension, and ``undo`` the snapshot taken before the last ILP row while
    that row may still be recomputed (``None`` after a distribution).
    """

    progression: ProgressionState
    rows: dict[str, list[AffineExpr]]
    active: list[int]
    bands: list[int] = field(default_factory=list)
    parallel: list[bool] = field(default_factory=list)
    satisfied: dict[int, int] = field(default_factory=dict)
    band: int = 0
    dimension: int = 0
    last_parallel: bool | None = None
    undo: int | None = None

    def drop_satisfied(self) -> bool:
        """Close the band's bookkeeping: satisfied dependences leave ``active``."""
        kept = [index for index in self.active if index not in self.satisfied]
        dropped = len(kept) < len(self.active)
        self.active = kept
        return dropped

    def snapshot(self) -> None:
        """Remember the state just before an ILP row is appended."""
        self.undo = len(self.satisfied)

    def restore(self) -> None:
        """Undo the ILP row appended since :meth:`snapshot`.

        That is one row and one progression record per statement, one band
        and parallel entry, and the dependences it carried (the newest entries
        of ``satisfied``).  The band counter stays where it is.
        """
        for name, rows in self.rows.items():
            rows.pop()
            self.progression.pop(name)
        self.bands.pop()
        self.parallel.pop()
        while len(self.satisfied) > self.undo:
            self.satisfied.popitem()
        self.dimension -= 1
        self.undo = None


class PolyTOPSScheduler:
    """Configurable iterative polyhedral scheduler."""

    def __init__(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        dependences: Sequence[Dependence] | None = None,
        parameter_values: Mapping[str, int] | None = None,
        session: "Session | None" = None,
    ):
        self.scop = scop
        #: The session whose remembered runs and ILP solutions the scheduler
        #: asks first (``None``: every ILP goes to the engine).
        self.session = session
        self.config = config or SchedulerConfig(name="pluto-style")
        #: Whole runs are remembered only on the session's own dependences
        #: of the SCoP: a run on any other list is not one of its answers.
        self._remembers_runs = session is not None and session.keeps_dependences(
            scop, dependences
        )
        raw_dependences = (
            list(dependences) if dependences is not None else compute_dependences(scop)
        )
        # Dependences that only differ by their kind (RAW/WAR/WAW on the same
        # access pair) impose identical scheduling constraints; keep one
        # representative each to keep the ILPs small.
        self.dependences = deduplicate_dependences(raw_dependences)
        self.parameter_values = (
            scop.resolved_parameters(parameter_values) if scop.parameters else {}
        )
        self.statements = list(scop.statements)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def schedule(self) -> SchedulingResult:
        """Run Algorithm 1 and return the resulting schedule.

        A scheduler built with a session on the session's dependences asks
        it first for the whole run (:meth:`_answer`); a remembered run is
        counted as ``schedules_reused`` and counts its work again, not its
        seconds.
        """
        if not self.statements:
            return SchedulingResult(Schedule(), [], {}, False, {})
        # Joined (or opened): the bookkeeping probes one root per dependence.
        with ledger() as work, probe_scope():
            answer, reused = self._answer(work)
            if reused:
                count(SCHEDULES_REUSED)
                for name, amount in answer.counts:
                    count(name, amount)
        # Copies: the postprocess stage writes ``parallel_dims`` in place.
        schedule = answer.schedule.copy()
        return SchedulingResult(
            schedule,
            list(self.dependences),
            dict(answer.satisfaction_dimension),
            answer.fallback_to_original,
            {
                "dimensions": schedule.n_dims,
                "dependences": len(self.dependences),
                **NO_WORK,
                **work,
            },
        )

    def _answer(self, work: dict) -> tuple[_Answer, bool]:
        """The run's answer, and whether the session already had it.

        Keyed on ``("schedule", config_fingerprint, strategy_callback)``,
        through :meth:`~repro.pipeline.session.Session.remembered`.  A run
        takes the same steps at any parameter values unless it reads them,
        so the answer of a run that never read them is kept under the key
        itself; one that did keeps :data:`_READS_VALUES` there and the
        answer under the key plus the values.  A :class:`SchedulingError`
        propagates and is never remembered.
        """
        ran = False

        def run() -> tuple[_Answer, bool]:
            nonlocal ran
            values = _RecordedValues(self.parameter_values)
            result = self._schedule(values)
            ran = True
            counts = {name: amount for name, amount in work.items() if isinstance(amount, int)}
            counts[ILP_SOLUTIONS_REUSED] = counts.get("solve_calls", 0)
            answer = _Answer(
                result.schedule,
                result.satisfaction_dimension,
                result.fallback_to_original,
                tuple(counts.items()),
            )
            return answer, values.read

        if not self._remembers_runs:
            return run()[0], False
        # Imported here: the pipeline package imports this module.
        from ..pipeline.fingerprint import config_fingerprint, parameter_values_key

        key = ("schedule", config_fingerprint(self.config), self.config.strategy_callback)
        valued_key = (key, parameter_values_key(self.scop, self.parameter_values))

        def keyed() -> _Answer | str:
            answer, read = run()
            if not read:
                return answer
            self.session.remembered(self.scop, valued_key, lambda: answer)
            return _READS_VALUES

        answer = self.session.remembered(self.scop, key, keyed)
        if answer is _READS_VALUES:
            answer = self.session.remembered(self.scop, valued_key, lambda: run()[0])
        return answer, not ran

    def _schedule(self, parameter_values: Mapping[str, int]) -> SchedulingResult:
        directives = DirectiveManager(self.config, self.statements)
        fusion = FusionController(self.config, self.statements)
        builder = IlpBuilder(self.scop, self.config, parameter_values)
        parser = CustomConstraintParser(self.statements, self.config.new_variables)
        run = _Run(
            ProgressionState(self.statements),
            {s.name: [] for s in self.statements},
            list(range(len(self.dependences))),
        )
        last_recomputed = False
        max_dimensions = 2 * self.scop.max_depth() + len(self.statements) + 4

        while True:
            if run.progression.all_complete():
                # --- 1. Every statement has a full-rank schedule: what is left
                # needs constant dimensions.  Dependences the SCCs do not split
                # are weakly ordered by the complete schedule (legality held at
                # every dimension), so the schedule is legal as it is.
                run.drop_satisfied()
                remaining = self._active(run)
                distribution = fusion.scc_distribution(remaining) if remaining else None
                if distribution is None:
                    break
                self._distribute(run, distribution)
                continue
            if run.dimension > max_dimensions:
                return self._fallback(run, directives)

            # --- 2. Dynamic ("C++-style") strategy callback, which may recompute.
            decision: StrategyDecision | None = None
            if self.config.strategy_callback is not None:
                decision = self.config.strategy_callback(
                    StrategyState(
                        dimension=run.dimension,
                        last_dimension_parallel=run.last_parallel,
                        last_dimension_recomputed=last_recomputed,
                        active_dependences=len(run.active),
                        rows_so_far={name: list(r) for name, r in run.rows.items()},
                        statements=[s.name for s in self.statements],
                    )
                )
                if (
                    decision is not None
                    and decision.recompute_last
                    and not last_recomputed
                    and run.undo is not None
                ):
                    run.restore()
                    last_recomputed = True
                else:
                    last_recomputed = False

            dimension_config = self.config.dimension_config(run.dimension)
            if decision is not None and decision.cost_functions is not None:
                dimension_config = replace(
                    dimension_config, cost_functions=tuple(decision.cost_functions)
                )
            custom_texts = list(self.config.constraints_for(run.dimension))
            if decision is not None and decision.constraints is not None:
                custom_texts.extend(decision.constraints)

            active_objects = self._active(run)

            # --- 3. Distribution requested by the configuration or the heuristic.
            distribution = fusion.configured_distribution(run.dimension, active_objects)
            if distribution is None and not last_recomputed:
                distribution = fusion.dimensionality_distribution(run.dimension, active_objects)
            if distribution is not None:
                self._distribute(run, distribution)
                continue

            # --- 4. The standard ILP step.  One span per scheduling
            # dimension: the per-solve ``ilp.solve`` spans (and the FM spans
            # of any block linearised on this dimension) nest inside it.
            custom_rows = parser.parse_all(custom_texts)
            directive_rows = directives.plan_for_dimension(
                run.dimension, run.progression, active_objects
            )

            with active_tracer().span(
                "scheduler.dimension",
                category="scheduler",
                dimension=run.dimension,
                band=run.band,
                active_dependences=len(run.active),
            ) as dimension_span:
                solution = self._solve_dimension(
                    builder, run, dimension_config, custom_rows, directive_rows
                )
                if solution is None:
                    # Close the band: drop strongly satisfied dependences, retry once.
                    run.band += 1
                    if run.drop_satisfied():
                        solution = self._solve_dimension(
                            builder, run, dimension_config, custom_rows, directive_rows
                        )
                dimension_span.set("solved", solution is not None)
                dimension_span.set(
                    "ilp.memo_hit", dimension_span.counters.get(ILP_SOLUTIONS_REUSED, 0)
                )

            if solution is not None:
                self._append_solution(run, solution)
                if last_recomputed:
                    # A Feautrier-style recomputation carries dependences: close the band.
                    run.drop_satisfied()
                    run.band += 1
                continue

            # --- 5. SCC-based distribution fallback.
            distribution = fusion.scc_distribution(self._active(run))
            if distribution is None:
                if custom_texts or self.config.fusion:
                    raise SchedulingError(
                        "no legal schedule exists under the provided custom "
                        "constraints / fusion directives"
                    )
                return self._fallback(run, directives)
            self._distribute(run, distribution)

        schedule = Schedule(
            statements={
                s.name: StatementSchedule(s.name, tuple(run.rows[s.name]))
                for s in self.statements
            },
            bands=run.bands,
            parallel_dims=run.parallel,
            vectorized=dict(directives.vector_iterators),
            sequential=directives.sequential_statements,
        )
        return SchedulingResult(schedule.padded(), list(self.dependences), run.satisfied, False)

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #
    def _active(self, run: _Run) -> list[Dependence]:
        return [self.dependences[index] for index in run.active]

    def _solve_dimension(
        self,
        builder: IlpBuilder,
        run: _Run,
        dimension_config: DimensionConfig,
        custom_rows: list[LinearConstraint],
        directive_rows: list[LinearConstraint],
    ) -> IlpSolution | None:
        """The dimension's ILP with the (droppable) directive rows, then without."""
        active_objects = self._active(run)
        for attempt_rows in ([directive_rows, []] if directive_rows else [[]]):
            solution = self._solve(
                builder.build(
                    run.dimension, active_objects, run.progression, dimension_config,
                    custom_rows, attempt_rows,
                )
            )
            if solution is not None:
                return solution
        return None

    def _solve(self, problem: LinearProblem) -> IlpSolution | None:
        """The one scheduling solve site: solve *problem*, count what it took.

        ``solve_calls`` counts the ask; the engine's own counters (``solves``,
        ``pivots``, ``nodes``, the FTRAN/BTRAN/refactor seconds, ...) follow
        under their :class:`~repro.ilp.engine.EngineStatistics` names, so the
        ``ilp.solve`` span of a traced run carries exactly this solve's work.
        A scheduler built with a session asks it first
        (:meth:`~repro.pipeline.session.Session.remembered`, keyed on the
        problem's :meth:`~repro.ilp.problem.LinearProblem.digest` and the node
        limit): a problem some compile of the SCoP already solved is answered
        without the engine and counted as ``ilp_solutions_reused``.  Its
        engine counts are counted again, its seconds are not: the counts of a
        run are those of the solutions it used, whichever compile solved them,
        so they equal a session-less run's.  An
        :class:`~repro.ilp.engine.EngineError` propagates with the problem
        attached, and is never remembered.
        """
        node_limit = (self.config.solver_options or SolverOptions()).node_limit
        solved = False

        def solve() -> tuple[IlpSolution | None, tuple[int, ...]]:
            nonlocal solved
            engine = IncrementalIlpEngine(problem, node_limit)
            solution = engine.solve()
            solved = True
            work = engine.stats.as_dict()
            for name, amount in work.items():
                count(name, amount)
            if solution is not None:
                # The nonzero values only: all a schedule row reads.
                solution = replace(
                    solution,
                    assignment={n: v for n, v in solution.assignment.items() if v},
                )
            return solution, tuple(work[name] for name in _ENGINE_COUNTS)

        with active_tracer().span("ilp.solve", category="ilp") as span:
            if self.session is None:
                solution, _ = solve()
            else:
                solution, counts = self.session.remembered(
                    self.scop, (problem.digest(), node_limit), solve
                )
                if not solved:
                    count(ILP_SOLUTIONS_REUSED)
                    for name, amount in zip(_ENGINE_COUNTS, counts):
                        count(name, amount)
            count("solve_calls")
            span.set("feasible", solution is not None)
        return solution

    def _append_solution(self, run: _Run, solution: IlpSolution) -> None:
        """Record one ILP solution as a new schedule row for every statement."""
        run.snapshot()
        values = solution.assignment
        for statement in self.statements:
            coefficients: dict[str, Fraction] = {}
            iterator_values: list[Fraction] = []
            for iterator in statement.iterators:
                value = values.get(iterator_coefficient(statement.name, iterator), Fraction(0))
                iterator_values.append(value)
                if value != 0:
                    coefficients[iterator] = value
            for parameter in statement.parameters:
                value = values.get(parameter_coefficient(statement.name, parameter), Fraction(0))
                if value != 0:
                    coefficients[parameter] = value
            constant = values.get(constant_coefficient(statement.name), Fraction(0))
            run.rows[statement.name].append(AffineExpr(coefficients, constant))
            run.progression.record(statement.name, iterator_values)

        # Strong-satisfaction bookkeeping and parallelism detection.
        last = {name: rows[-1] for name, rows in run.rows.items()}
        unsatisfied = [(i, self.dependences[i]) for i in run.active if i not in run.satisfied]
        for index, dependence in unsatisfied:
            source, target = last[dependence.source], last[dependence.target]
            if dependence.is_strongly_satisfied_by(source, target):
                run.satisfied[index] = run.dimension
        is_parallel = all(
            dependence.has_zero_distance_under(last[dependence.source], last[dependence.target])
            for _, dependence in unsatisfied
        )
        run.bands.append(run.band)
        run.parallel.append(is_parallel)
        run.last_parallel = is_parallel
        run.dimension += 1

    def _distribute(self, run: _Run, distribution: DistributionDecision) -> None:
        """One constant dimension: the groups of *distribution* in order.

        Every active dependence between two groups is strongly satisfied here
        (unless an earlier dimension already carried it) and leaves the active
        set; the band closes.
        """
        constant_rows = distribution.rows(self.statements)
        for statement in self.statements:
            run.rows[statement.name].append(constant_rows[statement.name])
        run.bands.append(run.band)
        run.parallel.append(False)
        kept: list[int] = []
        for index in run.active:
            dependence = self.dependences[index]
            if distribution.separates(dependence.source, dependence.target):
                run.satisfied.setdefault(index, run.dimension)
            else:
                kept.append(index)
        run.active = kept
        run.band += 1
        run.dimension += 1
        run.last_parallel = False
        run.undo = None

    def _fallback(self, run: _Run, directives: DirectiveManager) -> SchedulingResult:
        schedule = self.scop.original_schedule()
        schedule.sequential = directives.sequential_statements
        return SchedulingResult(schedule, list(self.dependences), run.satisfied, True)

