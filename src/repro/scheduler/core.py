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
dimension, or after a dimension recomputed with the Feautrier fallback.  When
even the band-closing retry fails, statements are distributed along the
strongly connected components of the remaining dependence graph.  If no
progress is possible at all the scheduler falls back to the original schedule
(exactly like Pluto does on kernels such as nussinov or deriche), unless the
blockage comes from user-provided custom constraints or fusion directives, in
which case a :class:`SchedulingError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

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
from .config import (
    DimensionConfig,
    SchedulerConfig,
    StrategyDecision,
    StrategyState,
)
from .custom_constraints import CustomConstraintParser
from .directives import DirectiveManager
from .errors import SchedulingError
from .fusion import DistributionDecision, FusionController
from .ilp_builder import IlpBuilder
from .legality import FARKAS_BLOCKS_REUSED
from .naming import constant_coefficient, iterator_coefficient, parameter_coefficient
from .progression import ProgressionState

__all__ = ["PolyTOPSScheduler", "SchedulingResult"]

#: What a run that solved, linearised and remembered nothing reports: every
#: name a scheduling run's units count under, at zero.
NO_WORK: dict[str, int | float] = {
    **EngineStatistics().as_dict(),
    "solve_calls": 0,
    **FmStatistics().as_dict(),
    PROBE_VERDICTS_REUSED: 0,
    FARKAS_BLOCKS_REUSED: 0,
}


@dataclass
class SchedulingResult:
    """Outcome of a scheduling run.

    ``statistics`` mixes scheduler-level facts (``dimensions``,
    ``dependences``) with the work counted while the run was scheduling, read
    off its work-ledger scope: the scheduling solves (``solves``, ``pivots``,
    ``nodes``, encode/solve seconds, ...), the Farkas eliminations (``fm_*``),
    the remembered answers (``probe_verdicts_reused``,
    ``farkas_blocks_reused``) and the engine work of the run's emptiness
    probes (``probe_*``).
    """

    schedule: Schedule
    dependences: list[Dependence]
    satisfaction_dimension: dict[int, int] = field(default_factory=dict)
    fallback_to_original: bool = False
    statistics: dict[str, int | float] = field(default_factory=dict)

    def unsatisfied_dependences(self) -> list[int]:
        """Indices of dependences never strongly satisfied (should be empty)."""
        return [
            index
            for index in range(len(self.dependences))
            if index not in self.satisfaction_dimension
        ]


class PolyTOPSScheduler:
    """Configurable iterative polyhedral scheduler."""

    def __init__(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        dependences: Sequence[Dependence] | None = None,
        parameter_values: Mapping[str, int] | None = None,
    ):
        self.scop = scop
        self.config = config or SchedulerConfig(name="pluto-style")
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
        """Run Algorithm 1 and return the resulting schedule."""
        if not self.statements:
            return SchedulingResult(Schedule(), [], {}, False, {})
        # Joined (or opened): the bookkeeping probes one root per dependence.
        with ledger() as work, probe_scope():
            result = self._schedule()
        result.statistics = {
            "dimensions": result.schedule.n_dims,
            "dependences": len(self.dependences),
            **NO_WORK,
            **work,
        }
        return result

    def _schedule(self) -> SchedulingResult:
        progression = ProgressionState(self.statements)
        directives = DirectiveManager(self.config, self.statements)
        fusion = FusionController(self.config, self.statements)
        builder = IlpBuilder(self.scop, self.config, self.parameter_values)
        parser = CustomConstraintParser(self.statements, self.config.new_variables)

        rows: dict[str, list[AffineExpr]] = {s.name: [] for s in self.statements}
        bands: list[int] = []
        parallel: list[bool] = []
        active: list[int] = list(range(len(self.dependences)))
        strongly_satisfied: set[int] = set()
        satisfaction_dimension: dict[int, int] = {}

        band = 0
        dimension = 0
        last_parallel: bool | None = None
        last_recomputed = False
        last_was_ilp = False
        undo_state: dict | None = None
        max_dimensions = 2 * self.scop.max_depth() + len(self.statements) + 4

        while True:
            if progression.all_complete():
                # Every statement already has a full-rank schedule.  Deps that
                # are strongly satisfied at some dimension can be dropped; the
                # remaining ones only need constant (distribution) dimensions.
                self._remove_satisfied(active, strongly_satisfied)
                if not active:
                    break
                active_objects = [self.dependences[index] for index in active]
                distribution = fusion.scc_distribution(active_objects)
                if distribution is None:
                    # The remaining dependences are weakly ordered by the
                    # complete schedule (legality held at every dimension), so
                    # the schedule is legal even though no single dimension
                    # carries them; accept it.
                    break
                self._apply_distribution(
                    distribution, rows, bands, parallel, band, dimension, active,
                    strongly_satisfied, satisfaction_dimension,
                )
                band += 1
                dimension += 1
                last_parallel = False
                last_was_ilp = False
                undo_state = None
                continue
            if dimension > max_dimensions:
                return self._fallback(satisfaction_dimension)

            # Dynamic ("C++-style") strategy callback.
            decision: StrategyDecision | None = None
            if self.config.strategy_callback is not None:
                state = StrategyState(
                    dimension=dimension,
                    last_dimension_parallel=last_parallel,
                    last_dimension_recomputed=last_recomputed,
                    active_dependences=len(active),
                    rows_so_far={name: list(r) for name, r in rows.items()},
                    statements=[s.name for s in self.statements],
                )
                decision = self.config.strategy_callback(state)
                if (
                    decision is not None
                    and decision.recompute_last
                    and last_was_ilp
                    and not last_recomputed
                    and undo_state is not None
                ):
                    self._apply_undo(
                        undo_state, rows, bands, parallel, progression, strongly_satisfied,
                        satisfaction_dimension,
                    )
                    dimension -= 1
                    last_recomputed = True
                else:
                    last_recomputed = False

            dimension_config = self.config.dimension_config(dimension)
            if decision is not None and decision.cost_functions is not None:
                dimension_config = DimensionConfig(
                    cost_functions=tuple(decision.cost_functions),
                    constraints=dimension_config.constraints,
                )
            custom_texts = list(self.config.constraints_for(dimension))
            if decision is not None and decision.constraints is not None:
                custom_texts.extend(decision.constraints)

            active_objects = [self.dependences[index] for index in active]

            # --- 1. Distribution requested by the configuration or the heuristic.
            distribution = fusion.configured_distribution(dimension, active_objects)
            if distribution is None and not last_recomputed:
                distribution = fusion.dimensionality_distribution(dimension, active_objects)
            if distribution is not None:
                self._apply_distribution(
                    distribution, rows, bands, parallel, band, dimension, active,
                    strongly_satisfied, satisfaction_dimension,
                )
                band += 1
                dimension += 1
                last_parallel = False
                last_was_ilp = False
                undo_state = None
                continue

            # --- 2. The standard ILP step.  One span per scheduling
            # dimension: the per-solve ``ilp.solve`` spans (and the FM spans
            # of any block linearised on this dimension) nest inside it.
            custom_rows = parser.parse_all(custom_texts)
            plan = directives.plan_for_dimension(dimension, progression, active_objects)
            directive_rows = plan.rows if plan is not None else []

            with active_tracer().span(
                "scheduler.dimension",
                category="scheduler",
                dimension=dimension,
                band=band,
                active_dependences=len(active),
            ) as dimension_span:
                solution = self._solve_dimension(
                    builder, dimension, active_objects, progression, dimension_config,
                    custom_rows, directive_rows,
                )
                if solution is None:
                    # Close the band: drop strongly satisfied dependences, retry once.
                    removed = self._remove_satisfied(active, strongly_satisfied)
                    band += 1
                    if removed:
                        active_objects = [self.dependences[index] for index in active]
                        solution = self._solve_dimension(
                            builder, dimension, active_objects, progression,
                            dimension_config, custom_rows, directive_rows,
                        )
                dimension_span.set("solved", solution is not None)

            if solution is not None:
                undo_state = self._snapshot(rows, bands, parallel, strongly_satisfied)
                newly_parallel = self._append_solution(
                    solution, rows, progression, active, strongly_satisfied,
                    satisfaction_dimension, dimension,
                )
                bands.append(band)
                parallel.append(newly_parallel)
                last_parallel = newly_parallel
                last_was_ilp = True
                if last_recomputed:
                    # A Feautrier-style recomputation carries dependences: close the band.
                    self._remove_satisfied(active, strongly_satisfied)
                    band += 1
                dimension += 1
                continue

            # --- 3. SCC-based distribution fallback.
            active_objects = [self.dependences[index] for index in active]
            distribution = fusion.scc_distribution(active_objects)
            if distribution is None:
                if custom_texts or self.config.fusion:
                    raise SchedulingError(
                        "no legal schedule exists under the provided custom "
                        "constraints / fusion directives"
                    )
                return self._fallback(satisfaction_dimension)
            self._apply_distribution(
                distribution, rows, bands, parallel, band, dimension, active,
                strongly_satisfied, satisfaction_dimension,
            )
            band += 1
            dimension += 1
            last_parallel = False
            last_was_ilp = False
            undo_state = None

        schedule = self._finalize(rows, bands, parallel, directives)
        return SchedulingResult(
            schedule, list(self.dependences), satisfaction_dimension, False
        )

    # ------------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------------ #
    def _solve_dimension(
        self,
        builder: IlpBuilder,
        dimension: int,
        active_objects: list[Dependence],
        progression: ProgressionState,
        dimension_config: DimensionConfig,
        custom_rows: list[LinearConstraint],
        directive_rows: list[LinearConstraint],
    ) -> IlpSolution | None:
        """The dimension's ILP with the (droppable) directive rows, then without."""
        for attempt_rows in ([directive_rows, []] if directive_rows else [[]]):
            solution = self._solve(
                builder.build(
                    dimension, active_objects, progression, dimension_config,
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
        An :class:`~repro.ilp.engine.EngineError` propagates with the problem
        attached.
        """
        options = self.config.solver_options or SolverOptions()
        with active_tracer().span("ilp.solve", category="ilp") as span:
            engine = IncrementalIlpEngine(problem, options.node_limit)
            solution = engine.solve()
            count("solve_calls")
            for name, amount in engine.stats.as_dict().items():
                count(name, amount)
            span.set("feasible", solution is not None)
        return solution

    def _append_solution(
        self,
        solution: IlpSolution,
        rows: dict[str, list[AffineExpr]],
        progression: ProgressionState,
        active: list[int],
        strongly_satisfied: set[int],
        satisfaction_dimension: dict[int, int],
        dimension: int,
    ) -> bool:
        """Record one ILP solution as a new schedule row for every statement."""
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
            rows[statement.name].append(AffineExpr(coefficients, constant))
            progression.record(statement.name, iterator_values)

        # Strong-satisfaction bookkeeping and parallelism detection.
        previously_unsatisfied = [
            index for index in active if index not in strongly_satisfied
        ]
        for index in active:
            if index in strongly_satisfied:
                continue
            dependence = self.dependences[index]
            source_row = rows[dependence.source][-1]
            target_row = rows[dependence.target][-1]
            if dependence.is_strongly_satisfied_by(source_row, target_row):
                strongly_satisfied.add(index)
                satisfaction_dimension[index] = dimension

        is_parallel = True
        for index in previously_unsatisfied:
            dependence = self.dependences[index]
            source_row = rows[dependence.source][-1]
            target_row = rows[dependence.target][-1]
            if not dependence.has_zero_distance_under(source_row, target_row):
                is_parallel = False
                break
        return is_parallel

    def _apply_distribution(
        self,
        distribution: DistributionDecision,
        rows: dict[str, list[AffineExpr]],
        bands: list[int],
        parallel: list[bool],
        band: int,
        dimension: int,
        active: list[int],
        strongly_satisfied: set[int],
        satisfaction_dimension: dict[int, int],
    ) -> None:
        constant_rows = distribution.rows(self.statements)
        for statement in self.statements:
            rows[statement.name].append(constant_rows[statement.name])
        bands.append(band)
        parallel.append(False)
        newly_satisfied: list[int] = []
        for index in list(active):
            dependence = self.dependences[index]
            if distribution.separates(dependence.source, dependence.target):
                strongly_satisfied.add(index)
                satisfaction_dimension.setdefault(index, dimension)
                newly_satisfied.append(index)
        for index in newly_satisfied:
            active.remove(index)

    def _remove_satisfied(self, active: list[int], strongly_satisfied: set[int]) -> bool:
        satisfied_here = [index for index in active if index in strongly_satisfied]
        for index in satisfied_here:
            active.remove(index)
        return bool(satisfied_here)

    # ------------------------------------------------------------------ #
    # Undo support (isl-style "recompute last solution")
    # ------------------------------------------------------------------ #
    def _snapshot(
        self,
        rows: dict[str, list[AffineExpr]],
        bands: list[int],
        parallel: list[bool],
        strongly_satisfied: set[int],
    ) -> dict:
        return {
            "row_lengths": {name: len(r) for name, r in rows.items()},
            "bands": len(bands),
            "parallel": len(parallel),
            "satisfied": set(strongly_satisfied),
        }

    def _apply_undo(
        self,
        undo_state: dict,
        rows: dict[str, list[AffineExpr]],
        bands: list[int],
        parallel: list[bool],
        progression: ProgressionState,
        strongly_satisfied: set[int],
        satisfaction_dimension: dict[int, int],
    ) -> None:
        for statement in self.statements:
            target_length = undo_state["row_lengths"][statement.name]
            while len(rows[statement.name]) > target_length:
                # Rows since the snapshot all come from _append_solution,
                # which records each one.
                rows[statement.name].pop()
                progression.pop(statement.name)
        del bands[undo_state["bands"]:]
        del parallel[undo_state["parallel"]:]
        restored = undo_state["satisfied"]
        for index in list(strongly_satisfied):
            if index not in restored:
                strongly_satisfied.discard(index)
                satisfaction_dimension.pop(index, None)

    # ------------------------------------------------------------------ #
    # Finalisation / fallback
    # ------------------------------------------------------------------ #
    def _finalize(
        self,
        rows: dict[str, list[AffineExpr]],
        bands: list[int],
        parallel: list[bool],
        directives: DirectiveManager,
    ) -> Schedule:
        schedule = Schedule()
        for statement in self.statements:
            schedule.statements[statement.name] = StatementSchedule(
                statement.name, tuple(rows[statement.name])
            )
        schedule.bands = list(bands)
        schedule.parallel_dims = list(parallel)
        schedule.vectorized = dict(directives.vector_iterators)
        return schedule.padded()

    def _fallback(self, satisfaction_dimension: dict[int, int]) -> SchedulingResult:
        return SchedulingResult(
            self.scop.original_schedule(), list(self.dependences), satisfaction_dimension, True
        )
