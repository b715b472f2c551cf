"""Assembly of the per-dimension ILP (Algorithm 1, line 16/26).

The builder declares the schedule-coefficient variables for every statement,
adds the always-present constraint families (legality for every active
dependence, progression for every unfinished statement), then lets the
configured cost functions contribute their variables/constraints/objectives in
priority order, and finally appends Pluto-style tie-breaking objectives
(minimise parameter coefficients, then constants, then iterator coefficients)
so that the lexicographic optimum is a small, human-readable transformation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ..deps.dependence import Dependence
from ..ilp.problem import ConstraintSense, LinearConstraint, LinearProblem
from ..model.scop import Scop
from .config import DimensionConfig, SchedulerConfig
from .context import IlpBuildContext
from .cost import resolve_cost_function
from .legality import legality_rows
from .naming import constant_coefficient, iterator_coefficient, parameter_coefficient
from .progression import ProgressionState

__all__ = ["IlpBuilder"]


class IlpBuilder:
    """Builds one :class:`LinearProblem` per scheduling dimension.

    Farkas row blocks only depend on the dependence, not on the scheduling
    dimension, and are remembered on it (:mod:`repro.scheduler.legality`);
    a statement's progression rows only depend on the span of its schedule
    so far, and are remembered with that span
    (:class:`~repro.scheduler.progression.ProgressionState`).
    """

    def __init__(
        self,
        scop: Scop,
        config: SchedulerConfig,
        parameter_values: Mapping[str, int],
    ):
        self.scop = scop
        self.config = config
        # Not copied: a run's values record whether anything read them.
        self.parameter_values = parameter_values
        self.statements = list(scop.statements)
        self._statement_by_name = {statement.name: statement for statement in self.statements}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def build(
        self,
        dimension: int,
        active_dependences: Sequence[Dependence],
        progression: ProgressionState,
        dimension_config: DimensionConfig,
        custom_rows: Sequence[LinearConstraint] = (),
        directive_rows: Sequence[LinearConstraint] = (),
    ) -> LinearProblem:
        """Assemble the ILP for *dimension*."""
        problem = LinearProblem()
        completed = frozenset(
            statement.name
            for statement in self.statements
            if progression.is_complete(statement.name)
        )
        self._declare_schedule_variables(problem, completed)
        self._declare_user_variables(problem)

        context = IlpBuildContext(
            problem=problem,
            scop=self.scop,
            statements=self.statements,
            active_dependences=list(active_dependences),
            dimension=dimension,
            parameter_values=self.parameter_values,
            config=self.config,
            completed_statements=completed,
        )

        # Legality (Eq. 2) for every active dependence, always present.
        for dependence in active_dependences:
            context.add_rows(
                legality_rows(
                    dependence,
                    self._statement_by_name[dependence.source],
                    self._statement_by_name[dependence.target],
                    minimum=0,
                )
            )

        # Progression (Eq. 3) for every statement that still needs dimensions.
        for statement in self.statements:
            if statement.name not in completed:
                context.add_rows(progression.rows(statement.name))

        # Custom constraints and (droppable) directive rows.
        context.add_rows(custom_rows)
        context.add_rows(directive_rows)

        # Cost functions in priority order.
        for cost_name in dimension_config.cost_functions:
            cost_function = resolve_cost_function(cost_name, self.config.new_variables)
            cost_function.contribute(context)

        self._add_tie_breakers(context)
        return problem

    # ------------------------------------------------------------------ #
    # Variable declarations
    # ------------------------------------------------------------------ #
    def _declare_schedule_variables(
        self, problem: LinearProblem, completed: frozenset[str]
    ) -> None:
        bound = self.config.coefficient_bound
        lower = -bound if self.config.allow_negative_coefficients else 0
        for statement in self.statements:
            pinned = statement.name in completed
            for iterator in statement.iterators:
                problem.add_variable(
                    iterator_coefficient(statement.name, iterator),
                    0 if pinned else lower,
                    0 if pinned else bound,
                )
            for parameter in statement.parameters:
                problem.add_variable(
                    parameter_coefficient(statement.name, parameter),
                    0,
                    0 if pinned else bound,
                )
            problem.add_variable(
                constant_coefficient(statement.name),
                0,
                0 if pinned else self.config.constant_bound,
            )

    def _declare_user_variables(self, problem: LinearProblem) -> None:
        bound = 16 * max(self.config.coefficient_bound, 1)
        for name in self.config.new_variables:
            problem.add_variable(name, 0, bound)

    # ------------------------------------------------------------------ #
    # Tie breakers
    # ------------------------------------------------------------------ #
    def _add_tie_breakers(self, context: IlpBuildContext) -> None:
        """One combined tie-breaking objective (kept last in the lexicographic order).

        The weights emulate the lexicographic order (parameter coefficients,
        then constants, then iterator coefficients, then a preference for the
        original loop order) in a single ILP objective; the weight ratios are
        larger than any achievable lower-priority sum, so the combined optimum
        coincides with the lexicographic optimum while halving the number of
        ILP solves per dimension.
        """
        objective: dict[str, Fraction] = {}
        parameter_weight = Fraction(10**7)
        constant_weight = Fraction(10**4)
        iterator_weight = Fraction(10)
        for statement in self.statements:
            for parameter in statement.parameters:
                objective[parameter_coefficient(statement.name, parameter)] = parameter_weight
            objective[constant_coefficient(statement.name)] = constant_weight
            for position, iterator in enumerate(statement.iterators):
                variable = iterator_coefficient(statement.name, iterator)
                # Prefer small coefficients, and among those the original loop
                # order (outer original iterators first), which is what Pluto's
                # variable ordering produces.
                weight = iterator_weight + Fraction(position)
                if self.config.allow_negative_coefficients:
                    # Minimise |c| through an auxiliary magnitude variable so
                    # that loop reversal is only chosen when it actually helps.
                    magnitude = f"abs_{variable}"
                    context.problem.add_variable(magnitude, 0, self.config.coefficient_bound)
                    context.add_rows(
                        LinearConstraint({magnitude: 1, variable: sign}, ConstraintSense.GE, 0)
                        for sign in (-1, 1)
                    )
                    objective[magnitude] = weight
                else:
                    objective[variable] = weight
        if objective:
            context.add_objective(objective)
