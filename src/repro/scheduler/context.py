"""The ILP build context shared by cost functions and the ILP builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..deps.dependence import Dependence
from ..ilp.problem import LinearConstraint, LinearProblem
from ..model.scop import Scop
from ..model.statement import Statement
from .config import SchedulerConfig

__all__ = ["IlpBuildContext"]


@dataclass
class IlpBuildContext:
    """Everything a cost function may need while contributing to the per-dimension ILP.

    Cost functions receive the partially built :class:`LinearProblem` (schedule
    coefficient variables are already declared) and append their own variables,
    objectives and, through :meth:`add_rows`, constraints.  The order in which
    objectives are appended is the lexicographic minimisation order.
    """

    problem: LinearProblem
    scop: Scop
    statements: Sequence[Statement]
    active_dependences: Sequence[Dependence]
    dimension: int
    parameter_values: Mapping[str, int]
    config: SchedulerConfig
    completed_statements: frozenset[str] = frozenset()
    _added: set[LinearConstraint] = field(default_factory=set, init=False, repr=False)

    def statement(self, name: str) -> Statement:
        for statement in self.statements:
            if statement.name == name:
                return statement
        raise KeyError(f"unknown statement {name!r}")

    def active_statements(self) -> list[Statement]:
        """Statements that still need non-trivial schedule dimensions."""
        return [
            statement
            for statement in self.statements
            if statement.name not in self.completed_statements
        ]

    def add_rows(self, constraints: Iterable[LinearConstraint]) -> None:
        """The one way a row enters the problem: each constraint object as it is.

        A constraint equal to one already added is skipped (the first
        occurrence is kept); one naming an undeclared variable raises
        :class:`KeyError`.
        """
        added = self._added
        variables = self.problem.variables
        for constraint in constraints:
            if constraint in added:
                continue
            unknown = constraint.coefficients.keys() - variables.keys()
            if unknown:
                raise KeyError(f"constraint references undeclared variables: {sorted(unknown)}")
            added.add(constraint)
            self.problem.constraints.append(constraint)

    def add_objective(self, coefficients: Mapping[str, Fraction]) -> None:
        """Append one lexicographic objective (minimised)."""
        self.problem.add_objective(dict(coefficients))
