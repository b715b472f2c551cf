"""The ILP build context shared by cost functions and the ILP builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from ..deps.dependence import Dependence
from ..ilp.problem import LinearProblem
from ..model.scop import Scop
from ..model.statement import Statement
from .config import SchedulerConfig

__all__ = ["IlpBuildContext"]


@dataclass
class IlpBuildContext:
    """Everything a cost function may need while contributing to the per-dimension ILP.

    Cost functions receive the partially built :class:`LinearProblem` (schedule
    coefficient variables are already declared) and append their own variables,
    constraints and objectives.  The order in which objectives are appended is
    the lexicographic minimisation order.
    """

    problem: LinearProblem
    scop: Scop
    statements: Sequence[Statement]
    active_dependences: Sequence[Dependence]
    dimension: int
    parameter_values: Mapping[str, int]
    config: SchedulerConfig
    completed_statements: frozenset[str] = frozenset()
    notes: dict[str, object] = field(default_factory=dict)

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

    def add_row(
        self, coefficients: Mapping[str, Fraction], sense: str, rhs: Fraction | int
    ) -> None:
        """Add one constraint row to the problem (exact duplicates are skipped)."""
        key = (frozenset(coefficients.items()), str(sense), Fraction(rhs))
        seen: set = self.notes.setdefault("__row_dedupe", set())
        if key in seen:
            return
        seen.add(key)
        self.problem.add_constraint(dict(coefficients), sense, rhs)

    def add_rows(
        self, rows: Sequence[tuple[dict[str, Fraction], str, Fraction]]
    ) -> None:
        for coefficients, sense, rhs in rows:
            self.add_row(coefficients, sense, rhs)

    def add_objective(self, coefficients: Mapping[str, Fraction]) -> None:
        """Append one lexicographic objective (minimised)."""
        self.problem.add_objective(dict(coefficients))
