"""Progression constraints (paper Eq. 3).

Each new scheduling dimension of a statement must be linearly independent, in
the iterator subspace, from the dimensions already found; the search being
restricted to the positive orthant, the constraint is expressed with the rows
of the orthogonal complement of the previous solutions:

    for every row r of H_perp:  r . c_S >= 0        (kept implicitly: c_S >= 0)
    sum of rows           :     (sum_i H_perp_i) . c_S >= 1

When the previous rows already span the full iterator space the statement is
*complete*: no further non-trivial dimension is required and its coefficients
are pinned to zero for the remaining dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..ilp.problem import ConstraintSense, LinearConstraint
from ..linalg.orthogonal import orthogonal_complement_rows
from ..linalg.rational import Rational
from ..model.statement import Statement
from .naming import iterator_coefficient

__all__ = ["ProgressionState", "progression_rows"]


class ProgressionState:
    """Tracks, per statement, the iterator parts of the schedule rows found so far."""

    def __init__(self, statements: Sequence[Statement]):
        self._statements = {statement.name: statement for statement in statements}
        self._rows: dict[str, list[list[Fraction]]] = {
            statement.name: [] for statement in statements
        }

    def record(self, statement: str, iterator_coefficients: Sequence[Rational]) -> None:
        """Record the iterator coefficients of a newly found dimension.

        All-zero rows (constant schedule dimensions) are ignored: they do not
        contribute to covering the iteration space.
        """
        values = [Fraction(v) for v in iterator_coefficients]
        if any(value != 0 for value in values):
            self._rows[statement].append(values)

    def pop(self, statement: str, was_recorded: bool) -> None:
        """Undo the last :meth:`record` (used when a dimension is recomputed)."""
        if was_recorded and self._rows[statement]:
            self._rows[statement].pop()

    def rows(self, statement: str) -> list[list[Fraction]]:
        return [list(row) for row in self._rows[statement]]

    def rank(self, statement: str) -> int:
        from ..linalg.matrix import RationalMatrix

        rows = self._rows[statement]
        if not rows:
            return 0
        return RationalMatrix(rows).rank()

    def is_complete(self, statement: str) -> bool:
        """True when the statement's schedule already spans its iterator space."""
        depth = len(self._statements[statement].iterators)
        if depth == 0:
            return True
        return self.rank(statement) >= depth

    def all_complete(self) -> bool:
        return all(self.is_complete(name) for name in self._rows)


def progression_rows(statement: Statement, state: ProgressionState) -> list[LinearConstraint]:
    """ILP rows forcing the next dimension of *statement* to make progress.

    When the complement's rows cancel out, the last row is the infeasible
    ``0 >= 1``.
    """
    iterators = statement.iterators
    if not iterators or state.is_complete(statement.name):
        return []
    complement = orthogonal_complement_rows(state.rows(statement.name), len(iterators))
    rows: list[LinearConstraint] = []
    total: dict[str, Fraction] = {}
    for row in complement:
        coefficients: dict[str, Fraction] = {}
        for iterator, value in zip(iterators, row):
            if value != 0:
                name = iterator_coefficient(statement.name, iterator)
                coefficients[name] = Fraction(value)
                total[name] = total.get(name, Fraction(0)) + Fraction(value)
        if coefficients:
            rows.append(LinearConstraint(coefficients, ConstraintSense.GE, 0))
    if not total:  # pragma: no cover - only reachable when complement is empty but not complete
        total = {iterator_coefficient(statement.name, iterator): 1 for iterator in iterators}
    rows.append(LinearConstraint(total, ConstraintSense.GE, 1))
    return rows
