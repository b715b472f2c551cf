"""Progression constraints (paper Eq. 3).

Each new scheduling dimension of a statement must be linearly independent, in
the iterator subspace, from the dimensions already found; the search being
restricted to the positive orthant, the constraint is expressed with the rows
of the orthogonal complement ``H_perp = I - H^T (H H^T)^{-1} H`` of the
previous solutions ``H``:

    for every row r of H_perp:  r . c_S >= 0        (kept implicitly: c_S >= 0)
    sum of rows           :     (sum_i H_perp_i) . c_S >= 1

No inverse is formed.  Per statement the state keeps ``H_perp`` itself and
updates it with one exact Gram–Schmidt step per dimension found: the residual
of a new row ``h`` against the rows found so far is ``q = H_perp h``; a
non-zero ``q`` is the next vector of an orthogonal basis of the rows, and
``H_perp`` loses its direction, ``H_perp - q q^T / (q . q)``.  The rank is the
number of basis vectors, so a statement is *complete* — it needs no further
non-trivial dimension and its coefficients are pinned to zero — once that
number reaches its depth.  A statement's Eq. 3 rows are built once per span
and handed to every build as the same objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..ilp.problem import ConstraintSense, LinearConstraint
from ..linalg.rational import Rational, normalize_integer_row, scale_to_integers
from ..model.statement import Statement
from .naming import iterator_coefficient

__all__ = ["ProgressionState"]


class _Span:
    """The span of one statement's iterator rows at one point of a run.

    Immutable: recording a row makes a new span (or keeps this one when the
    row adds nothing), so undoing a record is dropping the newest span.
    """

    __slots__ = ("complement", "rank", "rows")

    def __init__(self, complement: tuple[tuple[Rational, ...], ...], rank: int):
        #: The projector ``H_perp`` onto the orthogonal complement of the span.
        self.complement = complement
        self.rank = rank
        #: The Eq. 3 rows, built on first use.
        self.rows: tuple[LinearConstraint, ...] | None = None

    def extended(self, h: Sequence[Fraction]) -> "_Span":
        """The span of this one and the row *h*: one Gram–Schmidt step."""
        q = [
            sum((entry * value for entry, value in zip(line, h) if value), Fraction(0))
            for line in self.complement
        ]
        norm = sum(value * value for value in q)
        if not norm:
            return self
        complement = tuple(
            tuple(entry - q_i * q_j / norm for entry, q_j in zip(line, q))
            for line, q_i in zip(self.complement, q)
        )
        return _Span(complement, self.rank + 1)


class ProgressionState:
    """Tracks, per statement, the span of the iterator parts of the schedule
    rows found so far, as its exact orthogonal complement."""

    def __init__(self, statements: Sequence[Statement]):
        self._statements = {statement.name: statement for statement in statements}
        self._spans: dict[str, list[_Span]] = {}
        for statement in statements:
            depth = statement.depth
            identity = tuple(
                tuple(int(row == column) for column in range(depth)) for row in range(depth)
            )
            self._spans[statement.name] = [_Span(identity, 0)]

    def record(self, statement: str, iterator_coefficients: Sequence[Rational]) -> None:
        """Record the iterator coefficients of a newly found dimension.

        A row inside the span so far (an all-zero row — a constant schedule
        dimension — in particular) leaves the span as it is; it is recorded
        all the same, so that every :meth:`record` has its :meth:`pop`.
        """
        depth = self._statements[statement].depth
        if len(iterator_coefficients) != depth:
            raise ValueError(
                f"{statement}: {len(iterator_coefficients)} iterator coefficients "
                f"for depth {depth}"
            )
        spans = self._spans[statement]
        spans.append(spans[-1].extended([Fraction(v) for v in iterator_coefficients]))

    def pop(self, statement: str) -> None:
        """Undo the last :meth:`record` (used when a dimension is recomputed)."""
        spans = self._spans[statement]
        if len(spans) == 1:
            raise IndexError(f"{statement}: no recorded dimension to undo")
        spans.pop()

    def rank(self, statement: str) -> int:
        return self._spans[statement][-1].rank

    def is_complete(self, statement: str) -> bool:
        """True when the statement's schedule already spans its iterator space."""
        return self.rank(statement) >= self._statements[statement].depth

    def all_complete(self) -> bool:
        return all(self.is_complete(name) for name in self._spans)

    def rows(self, statement: str) -> tuple[LinearConstraint, ...]:
        """ILP rows forcing the next dimension of *statement* to make progress.

        One row per non-zero row of ``H_perp``, scaled to primitive integers,
        then their sum ``>= 1``; when the rows cancel out, that last row is
        the infeasible ``0 >= 1``.  A complete statement has none.  The same
        tuple comes back until the statement's span changes.
        """
        span = self._spans[statement][-1]
        if span.rows is None:
            span.rows = _eq3_rows(self._statements[statement], span)
        return span.rows


def _eq3_rows(statement: Statement, span: _Span) -> tuple[LinearConstraint, ...]:
    if span.rank == statement.depth:
        return ()
    names = [iterator_coefficient(statement.name, iterator) for iterator in statement.iterators]
    rows: list[LinearConstraint] = []
    total: dict[str, int] = {}
    for line in span.complement:
        if not any(line):
            continue
        coefficients: dict[str, int] = {}
        for name, value in zip(names, normalize_integer_row(scale_to_integers(line))):
            if value != 0:
                coefficients[name] = value
                total[name] = total.get(name, 0) + value
        rows.append(LinearConstraint(coefficients, ConstraintSense.GE, 0))
    rows.append(LinearConstraint(total, ConstraintSense.GE, 1))
    return tuple(rows)
