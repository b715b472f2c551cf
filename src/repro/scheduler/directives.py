"""Directives and auto-vectorisation (paper Sections III-B1 and III-B2).

Directives are *suggestions*: they are translated into extra ILP constraints
for the affected dimensions and are dropped whenever they would make the ILP
infeasible (legality always wins).

* ``vectorize`` — the designated iterator must be scheduled innermost for the
  statement: while the statement still has other iterators to place, the
  iterator's coefficient is forced to zero; once it is the last iterator left,
  its coefficient is forced to be at least one.  The statement/iterator pair is
  also recorded so that the code generator and the machine model can mark the
  resulting innermost loop as vectorised.
* ``parallel`` — at the outermost non-constant dimension, the dependences
  involving the statement are asked to have distance zero, which makes that
  dimension parallel for the statement's loops.
* ``sequential`` — no constraint; the statement is only excluded from
  parallelism annotations: the final schedule lists it in
  ``Schedule.sequential`` and the code generator marks no loop that scans it
  parallel.  The scheduler's own parallel flags (what a strategy callback
  sees) are unchanged.

Auto-vectorisation scans each statement's accesses for the iterator that moves
contiguously through memory (stride-1) and adds the corresponding ``vectorize``
directive automatically.
"""

from __future__ import annotations

from typing import Sequence

from ..deps.dependence import Dependence
from ..ilp.problem import ConstraintSense, LinearConstraint
from ..model.statement import Statement
from .config import SchedulerConfig, resolve_statement
from .errors import ConfigurationError
from .legality import legality_rows, reversed_legality_rows
from .naming import iterator_coefficient
from .progression import ProgressionState

__all__ = ["DirectiveManager"]


class DirectiveManager:
    """Expands directives (and auto-vectorisation) into per-dimension ILP rows."""

    def __init__(self, config: SchedulerConfig, statements: Sequence[Statement]):
        self.config = config
        self.statements = list(statements)
        self._by_name = {statement.name: statement for statement in statements}
        self.vector_iterators: dict[str, str] = {}
        self.parallel_statements: set[str] = set()
        self.sequential_statements: tuple[str, ...] = ()  # in statement order
        self._collect()

    # ------------------------------------------------------------------ #
    # Directive collection
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        sequential: set[str] = set()
        for directive in self.config.directives:
            statements = [
                resolve_statement(self.statements, identifier)
                for identifier in directive.statements
            ]
            if directive.kind == "vectorize":
                for statement in statements:
                    iterator = self._resolve_iterator(statement, directive.iterator)
                    if iterator is not None:
                        self.vector_iterators[statement.name] = iterator
            elif directive.kind == "parallel":
                self.parallel_statements.update(statement.name for statement in statements)
            elif directive.kind == "sequential":
                sequential.update(statement.name for statement in statements)
        self.sequential_statements = tuple(
            statement.name for statement in self.statements if statement.name in sequential
        )
        if self.config.auto_vectorize:
            for statement in self.statements:
                if statement.name in self.vector_iterators:
                    continue
                iterator = statement.preferred_vector_iterator()
                if iterator is not None and statement.depth > 1:
                    self.vector_iterators[statement.name] = iterator

    def _resolve_iterator(self, statement: Statement, iterator: str | None) -> str | None:
        """The iterator a ``vectorize`` directive names for *statement* (a name
        or a position), the preferred vector iterator when it names none."""
        if iterator is None:
            return statement.preferred_vector_iterator()
        if iterator in statement.iterators:
            return iterator
        if iterator.isdigit() and int(iterator) < statement.depth:
            return statement.iterators[int(iterator)]
        raise ConfigurationError(
            f"directive iterator {iterator!r} names no iterator of statement "
            f"{statement.name} {list(statement.iterators)}"
        )

    # ------------------------------------------------------------------ #
    # Per-dimension plans
    # ------------------------------------------------------------------ #
    def plan_for_dimension(
        self,
        dimension: int,
        progression: ProgressionState,
        active_dependences: Sequence[Dependence],
    ) -> list[LinearConstraint]:
        """The directive rows for the dimension about to be computed.

        They are droppable as a whole: empty when no directive applies.
        """
        rows = self._vectorize_rows(progression)
        if dimension == 0:
            rows.extend(self._parallel_rows(active_dependences))
        return rows

    def _vectorize_rows(self, progression: ProgressionState) -> list[LinearConstraint]:
        rows: list[LinearConstraint] = []
        for statement_name, iterator in self.vector_iterators.items():
            statement = self._by_name[statement_name]
            if progression.is_complete(statement_name):
                continue
            variable = iterator_coefficient(statement_name, iterator)
            remaining = statement.depth - progression.rank(statement_name)
            if remaining > 1:
                rows.append(LinearConstraint({variable: 1}, ConstraintSense.EQ, 0))
            else:
                # The innermost dimension must be the pure vector loop: the
                # vectorised iterator with coefficient >= 1 and no other
                # iterator mixed in (no skewing of the vector loop).
                rows.append(LinearConstraint({variable: 1}, ConstraintSense.GE, 1))
                for other in statement.iterators:
                    if other != iterator:
                        rows.append(
                            LinearConstraint(
                                {iterator_coefficient(statement_name, other): 1},
                                ConstraintSense.EQ,
                                0,
                            )
                        )
        return rows

    def _parallel_rows(self, active_dependences: Sequence[Dependence]) -> list[LinearConstraint]:
        rows: list[LinearConstraint] = []
        for dependence in active_dependences:
            if (
                dependence.source in self.parallel_statements
                or dependence.target in self.parallel_statements
            ):
                source = self._by_name[dependence.source]
                target = self._by_name[dependence.target]
                # Zero distance: both (phi_R - phi_S) >= 0 (already required) and <= 0.
                rows.extend(legality_rows(dependence, source, target, minimum=0))
                rows.extend(reversed_legality_rows(dependence, source, target))
        return rows
