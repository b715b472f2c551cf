"""Dependence objects.

A dependence ``S -> R`` relates instances of a source statement that must
execute before instances of a target statement.  It is represented exactly, as
a polyhedron over the concatenation of the two statements' (renamed) iteration
spaces plus the global parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from ..model.access import ArrayAccess
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint, ConstraintKind
from ..polyhedra.polyhedron import Polyhedron

__all__ = ["DependenceKind", "Dependence", "SOURCE_SUFFIX", "TARGET_SUFFIX"]

SOURCE_SUFFIX = "__src"
TARGET_SUFFIX = "__tgt"


class DependenceKind(Enum):
    """Classical dependence classes."""

    FLOW = "RAW"   # read after write
    ANTI = "WAR"   # write after read
    OUTPUT = "WAW"  # write after write

    @classmethod
    def of(cls, source: ArrayAccess, target: ArrayAccess) -> "DependenceKind":
        if source.is_write and target.is_read:
            return cls.FLOW
        if source.is_read and target.is_write:
            return cls.ANTI
        if source.is_write and target.is_write:
            return cls.OUTPUT
        raise ValueError("a dependence needs at least one write access")


@dataclass(frozen=True)
class Dependence:
    """An exact dependence between two statements.

    ``polyhedron`` lives in the combined space whose iterators are the source
    statement's iterators suffixed with ``__src`` followed by the target
    statement's iterators suffixed with ``__tgt``; ``source_map`` and
    ``target_map`` give the renaming from original iterator names.
    """

    source: str
    target: str
    kind: DependenceKind
    array: str
    polyhedron: Polyhedron
    source_map: dict[str, str]
    target_map: dict[str, str]
    depth: int
    source_access: ArrayAccess | None = None
    target_access: ArrayAccess | None = None

    @property
    def is_self_dependence(self) -> bool:
        return self.source == self.target

    def identifier(self) -> str:
        """A short, unique-ish label used for ILP variable naming and reports."""
        return f"{self.source}_{self.target}_{self.kind.value}_{self.array}_d{self.depth}"

    # ------------------------------------------------------------------ #
    # Schedule-difference helpers
    # ------------------------------------------------------------------ #
    def difference_expression(
        self,
        source_row: AffineExpr,
        target_row: AffineExpr,
    ) -> AffineExpr:
        """``target_row(tgt iters) - source_row(src iters)`` in the dependence space.

        Both rows are expressed over the original iterator names of their
        statements (plus parameters); they are renamed into the dependence
        space before being subtracted.
        """
        renamed_source = source_row.rename(self.source_map)
        renamed_target = target_row.rename(self.target_map)
        return renamed_target - renamed_source

    def is_strongly_satisfied_by(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row >= 1`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant >= 1
        return self.polyhedron.is_empty([AffineConstraint.less_equal(difference, 0)])

    def is_weakly_satisfied_by(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row >= 0`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant >= 0
        return self.polyhedron.is_empty([AffineConstraint.less_equal(difference, -1)])

    def has_zero_distance_under(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row == 0`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant == 0
        return self.polyhedron.is_empty(
            [AffineConstraint.greater_equal(difference, 1)]
        ) and self.polyhedron.is_empty([AffineConstraint.less_equal(difference, -1)])

    def __str__(self) -> str:
        return (
            f"{self.kind.value} {self.source} -> {self.target} on {self.array} "
            f"(depth {self.depth})"
        )
