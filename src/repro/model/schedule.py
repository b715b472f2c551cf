"""Multi-dimensional affine schedules.

A :class:`Schedule` maps every statement instance to a multi-dimensional date;
dates are compared lexicographically.  On top of the raw affine rows the class
records the *band* structure (maximal groups of permutable dimensions, used by
the tiling post-processing) and which dimensions are parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from ..polyhedra.affine import AffineExpr

__all__ = ["StatementSchedule", "Schedule"]


@dataclass(frozen=True)
class StatementSchedule:
    """The schedule rows of a single statement."""

    statement: str
    rows: tuple[AffineExpr, ...]

    @property
    def n_dims(self) -> int:
        return len(self.rows)

    def date(self, values: Mapping[str, int]) -> tuple[Fraction, ...]:
        """The multi-dimensional date of one statement instance."""
        return tuple(row.evaluate(values) for row in self.rows)

    def __str__(self) -> str:
        body = ", ".join(str(row) for row in self.rows)
        return f"{self.statement} -> ({body})"


@dataclass
class Schedule:
    """A complete schedule: one :class:`StatementSchedule` per statement.

    ``bands`` holds, for every schedule dimension, the identifier of the
    permutable band it belongs to, and ``parallel_dims`` whether the dimension
    is (outer-)parallel.  Both lists have one entry per schedule dimension.
    ``sequential`` names the statements of ``sequential`` directives: no loop
    that scans one of them is annotated parallel.
    """

    statements: dict[str, StatementSchedule] = field(default_factory=dict)
    bands: list[int] = field(default_factory=list)
    parallel_dims: list[bool] = field(default_factory=list)
    vectorized: dict[str, str] = field(default_factory=dict)  # statement -> iterator
    sequential: tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_dims(self) -> int:
        if not self.statements:
            return 0
        return max(schedule.n_dims for schedule in self.statements.values())

    def rows_for(self, statement: str) -> tuple[AffineExpr, ...]:
        return self.statements[statement].rows

    def date(self, statement: str, values: Mapping[str, int]) -> tuple[Fraction, ...]:
        return self.statements[statement].date(values)

    def band_members(self, band: int) -> list[int]:
        """Dimensions belonging to a band, in order."""
        return [dim for dim, b in enumerate(self.bands) if b == band]

    def band_ids(self) -> list[int]:
        """Distinct band identifiers in dimension order."""
        seen: list[int] = []
        for band in self.bands:
            if band not in seen:
                seen.append(band)
        return seen

    def is_scalar_dim(self, dim: int) -> bool:
        """True when dimension *dim* is a constant for every statement."""
        for schedule in self.statements.values():
            if dim >= schedule.n_dims:
                continue
            row = schedule.rows[dim]
            if any(coeff != 0 for coeff in row.coefficients.values()):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Construction / transformation
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, statements: Mapping[str, Sequence[AffineExpr]]) -> "Schedule":
        """A schedule from explicit rows, with every dimension in its own band."""
        schedule = cls()
        n_dims = 0
        for name, rows in statements.items():
            schedule.statements[name] = StatementSchedule(name, tuple(rows))
            n_dims = max(n_dims, len(rows))
        schedule.bands = list(range(n_dims))
        schedule.parallel_dims = [False] * n_dims
        return schedule

    def copy(self) -> "Schedule":
        clone = Schedule()
        clone.statements = dict(self.statements)
        clone.bands = list(self.bands)
        clone.parallel_dims = list(self.parallel_dims)
        clone.vectorized = dict(self.vectorized)
        clone.sequential = self.sequential
        return clone

    def padded(self) -> "Schedule":
        """A copy where every statement has the same number of rows (padded with 0)."""
        clone = self.copy()
        n_dims = self.n_dims
        for name, schedule in clone.statements.items():
            rows = list(schedule.rows)
            while len(rows) < n_dims:
                rows.append(AffineExpr.const(0))
            clone.statements[name] = StatementSchedule(name, tuple(rows))
        return clone

    def __str__(self) -> str:
        lines = [str(schedule) for schedule in self.statements.values()]
        lines.append(f"bands={self.bands} parallel={self.parallel_dims}")
        return "\n".join(lines)
