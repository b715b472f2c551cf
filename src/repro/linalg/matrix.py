"""Exact rational matrices.

:class:`RationalMatrix` is a small, dependency-free dense matrix of
:class:`fractions.Fraction` entries providing exactly the operations the
polyhedral scheduler needs: reduced row echelon form, rank, inverses and
products.  Matrices are immutable from the outside; all operations return new
matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import Rational, as_fraction

__all__ = ["RationalMatrix"]


class RationalMatrix:
    """A dense matrix of exact rational numbers."""

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        self._rows: list[list[Fraction]] = [
            [as_fraction(v) for v in row] for row in rows
        ]
        if self._rows:
            width = len(self._rows[0])
            for row in self._rows:
                if len(row) != width:
                    raise ValueError("all rows must have the same length")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        """The n x n identity matrix."""
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    def row(self, index: int) -> list[Fraction]:
        """A copy of row *index*."""
        return list(self._rows[index])

    def rows(self) -> list[list[Fraction]]:
        """A deep copy of all rows."""
        return [list(row) for row in self._rows]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self._rows)
        return f"RationalMatrix([{body}])"

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def transpose(self) -> "RationalMatrix":
        """The transposed matrix."""
        return RationalMatrix(
            [[self._rows[i][j] for i in range(self.n_rows)] for j in range(self.n_cols)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [
                [a - b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self._rows, other._rows)
            ]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        other_t = other.transpose()
        return RationalMatrix(
            [
                [
                    sum((a * b for a, b in zip(row, col)), Fraction(0))
                    for col in other_t._rows
                ]
                for row in self._rows
            ]
        )

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # ------------------------------------------------------------------ #
    # Elimination-based operations
    # ------------------------------------------------------------------ #
    def rref(self) -> tuple["RationalMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot column indices."""
        rows = [list(row) for row in self._rows]
        n_rows, n_cols = self.n_rows, self.n_cols
        pivots: list[int] = []
        pivot_row = 0
        for col in range(n_cols):
            if pivot_row >= n_rows:
                break
            candidate = next(
                (r for r in range(pivot_row, n_rows) if rows[r][col] != 0), None
            )
            if candidate is None:
                continue
            rows[pivot_row], rows[candidate] = rows[candidate], rows[pivot_row]
            pivot_value = rows[pivot_row][col]
            rows[pivot_row] = [v / pivot_value for v in rows[pivot_row]]
            for r in range(n_rows):
                if r != pivot_row and rows[r][col] != 0:
                    factor = rows[r][col]
                    rows[r] = [
                        v - factor * p for v, p in zip(rows[r], rows[pivot_row])
                    ]
            pivots.append(col)
            pivot_row += 1
        return RationalMatrix(rows), pivots

    def rank(self) -> int:
        """The rank of the matrix."""
        _, pivots = self.rref()
        return len(pivots)

    def inverse(self) -> "RationalMatrix":
        """The inverse matrix; raises ``ValueError`` when singular or non-square."""
        if self.n_rows != self.n_cols:
            raise ValueError("only square matrices can be inverted")
        n = self.n_rows
        augmented = RationalMatrix(
            [
                list(self._rows[i]) + list(RationalMatrix.identity(n)._rows[i])
                for i in range(n)
            ]
        )
        reduced, pivots = augmented.rref()
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        return RationalMatrix([reduced.row(i)[n:] for i in range(n)])
