"""Sparse integer rows for the polyhedral elimination core.

The indexed Fourier–Motzkin/Farkas core historically stored every constraint
as a dense ``list[int]`` — one entry per interned column plus the constant.
Scheduler-sized systems are wide (multiplier columns plus every ILP
coefficient of every statement) but each individual constraint touches only a
handful of columns, so the dense rows waste both memory and the hot
combination loops (every ``a*row1 + b*row2`` walks the full width).

:class:`SparseRow` is the sparse replacement: an immutable, canonical
``((column, value), ...)`` tuple (sorted by column, values non-zero) plus the
integer constant, GCD-reduced on construction so that two rows describing the
same half-space (up to a positive scalar) are *equal objects* — which is what
lets :class:`repro.polyhedra.sparse_fm.SparseSystem` detect duplicates and
scalar multiples with a plain hash lookup.  Column indices refer to a
:class:`~repro.linalg.varspace.VariableSpace` owned by the caller; this module
never touches names.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .rational import Rational, as_fraction

__all__ = ["SparseRow"]


class SparseRow:
    """A GCD-reduced integer row ``sum(value * x_column) + constant``.

    The row is canonical: ``terms`` is sorted by column, holds no zero
    values, and ``gcd(*values, constant) == 1`` (or the row is all zero).
    Interpretation (equality vs ``>= 0``) is carried by the surrounding
    system (:class:`~repro.polyhedra.sparse_fm.SparseSystem` keeps one
    equality flag per row).
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: tuple[tuple[int, int], ...], constant: int):
        # Trusted constructor: *terms* must already be canonical.  Use the
        # ``from_*`` classmethods for unnormalised data.
        self.terms = terms
        self.constant = constant

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], constant: int
    ) -> "SparseRow":
        """Build from unsorted, possibly repeated ``(column, value)`` pairs."""
        merged: dict[int, int] = {}
        for column, value in pairs:
            if value:
                total = merged.get(column, 0) + value
                if total:
                    merged[column] = total
                else:
                    merged.pop(column, None)
        return cls._reduced(sorted(merged.items()), constant)

    @classmethod
    def from_dense(cls, row: Sequence[int]) -> "SparseRow":
        """Build from a dense integer row (constant last, dense-core layout)."""
        return cls._reduced(
            [(column, value) for column, value in enumerate(row[:-1]) if value],
            row[-1],
        )

    @classmethod
    def from_rational_terms(
        cls, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]],
        constant: Rational = 0,
    ) -> "SparseRow":
        """Build from rational ``column -> value`` data (denominators cleared).

        The scaling is by the positive LCM of the denominators, so the row
        describes the same half-space/hyperplane.
        """
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        # ints and Fractions both expose numerator/denominator: all-integral
        # data (every row the scheduler sees) never builds a Fraction.
        if constant.denominator == 1 and all(
            value.denominator == 1 for _, value in items
        ):
            return cls.from_pairs(
                ((column, value.numerator) for column, value in items),
                constant.numerator,
            )
        merged: dict[int, Fraction] = {}
        for column, value in items:
            value = as_fraction(value)
            if value:
                total = merged.get(column, Fraction(0)) + value
                if total:
                    merged[column] = total
                else:
                    merged.pop(column, None)
        constant_fraction = as_fraction(constant)
        denominator = lcm(
            *(value.denominator for value in merged.values()),
            constant_fraction.denominator,
        )
        return cls._reduced(
            sorted(
                (column, int(value * denominator))
                for column, value in merged.items()
            ),
            int(constant_fraction * denominator),
        )

    @classmethod
    def _reduced(
        cls, sorted_terms: list[tuple[int, int]], constant: int
    ) -> "SparseRow":
        divisor = abs(constant)
        for _, value in sorted_terms:
            divisor = gcd(divisor, value)
            if divisor == 1:
                break
        if divisor > 1:
            sorted_terms = [
                (column, value // divisor) for column, value in sorted_terms
            ]
            # Exact even for negative constants: *divisor* divides every entry.
            constant //= divisor
        return cls(tuple(sorted_terms), constant)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_constant(self) -> bool:
        """True when no column has a non-zero coefficient."""
        return not self.terms

    @property
    def nnz(self) -> int:
        """Number of non-zero coefficients (the constant not counted)."""
        return len(self.terms)

    def coefficient(self, column: int) -> int:
        for col, value in self.terms:
            if col == column:
                return value
            if col > column:
                return 0
        return 0

    def columns(self) -> tuple[int, ...]:
        return tuple(column for column, _ in self.terms)

    def to_dense(self, width: int) -> list[int]:
        """Dense-core layout: *width* coefficients followed by the constant."""
        dense = [0] * (width + 1)
        for column, value in self.terms:
            dense[column] = value
        dense[width] = self.constant
        return dense

    def decode(self, names: Sequence[str]) -> dict[str, Fraction]:
        """Named ``{name: value}`` view (zeros omitted, constant excluded)."""
        return {
            names[column]: Fraction(value) for column, value in self.terms
        }

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def negated(self) -> "SparseRow":
        return SparseRow(
            tuple((column, -value) for column, value in self.terms),
            -self.constant,
        )

    def sign_canonical(self) -> "SparseRow":
        """The row or its negation, whichever leads with a positive value.

        Two equalities describing the same hyperplane normalise to the same
        object (a GCD-reduced row and its negation are the only two canonical
        scalings of a hyperplane).
        """
        leading = self.terms[0][1] if self.terms else self.constant
        if leading < 0:
            return self.negated()
        return self

    @staticmethod
    def combine(a: int, row1: "SparseRow", b: int, row2: "SparseRow") -> "SparseRow":
        """The GCD-reduced row ``a*row1 + b*row2`` (sorted two-pointer merge)."""
        terms1 = row1.terms
        terms2 = row2.terms
        merged: list[tuple[int, int]] = []
        i = j = 0
        n1 = len(terms1)
        n2 = len(terms2)
        while i < n1 and j < n2:
            column1, value1 = terms1[i]
            column2, value2 = terms2[j]
            if column1 < column2:
                merged.append((column1, a * value1))
                i += 1
            elif column2 < column1:
                merged.append((column2, b * value2))
                j += 1
            else:
                value = a * value1 + b * value2
                if value:
                    merged.append((column1, value))
                i += 1
                j += 1
        for k in range(i, n1):
            column, value = terms1[k]
            merged.append((column, a * value))
        for k in range(j, n2):
            column, value = terms2[k]
            merged.append((column, b * value))
        return SparseRow._reduced(merged, a * row1.constant + b * row2.constant)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseRow)
            and self.terms == other.terms
            and self.constant == other.constant
        )

    def __hash__(self) -> int:
        return hash((self.terms, self.constant))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{value}*c{column}" for column, value in self.terms)
        return f"SparseRow({terms or '0'} + {self.constant})"
