"""Orthogonal complement used by the progression constraint (paper Eq. 3).

Given the matrix ``H`` whose rows are the iterator parts of the schedule
dimensions already found for a statement, the next dimension must be linearly
independent of them.  The paper expresses this through the orthogonal
complement ``H_perp = I - H^T (H H^T)^{-1} H``: every row of ``H_perp`` dotted
with the next solution must be non-negative and their sum at least one
(search restricted to the positive orthant).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .matrix import RationalMatrix
from .rational import Rational, normalize_integer_row, scale_to_integers

__all__ = ["orthogonal_complement", "orthogonal_complement_rows"]


def _independent_rows(rows: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Select a maximal linearly independent subset of *rows* (in order)."""
    independent: list[list[Fraction]] = []
    for row in rows:
        candidate = independent + [[Fraction(v) for v in row]]
        if RationalMatrix(candidate).rank() == len(candidate):
            independent.append([Fraction(v) for v in row])
    return independent


def orthogonal_complement(rows: Sequence[Sequence[Rational]], width: int) -> RationalMatrix:
    """Return ``I - H^T (H H^T)^{-1} H`` for the row space spanned by *rows*.

    ``width`` is the dimension of the ambient space (number of iterator
    coefficients).  When *rows* is empty the identity matrix is returned; when
    *rows* spans the full space the zero matrix is returned.
    """
    identity = RationalMatrix.identity(width)
    independent = _independent_rows(rows)
    if not independent:
        return identity
    h = RationalMatrix(independent)
    if h.n_cols != width:
        raise ValueError(f"rows have width {h.n_cols}, expected {width}")
    gram = h @ h.transpose()
    projection = h.transpose() @ gram.inverse() @ h
    return identity - projection


def orthogonal_complement_rows(
    rows: Sequence[Sequence[Rational]], width: int
) -> list[list[int]]:
    """Integer-scaled non-zero rows of the orthogonal complement matrix.

    Each row is scaled to integer entries and normalised by its GCD.  The rows
    are exactly the ``H_perp_i`` vectors of the paper's progression constraint;
    an empty list means the previous solutions already span the full iterator
    space (the statement needs no further linearly-independent dimension).
    """
    complement = orthogonal_complement(rows, width)
    result: list[list[int]] = []
    for i in range(complement.n_rows):
        row = complement.row(i)
        if all(v == 0 for v in row):
            continue
        result.append(normalize_integer_row(scale_to_integers(row)))
    return result

