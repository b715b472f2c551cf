"""Variable elimination on affine constraint systems.

Two techniques are combined, mirroring what Pluto's Farkas machinery does:

* **Gaussian substitution** — when an equality involves the variable being
  eliminated it is used to substitute the variable away in every other
  constraint (with positive multipliers on inequalities so their direction is
  preserved);
* **Fourier–Motzkin** — otherwise each pair of a lower-bounding and an
  upper-bounding inequality is combined.

Over the rationals this yields the exact projection.  Over the integers the
result is the rational shadow, which is an over-approximation; this is exactly
what the legality/codegen layers need (guards re-establish exactness).

One core does the work and one is its reference:

* the **sparse core** (:mod:`repro.polyhedra.sparse_fm`) is what every caller
  runs: rows are sorted ``(column, value)`` pairs with per-column occurrence
  indices, and redundant rows are pruned (duplicate/scalar-multiple hashing,
  syntactic subsumption, Imbert/Kohler coefficient-bound drops) after every
  elimination step.  The public functions below speak
  :class:`AffineConstraint` and convert at the boundary;
  :func:`repro.polyhedra.farkas.farkas_nonnegative` and
  :class:`~repro.polyhedra.polyhedron.Polyhedron` feed it integer rows
  directly;
* the **textbook dense elimination** (:func:`constraints_to_rows`,
  :func:`eliminate_columns`, :func:`simplify_rows`,
  :func:`rows_to_constraints`) keeps every constraint as a plain
  ``list[int]`` — one entry per column interned through
  :class:`repro.linalg.varspace.VariableSpace` plus the constant — and prunes
  exact duplicates only.  Nothing in a compile calls it: it is the reference
  the differential tests validate the sparse core against.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, Sequence

from ..linalg.rational import normalize_integer_row, scale_to_integers
from ..linalg.sparse import SparseRow
from ..linalg.varspace import VariableSpace
from .affine import AffineExpr
from .constraint import AffineConstraint, ConstraintKind
from .sparse_fm import FmStatistics, SparseSystem

__all__ = [
    # AffineConstraint API
    "eliminate_variables",
    "simplify_constraints",
    # Indexed integer rows: sparse (production) and dense (reference)
    "constraints_to_rows",
    "rows_to_constraints",
    "constraints_to_sparse",
    "sparse_to_constraints",
    "eliminate_rows",
    "simplify_rows",
    "eliminate_column",
    "eliminate_columns",
]

# An indexed system is (rows, kinds): each row is a list of ints (one entry
# per column plus the constant last), kinds[i] is True for an equality row.
IndexedRows = list[list[int]]
RowKinds = list[bool]

# --------------------------------------------------------------------------- #
# Public (AffineConstraint) API
# --------------------------------------------------------------------------- #
def eliminate_variables(
    constraints: Sequence[AffineConstraint], names: Iterable[str]
) -> list[AffineConstraint]:
    """Eliminate several variables, one at a time (cheapest first)."""
    space = VariableSpace()
    sparse_rows, kinds = constraints_to_sparse(constraints, space)
    return eliminate_rows(space.names, sparse_rows, kinds, names)


def eliminate_rows(
    columns: Sequence[str],
    rows: Iterable[SparseRow],
    kinds: Iterable[bool],
    names: Iterable[str],
) -> list[AffineConstraint]:
    """:func:`eliminate_variables` fed integer rows over *columns*."""
    system = SparseSystem.from_rows(rows, kinds)
    system.eliminate_columns(
        [columns.index(name) for name in names if name in columns]
    )
    return sparse_to_constraints(system.rows(), columns)


def simplify_constraints(
    constraints: Sequence[AffineConstraint],
) -> list[AffineConstraint]:
    """Normalise coefficients, drop duplicates/subsumed and trivially-true constraints."""
    space = VariableSpace()
    sparse_rows, kinds = constraints_to_sparse(constraints, space)
    system = SparseSystem.from_rows(sparse_rows, kinds)
    return sparse_to_constraints(system.rows(), space.names)


# --------------------------------------------------------------------------- #
# Boundary conversions
# --------------------------------------------------------------------------- #
def constraints_to_rows(
    constraints: Sequence[AffineConstraint], space: VariableSpace
) -> tuple[IndexedRows, RowKinds]:
    """Intern every name of *constraints* into *space* and emit dense integer rows."""
    for constraint in constraints:
        for name in constraint.expression.coefficients:
            space.intern(name)
    width = len(space)
    rows: IndexedRows = []
    kinds: RowKinds = []
    for constraint in constraints:
        expression = constraint.expression
        dense: list[Fraction] = [Fraction(0)] * (width + 1)
        for name, value in expression.coefficients.items():
            dense[space.index_of(name)] = value
        dense[width] = expression.constant
        rows.append(scale_to_integers(dense))
        kinds.append(constraint.is_equality)
    return rows, kinds


def rows_to_constraints(
    rows: IndexedRows, kinds: RowKinds, space: VariableSpace
) -> list[AffineConstraint]:
    """Convert dense integer rows back into :class:`AffineConstraint` objects."""
    names = space.names
    constraints: list[AffineConstraint] = []
    for row, is_equality in zip(rows, kinds):
        coefficients = {
            names[column]: Fraction(value)
            for column, value in enumerate(row[:-1])
            if value != 0
        }
        expression = AffineExpr(coefficients, Fraction(row[-1]))
        kind = ConstraintKind.EQUALITY if is_equality else ConstraintKind.INEQUALITY
        constraints.append(AffineConstraint(expression, kind))
    return constraints


def constraints_to_sparse(
    constraints: Sequence[AffineConstraint], space: VariableSpace
) -> tuple[list[SparseRow], RowKinds]:
    """Intern every name of *constraints* into *space* and emit sparse rows."""
    rows: list[SparseRow] = []
    kinds: RowKinds = []
    for constraint in constraints:
        expression = constraint.expression
        rows.append(
            SparseRow.from_rational_terms(
                [
                    (space.intern(name), value)
                    for name, value in expression.coefficients.items()
                ],
                expression.constant,
            )
        )
        kinds.append(constraint.is_equality)
    return rows, kinds


def sparse_to_constraints(
    rows: Sequence[tuple[SparseRow, bool]], names: Sequence[str]
) -> list[AffineConstraint]:
    """Convert ``(SparseRow, is_equality)`` pairs over the columns *names*."""
    constraints: list[AffineConstraint] = []
    for row, is_equality in rows:
        expression = AffineExpr(row.decode(names), Fraction(row.constant))
        kind = ConstraintKind.EQUALITY if is_equality else ConstraintKind.INEQUALITY
        constraints.append(AffineConstraint(expression, kind))
    return constraints


# --------------------------------------------------------------------------- #
# Dense reference elimination (called by the differential tests only)
# --------------------------------------------------------------------------- #
def simplify_rows(
    rows: IndexedRows, kinds: RowKinds, stats: FmStatistics | None = None
) -> tuple[IndexedRows, RowKinds]:
    """GCD-reduce rows, drop duplicates and trivially-true rows (order kept)."""
    rows, kinds, _keys = _simplify_rows_cached(
        rows, kinds, [None] * len(rows), stats if stats is not None else FmStatistics()
    )
    return rows, kinds


def _simplify_rows_cached(
    rows: IndexedRows, kinds: RowKinds, keys: list[tuple | None], stats: FmStatistics
) -> tuple[IndexedRows, RowKinds, list[tuple]]:
    """Order-preserving simplify that only re-scans rows without a cached key.

    ``keys[i]`` is the dedup key of a row that already went through a
    simplify pass unchanged (so it is GCD-reduced and non-trivial), or
    ``None`` for a new/modified row.  Rows with a cached key are passed
    through untouched — this is what makes repeated elimination steps
    incremental: only the rows an elimination actually touched are scanned
    again (``FmStatistics.simplify_row_scans`` counts them).
    """
    seen: set[tuple] = set()
    out_rows: IndexedRows = []
    out_kinds: RowKinds = []
    out_keys: list[tuple] = []
    for row, is_equality, key in zip(rows, kinds, keys):
        if key is None:
            stats.simplify_row_scans += 1
            row = normalize_integer_row(row)
            if not any(row[:-1]):
                constant = row[-1]
                trivially_true = (constant == 0) if is_equality else (constant >= 0)
                if trivially_true:
                    continue
            key = (is_equality, tuple(row))
        if key in seen:
            continue
        seen.add(key)
        out_rows.append(row)
        out_kinds.append(is_equality)
        out_keys.append(key)
    return out_rows, out_kinds, out_keys


def eliminate_column(
    rows: IndexedRows,
    kinds: RowKinds,
    column: int,
    stats: FmStatistics | None = None,
) -> tuple[IndexedRows, RowKinds]:
    """Project the indexed system onto the columns other than *column*."""
    rows, kinds, _keys = _eliminate_column_cached(
        rows, kinds, [None] * len(rows), column,
        stats if stats is not None else FmStatistics(),
    )
    return rows, kinds


def _eliminate_column_cached(
    rows: IndexedRows,
    kinds: RowKinds,
    keys: list[tuple | None],
    column: int,
    stats: FmStatistics,
) -> tuple[IndexedRows, RowKinds, list[tuple]]:
    pivot_index: int | None = None
    pivot_magnitude = 0
    for index, (row, is_equality) in enumerate(zip(rows, kinds)):
        if is_equality and row[column] != 0:
            magnitude = abs(row[column])
            if pivot_index is None or magnitude < pivot_magnitude:
                pivot_index = index
                pivot_magnitude = magnitude
    if pivot_index is not None:
        return _simplify_rows_cached(
            *_substitute_with_equality(rows, kinds, keys, pivot_index, column, stats),
            stats,
        )
    return _simplify_rows_cached(
        *_fourier_motzkin_step(rows, kinds, keys, column, stats), stats
    )


def eliminate_columns(
    rows: IndexedRows,
    kinds: RowKinds,
    columns: Iterable[int],
    stats: FmStatistics | None = None,
) -> tuple[IndexedRows, RowKinds]:
    """Eliminate several columns, one at a time (cheapest first)."""
    stats = stats if stats is not None else FmStatistics()
    started = time.perf_counter()
    remaining = list(columns)
    keys: list[tuple | None] = [None] * len(rows)
    while remaining:
        # Pick the column whose elimination produces the fewest new rows:
        # 0 when an equality can substitute it away, lower-bound count times
        # upper-bound count for a pure Fourier–Motzkin step.
        positives = dict.fromkeys(remaining, 0)
        negatives = dict.fromkeys(remaining, 0)
        equalities = dict.fromkeys(remaining, False)
        for row, is_equality in zip(rows, kinds):
            for column in remaining:
                value = row[column]
                if value == 0:
                    continue
                if is_equality:
                    equalities[column] = True
                elif value > 0:
                    positives[column] += 1
                else:
                    negatives[column] += 1
        best = None
        best_cost = None
        for column in remaining:
            cost = 0 if equalities[column] else positives[column] * negatives[column]
            if best_cost is None or cost < best_cost:
                best = column
                best_cost = cost
        assert best is not None
        remaining.remove(best)
        rows, kinds, keys = _eliminate_column_cached(rows, kinds, keys, best, stats)
        stats.eliminations += 1
    stats.elimination_seconds += time.perf_counter() - started
    stats.rows_emitted += len(rows)
    return rows, kinds


def _substitute_with_equality(
    rows: IndexedRows,
    kinds: RowKinds,
    keys: list[tuple | None],
    pivot_index: int,
    column: int,
    stats: FmStatistics,
) -> tuple[IndexedRows, RowKinds, list[tuple | None]]:
    pivot = rows[pivot_index]
    pivot_coefficient = pivot[column]
    sign = 1 if pivot_coefficient > 0 else -1
    magnitude = abs(pivot_coefficient)
    out_rows: IndexedRows = []
    out_kinds: RowKinds = []
    out_keys: list[tuple | None] = []
    for index, (row, is_equality) in enumerate(zip(rows, kinds)):
        if index == pivot_index:
            continue
        coefficient = row[column]
        if coefficient == 0:
            out_rows.append(row)
            out_kinds.append(is_equality)
            out_keys.append(keys[index])
            continue
        # magnitude * row  -  sign * coefficient * pivot  cancels the column and
        # keeps the multiplier on the (possibly) inequality row positive.
        factor = sign * coefficient
        out_rows.append(
            [magnitude * value - factor * p for value, p in zip(row, pivot)]
        )
        out_kinds.append(is_equality)
        out_keys.append(None)
        stats.rows_generated += 1
    return out_rows, out_kinds, out_keys


def _fourier_motzkin_step(
    rows: IndexedRows,
    kinds: RowKinds,
    keys: list[tuple | None],
    column: int,
    stats: FmStatistics,
) -> tuple[IndexedRows, RowKinds, list[tuple | None]]:
    unrelated_rows: IndexedRows = []
    unrelated_kinds: RowKinds = []
    unrelated_keys: list[tuple | None] = []
    lower_bounds: IndexedRows = []  # positive coefficient on the column
    upper_bounds: IndexedRows = []  # negative coefficient on the column
    for row, is_equality, key in zip(rows, kinds, keys):
        coefficient = row[column]
        if coefficient == 0:
            unrelated_rows.append(row)
            unrelated_kinds.append(is_equality)
            unrelated_keys.append(key)
        elif is_equality:
            raise AssertionError("equalities involving the column are handled by substitution")
        elif coefficient > 0:
            lower_bounds.append(row)
        else:
            upper_bounds.append(row)
    combined: IndexedRows = []
    for lower in lower_bounds:
        a = lower[column]
        for upper in upper_bounds:
            b = -upper[column]
            combined.append([b * lv + a * uv for lv, uv in zip(lower, upper)])
    stats.rows_generated += len(combined)
    return (
        unrelated_rows + combined,
        unrelated_kinds + [False] * len(combined),
        unrelated_keys + [None] * len(combined),
    )
