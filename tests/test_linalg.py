"""Unit and property tests for the exact linear algebra substrate: the rational
helpers and the orthogonal complement the progression constraint keeps."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    as_fraction,
    normalize_integer_row,
    scale_to_integers,
)
from repro.scheduler.naming import iterator_coefficient
from repro.scheduler.progression import ProgressionState


class TestRationalHelpers:
    def test_as_fraction_idempotent(self):
        assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
        assert as_fraction(5) == Fraction(5)

    def test_scale_to_integers_preserves_direction(self):
        scaled = scale_to_integers([Fraction(1, 2), Fraction(-1, 3)])
        assert scaled == [3, -2]

    def test_normalize_integer_row(self):
        assert normalize_integer_row([4, 8, -12]) == [1, 2, -3]
        assert normalize_integer_row([0, 0]) == [0, 0]


# --------------------------------------------------------------------------- #
# The progression constraint's orthogonal complement (paper Eq. 3)
# --------------------------------------------------------------------------- #
ITERATORS = ("i", "j", "k", "l")


def _state(rows, depth: int) -> ProgressionState:
    # What the state reads of a statement: its name, iterators and depth.
    statement = SimpleNamespace(name="S", iterators=ITERATORS[:depth], depth=depth)
    state = ProgressionState([statement])
    for row in rows:
        state.record("S", row)
    return state


def _vectors(constraints, depth: int) -> list[list[int]]:
    """The coefficient vectors of Eq. 3 rows, in iterator order."""
    return [
        [row.coefficients.get(iterator_coefficient("S", name), 0) for name in ITERATORS[:depth]]
        for row in constraints
    ]


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Non-zero rows of the reduced row echelon form (Gauss–Jordan)."""
    rows = [list(row) for row in rows]
    pivot_row = 0
    for column in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][column]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        rows[pivot_row] = [value / rows[pivot_row][column] for value in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][column]:
                factor = rows[r][column]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows[:pivot_row]


def _closed_form(rows: list[list[int]], depth: int) -> list[list[Fraction]]:
    """``I - H^T (H H^T)^{-1} H`` with H a basis of the rows' span (the
    reduced echelon rows), the inverse taken by Gauss–Jordan on ``[G | I]``."""
    h = _rref([[Fraction(v) for v in row] for row in rows])
    identity = [[Fraction(int(r == c)) for c in range(depth)] for r in range(depth)]
    if not h:
        return identity
    n = len(h)
    gram = [[sum(a * b for a, b in zip(x, y)) for y in h] for x in h]
    augmented = _rref([gram[r] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)])
    inverse = [row[n:] for row in augmented]
    projection = [
        [
            sum(h[a][r] * inverse[a][b] * h[b][c] for a in range(n) for b in range(n))
            for c in range(depth)
        ]
        for r in range(depth)
    ]
    return [[identity[r][c] - projection[r][c] for c in range(depth)] for r in range(depth)]


class TestOrthogonalComplement:
    def test_empty_rows_is_identity(self):
        state = _state([], 3)
        assert state.rank("S") == 0
        assert _vectors(state.rows("S"), 3) == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
        ]
        assert [row.rhs for row in state.rows("S")] == [0, 0, 0, 1]

    def test_empty_span_complement_is_the_identity_of_its_depth(self):
        for depth in range(1, 5):
            state = _state([], depth)
            assert state.rank("S") == 0 and not state.is_complete("S")
            *complement, total = _vectors(state.rows("S"), depth)
            assert complement == [[int(r == c) for c in range(depth)] for r in range(depth)]
            assert total == [1] * depth

    def test_full_span_is_zero(self):
        state = _state([[1, 0], [0, 1]], 2)
        assert state.is_complete("S")
        assert state.rows("S") == ()

    def test_rows_are_orthogonal_to_span(self):
        state = _state([[1, 1, 0]], 3)
        *complement, total = _vectors(state.rows("S"), 3)
        assert complement and total == [sum(column) for column in zip(*complement)]
        for row in complement:
            assert sum(a * b for a, b in zip(row, [1, 1, 0])) == 0

    def test_complement_rows_integer(self):
        state = _state([[2, 1]], 2)
        for row in state.rows("S"):
            assert all(type(value) is int for value in row.coefficients.values())
        assert _vectors(state.rows("S"), 2) == [[1, -2], [-1, 2], [0, 0]]

    def test_dependent_input_rows_handled(self):
        # Span is the i axis; the complement projects onto the j axis.
        state = _state([[1, 0], [2, 0]], 2)
        assert state.rank("S") == 1
        assert _vectors(state.rows("S"), 2) == [[0, 1], [0, 1]]

    def test_rank_counts_independent_rows(self):
        state = _state([[1, 2], [2, 4], [0, 0]], 2)
        assert state.rank("S") == 1 and not state.is_complete("S")
        state.record("S", [Fraction(1, 2), Fraction(-3, 7)])
        assert state.rank("S") == 2 and state.is_complete("S")

    def test_a_row_of_the_wrong_width_is_rejected(self):
        state = _state([], 2)
        with pytest.raises(ValueError, match="3 iterator coefficients for depth 2"):
            state.record("S", [1, 2, 3])

    def test_rows_are_kept_until_the_span_changes(self):
        """One tuple per span: a row inside the span, and a record undone by
        pop, hand back the very objects built before."""
        state = _state([[1, 0, 0]], 3)
        rows = state.rows("S")
        assert state.rows("S") is rows
        state.record("S", [2, 0, 0])
        assert state.rows("S") is rows
        state.record("S", [0, 1, 1])
        assert state.rows("S") != rows
        state.pop("S")
        state.pop("S")
        assert state.rows("S") is rows and state.rank("S") == 1
        state.pop("S")
        with pytest.raises(IndexError):
            state.pop("S")

    @given(
        st.integers(1, 4).flatmap(
            lambda depth: st.tuples(
                st.just(depth),
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=depth, max_size=depth),
                    max_size=5,
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_complement_matches_the_closed_form(self, case):
        depth, rows = case
        state = _state([], depth)
        for count in range(len(rows) + 1):
            if count:
                state.record("S", rows[count - 1])
            rank = len(_rref([[Fraction(v) for v in row] for row in rows[:count]]))
            assert state.rank("S") == rank
            expected = [
                normalize_integer_row(scale_to_integers(line))
                for line in _closed_form(rows[:count], depth)
                if any(line)
            ]
            vectors = _vectors(state.rows("S"), depth)
            if rank == depth:
                assert vectors == []
            else:
                assert vectors[:-1] == expected
                assert vectors[-1] == [sum(column) for column in zip(*expected)]
