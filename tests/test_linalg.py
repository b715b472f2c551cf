"""Unit and property tests for the exact linear algebra substrate."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    RationalMatrix,
    as_fraction,
    common_denominator,
    gcd_many,
    is_integral,
    lcm,
    lcm_many,
    normalize_integer_row,
    orthogonal_complement,
    orthogonal_complement_rows,
    scale_to_integers,
)


class TestRationalHelpers:
    def test_as_fraction_idempotent(self):
        assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
        assert as_fraction(5) == Fraction(5)

    def test_lcm_basic(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 7) == 7
        assert lcm(7, 0) == 7

    def test_lcm_many(self):
        assert lcm_many([2, 3, 4]) == 12
        assert lcm_many([]) == 1

    def test_gcd_many(self):
        assert gcd_many([12, 18, 24]) == 6
        assert gcd_many([]) == 0
        assert gcd_many([-4, 6]) == 2

    def test_common_denominator(self):
        assert common_denominator([Fraction(1, 2), Fraction(1, 3)]) == 6
        assert common_denominator([1, 2]) == 1

    def test_scale_to_integers_preserves_direction(self):
        scaled = scale_to_integers([Fraction(1, 2), Fraction(-1, 3)])
        assert scaled == [3, -2]

    def test_normalize_integer_row(self):
        assert normalize_integer_row([4, 8, -12]) == [1, 2, -3]
        assert normalize_integer_row([0, 0]) == [0, 0]

    def test_is_integral(self):
        assert is_integral(Fraction(4, 2))
        assert not is_integral(Fraction(1, 3))


class TestRationalMatrix:
    def test_identity_and_shape(self):
        identity = RationalMatrix.identity(3)
        assert identity.shape == (3, 3)
        assert identity[0, 0] == 1 and identity[0, 1] == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_addition_and_subtraction(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = RationalMatrix([[4, 3], [2, 1]])
        assert (a - b) == RationalMatrix([[-3, -1], [1, 3]])
        assert a - (a - b) == b
        assert (a - a) == RationalMatrix([[0, 0], [0, 0]])

    def test_matmul(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        identity = RationalMatrix.identity(2)
        assert a @ identity == a
        assert (a @ a) == RationalMatrix([[7, 10], [15, 22]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])

    def test_transpose(self):
        a = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().shape == (3, 2)
        assert a.transpose()[2, 1] == 6

    def test_rank_and_rref(self):
        a = RationalMatrix([[1, 2], [2, 4]])
        assert a.rank() == 1
        reduced, pivots = a.rref()
        assert pivots == [0]
        assert reduced.row(1) == [Fraction(0), Fraction(0)]

    def test_inverse_roundtrip(self):
        a = RationalMatrix([[2, 1], [1, 1]])
        assert a @ a.inverse() == RationalMatrix.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [2, 4]]).inverse()

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, rows):
        matrix = RationalMatrix(rows)
        if matrix.rank() < 3:
            return
        assert matrix @ matrix.inverse() == RationalMatrix.identity(3)


class TestOrthogonalComplement:
    def test_empty_rows_is_identity(self):
        assert orthogonal_complement([], 3) == RationalMatrix.identity(3)

    def test_full_span_is_zero(self):
        complement = orthogonal_complement([[1, 0], [0, 1]], 2)
        assert complement.rows() == [[0, 0], [0, 0]]

    def test_rows_are_orthogonal_to_span(self):
        rows = [[1, 1, 0]]
        complement_rows = orthogonal_complement_rows(rows, 3)
        for row in complement_rows:
            assert sum(a * b for a, b in zip(row, [1, 1, 0])) == 0

    def test_complement_rows_integer(self):
        rows = orthogonal_complement_rows([[2, 1]], 2)
        for row in rows:
            assert all(isinstance(value, int) for value in row)

    def test_dependent_input_rows_handled(self):
        complement = orthogonal_complement([[1, 0], [2, 0]], 2)
        # Span is the x axis; the complement projects onto the y axis.
        assert complement.rows() == [[0, 0], [0, 1]]
