"""The standard-form encoding of a :class:`LinearProblem`.

One module owns how a named problem becomes non-negative columns and integer
rows, and how column values become a named assignment again.  The production
solver (:mod:`repro.ilp.engine` on :mod:`repro.ilp.revised`) encodes through
it; so does the reference (:mod:`repro.ilp.branch_bound`, with
:mod:`repro.ilp.simplex` and :mod:`repro.ilp.backend` below it), which keeps
the two in lockstep on the shift/split column layout they are differentially
compared over.  Imports go one way: the reference modules import this one,
this one imports none of them, so nothing a compile loads is reference code.

* Every named variable becomes non-negative columns: a lower-bounded
  ``v >= L`` is shifted, ``v = L + v_plus``; a free variable is split,
  ``v = v_plus - v_minus``.  Bounds go through
  :meth:`Variable.normalized_bounds` — the one place boxes are normalised — so
  an integer variable with fractional bounds is encoded over its integral hull.
* Base rows (problem constraints, explicit upper bounds) are encoded sparse
  and all-integer, :meth:`StandardFormEncoder.base_row`: the row is scaled by
  the common denominator of its data (1 on the scheduler's rows, which the
  sparse Farkas core hands over integral already), the non-zero terms are
  walked once into ``(column, value)`` pairs, and the row is divided by its
  GCD.  No list over the column width is built at any point.
* Objectives, the rows freezing a lexicographic stage and single-variable
  branching cuts are dense integer rows (:meth:`objective_row`,
  :meth:`level_row`, :meth:`cut_row`): they feed the dense ``set_objective`` /
  ``add_le_row`` of the simplex core.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from ..linalg.rational import as_fraction, normalize_integer_row, scale_to_integers
from .problem import ConstraintSense, LinearProblem

__all__ = ["LpStatus", "StandardFormEncoder", "evaluate", "first_fractional"]


class LpStatus(Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class StandardFormEncoder:
    """Column layout, row encodings and decode of one :class:`LinearProblem`."""

    def __init__(self, problem: LinearProblem):
        self.problem = problem
        self.column_of: dict[str, int] = {}
        self.negative_column_of: dict[str, int] = {}
        self.shift_of: dict[str, Fraction] = {}
        self.box_of: dict[str, tuple[Fraction | None, Fraction | None]] = {}
        n_columns = 0
        for name, variable in problem.variables.items():
            lower, upper = variable.normalized_bounds()
            self.box_of[name] = (lower, upper)
            self.column_of[name] = n_columns
            n_columns += 1
            if lower is None:
                self.negative_column_of[name] = n_columns
                n_columns += 1
                self.shift_of[name] = Fraction(0)
            else:
                self.shift_of[name] = lower
        self.n_columns = n_columns
        # 1 unless a continuous variable has a fractional lower bound.
        self._shift_denominator = lcm(
            *(shift.denominator for shift in self.shift_of.values())
        )

    def implicit_boxes(self) -> tuple[list[int | None], list[tuple[str, Fraction]]]:
        """Column spans, and the upper bounds that still need a row.

        A shifted column whose ``[0, upper - lower]`` width is an integer gets
        a span instead of an explicit LE row.  Split (free) variables and
        fractional-width boxes keep the row encoding — a bound over
        ``x = x+ - x-`` is not a column box.
        """
        spans: list[int | None] = [None] * self.n_columns
        explicit_upper: list[tuple[str, Fraction]] = []
        for name, (lower, upper) in self.box_of.items():
            if upper is None:
                continue
            if lower is not None and name not in self.negative_column_of:
                width = upper - lower
                if width.denominator == 1 and width >= 0:
                    spans[self.column_of[name]] = int(width)
                    continue
            explicit_upper.append((name, upper))
        return spans, explicit_upper

    def encode_terms(
        self, coefficients: Mapping[str, Fraction]
    ) -> tuple[list[Fraction], Fraction]:
        """Return (dense column coefficients, constant offset) for a linear expression."""
        row = [Fraction(0)] * self.n_columns
        offset = Fraction(0)
        for name, coeff in coefficients.items():
            coeff = as_fraction(coeff)
            row[self.column_of[name]] += coeff
            negative = self.negative_column_of.get(name)
            if negative is not None:
                row[negative] -= coeff
            offset += coeff * self.shift_of[name]
        return row, offset

    def base_row(
        self, coefficients: Mapping[str, Fraction], rhs: Fraction
    ) -> tuple[tuple[tuple[int, int], ...], int]:
        """Sparse primitive integer row ``(pairs, rhs)`` of a constraint.

        The row is multiplied by a common denominator of its coefficients,
        the shifts they meet and the right-hand side (1 on an integer row), so
        everything below is integer arithmetic over the non-zero terms only.
        The GCD reduction then yields the one primitive row on the
        constraint's ray, whatever multiple of the denominators it was scaled
        by.
        """
        # ints and Fractions alike expose numerator/denominator.
        shifts = self._shift_denominator
        scale = lcm(rhs.denominator, shifts)
        for coefficient in coefficients.values():
            if coefficient.denominator != 1:
                scale = lcm(scale, coefficient.denominator * shifts)
        accumulated: dict[int, int] = {}
        offset = 0
        for name, coefficient in coefficients.items():
            value = coefficient.numerator * (scale // coefficient.denominator)
            if value == 0:
                continue
            shift = self.shift_of[name]
            if shift:
                offset += value * shift.numerator // shift.denominator
            column = self.column_of[name]
            accumulated[column] = accumulated.get(column, 0) + value
            negative = self.negative_column_of.get(name)
            if negative is not None:
                accumulated[negative] = accumulated.get(negative, 0) - value
        rhs_value = rhs.numerator * (scale // rhs.denominator) - offset
        pairs = sorted(
            (column, value) for column, value in accumulated.items() if value
        )
        g = 0
        for _, value in pairs:
            g = gcd(g, value)
            if g == 1:
                break
        if g != 1:
            g = gcd(g, rhs_value)
        if g > 1:
            pairs = [(column, value // g) for column, value in pairs]
            rhs_value //= g
        return tuple(pairs), rhs_value

    def objective_row(
        self, objective: Mapping[str, Fraction]
    ) -> tuple[list[int], int, Fraction]:
        """Integer column costs, their positive scale, and the shift offset."""
        dense, offset = self.encode_terms(objective)
        # The trailing 1 records the positive factor the row was scaled by;
        # the GCD reduction divides costs and factor alike, so the readout
        # `tableau_value / scale` stays exact.
        costs, scale = _primitive_row(dense, Fraction(1))
        return costs, scale, offset

    def level_row(
        self, objective: Mapping[str, Fraction], value: Fraction
    ) -> tuple[list[int], int]:
        """Dense integer row ``objective . x == value`` (the caller adds it
        as a pair of LE rows)."""
        dense, offset = self.encode_terms(objective)
        return _primitive_row(dense, value - offset)

    def cut_row(
        self, name: str, sense: ConstraintSense, bound: Fraction, width: int
    ) -> tuple[list[int], int]:
        """Integer LE-row over *width* columns for a single-variable cut."""
        dense = [Fraction(0)] * width
        column = self.column_of[name]
        negative = self.negative_column_of.get(name)
        rhs = bound - self.shift_of[name]
        if sense is ConstraintSense.LE:
            dense[column] = Fraction(1)
            if negative is not None:
                dense[negative] = Fraction(-1)
        else:  # GE: negate into a LE row
            dense[column] = Fraction(-1)
            if negative is not None:
                dense[negative] = Fraction(1)
            rhs = -rhs
        return _primitive_row(dense, rhs)

    def decode(self, values: list[Fraction]) -> dict[str, Fraction]:
        """Map standard-form values back to named-variable values."""
        assignment: dict[str, Fraction] = {}
        for name in self.problem.variables:
            value = values[self.column_of[name]] if self.column_of[name] < len(values) else Fraction(0)
            negative = self.negative_column_of.get(name)
            if negative is not None and negative < len(values):
                value -= values[negative]
            assignment[name] = value + self.shift_of[name]
        return assignment


def _primitive_row(dense: list[Fraction], rhs: Fraction) -> tuple[list[int], int]:
    """Denominators cleared, GCD-reduced: (integer coefficients, integer rhs)."""
    integer = normalize_integer_row(scale_to_integers(dense + [rhs]))
    return integer[:-1], integer[-1]


def first_fractional(
    problem: LinearProblem, assignment: Mapping[str, Fraction]
) -> tuple[str, Fraction] | None:
    """The first integer variable (declaration order) with a fractional value."""
    for name, variable in problem.variables.items():
        if not variable.is_integer:
            continue
        value = assignment.get(name, Fraction(0))
        if value.denominator != 1:
            return name, value
    return None


def evaluate(objective: Mapping[str, Fraction], assignment: Mapping[str, Fraction]) -> Fraction:
    """Exact value of *objective* at *assignment*."""
    return sum(
        (coeff * assignment.get(name, Fraction(0)) for name, coeff in objective.items()),
        Fraction(0),
    )
