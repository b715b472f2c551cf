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
  ``v = v_plus - v_minus``.  Boxes are the integral hulls
  :class:`~repro.ilp.problem.Variable` stores, so every shift is an integer.
* Every constraint row — a problem constraint, an explicit upper bound, a
  frozen lexicographic stage, a branching cut on a split variable, a probe's
  extra row — is encoded sparse and all-integer by
  :meth:`StandardFormEncoder.base_row`: the row is scaled by the common
  denominator of its data (1 on the scheduler's rows, which the sparse Farkas
  core hands over integral already), the non-zero terms are walked once into
  sorted ``(column, value)`` pairs, and the row is divided by its GCD.  No
  list over the column width is built at any point.
* Objectives are dense integer cost vectors (:meth:`objective_row`), built
  from the objective's terms: they feed the dense ``set_objective`` of the
  simplex core.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .problem import ConstraintSense, LinearProblem

__all__ = ["LpStatus", "StandardFormEncoder", "evaluate", "first_fractional", "negated"]


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
        self.shift_of: dict[str, int] = {}
        n_columns = 0
        for name, variable in problem.variables.items():
            self.column_of[name] = n_columns
            n_columns += 1
            if variable.lower is None:
                self.negative_column_of[name] = n_columns
                n_columns += 1
                self.shift_of[name] = 0
            else:
                self.shift_of[name] = variable.lower
        self.n_columns = n_columns

    def implicit_boxes(self) -> tuple[list[int | None], list[tuple[str, int]]]:
        """Column spans, and the upper bounds that still need a row.

        A shifted column gets its box width ``upper - lower`` as a span
        instead of an explicit LE row.  Split (free) variables and empty
        integral hulls (``upper < lower``) keep the row encoding — a bound
        over ``x = x+ - x-`` is not a column box, and a negative span is none.
        """
        spans: list[int | None] = [None] * self.n_columns
        explicit_upper: list[tuple[str, int]] = []
        for name, variable in self.problem.variables.items():
            upper = variable.upper
            if upper is None:
                continue
            if name not in self.negative_column_of and upper >= variable.lower:
                spans[self.column_of[name]] = upper - variable.lower
            else:
                explicit_upper.append((name, upper))
        return spans, explicit_upper

    def base_row(
        self, coefficients: Mapping[str, Fraction], rhs: Fraction
    ) -> tuple[tuple[tuple[int, int], ...], int]:
        """Sparse primitive integer row ``(pairs, rhs)`` of a constraint.

        The row is multiplied by the common denominator of its coefficients
        and right-hand side (1 on an integer row), so everything below is
        integer arithmetic over the non-zero terms only; the pairs come out
        in column order.  The GCD reduction then yields the one primitive row
        on the constraint's ray, whatever multiple of the denominators it was
        scaled by.
        """
        # ints and Fractions alike expose numerator/denominator.
        scale = rhs.denominator
        for coefficient in coefficients.values():
            if coefficient.denominator != 1:
                scale = lcm(scale, coefficient.denominator)
        accumulated: dict[int, int] = {}
        offset = 0
        for name, coefficient in coefficients.items():
            value = coefficient.numerator * (scale // coefficient.denominator)
            if value == 0:
                continue
            offset += value * self.shift_of[name]
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
        """Integer column costs, their positive scale, and the shift offset.

        ``objective . x == costs . v / scale + offset`` over the columns
        ``v``; costs and scale share no common factor.
        """
        scale = lcm(*(coefficient.denominator for coefficient in objective.values()))
        costs = [0] * self.n_columns
        offset = Fraction(0)
        for name, coefficient in objective.items():
            value = coefficient.numerator * (scale // coefficient.denominator)
            costs[self.column_of[name]] = value
            negative = self.negative_column_of.get(name)
            if negative is not None:
                costs[negative] = -value
            offset += coefficient * self.shift_of[name]
        g = gcd(scale, *costs)
        if g > 1:
            costs = [cost // g for cost in costs]
            scale //= g
        return costs, scale, offset

    def cut_row(
        self, name: str, sense: ConstraintSense, bound: int
    ) -> tuple[tuple[tuple[int, int], ...], int]:
        """Integer LE row of the single-variable cut ``name sense bound``."""
        row = self.base_row({name: 1}, bound)
        return negated(row) if sense is ConstraintSense.GE else row

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


def negated(
    row: tuple[tuple[tuple[int, int], ...], int]
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The row ``(pairs, rhs)`` times -1: a ``>=`` row as a ``<=`` row."""
    pairs, rhs = row
    return tuple((column, -value) for column, value in pairs), -rhs


def first_fractional(
    problem: LinearProblem, assignment: Mapping[str, Fraction]
) -> tuple[str, Fraction] | None:
    """The first variable (declaration order) with a fractional value."""
    for name in problem.variables:
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
