"""Affine constraints: equalities and inequalities over named dimensions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from ..linalg.rational import Rational, as_fraction
from .affine import AffineExpr

__all__ = ["ConstraintKind", "AffineConstraint"]


class ConstraintKind(Enum):
    """Kind of constraint: ``expr >= 0`` or ``expr == 0``."""

    INEQUALITY = ">="
    EQUALITY = "=="


@dataclass(frozen=True)
class AffineConstraint:
    """A constraint of the form ``expression >= 0`` or ``expression == 0``."""

    expression: AffineExpr
    kind: ConstraintKind = ConstraintKind.INEQUALITY

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def greater_equal(cls, left: AffineExpr | Rational, right: AffineExpr | Rational = 0) -> "AffineConstraint":
        """``left >= right``."""
        return cls(_as_expr(left) - _as_expr(right), ConstraintKind.INEQUALITY)

    @classmethod
    def less_equal(cls, left: AffineExpr | Rational, right: AffineExpr | Rational = 0) -> "AffineConstraint":
        """``left <= right``."""
        return cls(_as_expr(right) - _as_expr(left), ConstraintKind.INEQUALITY)

    @classmethod
    def equals(cls, left: AffineExpr | Rational, right: AffineExpr | Rational = 0) -> "AffineConstraint":
        """``left == right``."""
        return cls(_as_expr(left) - _as_expr(right), ConstraintKind.EQUALITY)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_equality(self) -> bool:
        return self.kind is ConstraintKind.EQUALITY

    def variables(self) -> set[str]:
        return self.expression.variables()

    def coefficient(self, name: str) -> Fraction:
        return self.expression.coefficient(name)

    def is_satisfied(self, values: Mapping[str, Rational]) -> bool:
        """Evaluate the constraint under a full assignment."""
        value = self.expression.evaluate(values)
        return value == 0 if self.is_equality else value >= 0

    def is_trivially_true(self) -> bool:
        """Constant constraints that always hold (e.g. ``3 >= 0`` or ``0 == 0``)."""
        if not self.expression.is_constant():
            return False
        constant = self.expression.constant
        return constant == 0 if self.is_equality else constant >= 0

    def is_trivially_false(self) -> bool:
        """Constant constraints that can never hold (e.g. ``-1 >= 0``)."""
        if not self.expression.is_constant():
            return False
        constant = self.expression.constant
        return constant != 0 if self.is_equality else constant < 0

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def rename(self, mapping: Mapping[str, str]) -> "AffineConstraint":
        return AffineConstraint(self.expression.rename(mapping), self.kind)

    def substitute(self, bindings: Mapping[str, AffineExpr | Rational]) -> "AffineConstraint":
        return AffineConstraint(self.expression.substitute(bindings), self.kind)

    def normalized(self) -> "AffineConstraint":
        """Scale to coprime integer coefficients (direction preserved)."""
        expr = self.expression
        denominators = [v.denominator for v in expr.coefficients.values()]
        denominators.append(expr.constant.denominator)
        scale = lcm(*denominators)
        expr = expr * scale
        numerators = [int(v) for v in expr.coefficients.values()] + [int(expr.constant)]
        divisor = gcd(*numerators)
        if divisor > 1:
            expr = expr * Fraction(1, divisor)
        return AffineConstraint(expr, self.kind)

    def negated_inequality(self) -> "AffineConstraint":
        """For an inequality ``e >= 0``, the (integer) negation ``-e - 1 >= 0``."""
        if self.is_equality:
            raise ValueError("cannot negate an equality into a single constraint")
        return AffineConstraint(-self.expression - 1, ConstraintKind.INEQUALITY)

    def __str__(self) -> str:
        return f"{self.expression} {self.kind.value} 0"


def _as_expr(value: AffineExpr | Rational) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.const(as_fraction(value))
