"""Affine expressions over named dimensions.

An :class:`AffineExpr` is ``sum(coefficients[name] * name) + constant`` with
integer (or exact rational) coefficients.  It supports the small algebra needed
by domains, access functions and schedules: addition, subtraction, scaling,
substitution and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping

from ..linalg.rational import Rational, as_fraction
from .space import CONSTANT_KEY

__all__ = ["AffineExpr"]


@dataclass(frozen=True)
class AffineExpr:
    """An affine expression ``sum_i c_i * x_i + c0`` over named dimensions."""

    coefficients: dict[str, Fraction] = field(default_factory=dict)
    constant: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        cleaned = {
            name: as_fraction(value)
            for name, value in self.coefficients.items()
            if as_fraction(value) != 0
        }
        object.__setattr__(self, "coefficients", cleaned)
        object.__setattr__(self, "constant", as_fraction(self.constant))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def variable(cls, name: str) -> "AffineExpr":
        """The expression consisting of a single dimension with coefficient 1."""
        return cls({name: Fraction(1)})

    @classmethod
    def const(cls, value: Rational) -> "AffineExpr":
        """A constant expression."""
        return cls({}, as_fraction(value))

    @classmethod
    def from_terms(cls, terms: Mapping[str, Rational], constant: Rational = 0) -> "AffineExpr":
        """Build from a ``{name: coefficient}`` mapping plus a constant."""
        return cls({k: as_fraction(v) for k, v in terms.items()}, as_fraction(constant))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def coefficient(self, name: str) -> Fraction:
        """Coefficient of dimension *name* (0 when absent)."""
        return self.coefficients.get(name, Fraction(0))

    def variables(self) -> set[str]:
        """Dimension names with non-zero coefficients."""
        return set(self.coefficients)

    def is_constant(self) -> bool:
        return not self.coefficients

    def is_zero(self) -> bool:
        return not self.coefficients and self.constant == 0

    def as_dict(self) -> dict[str, Fraction]:
        """Coefficients plus the constant under :data:`CONSTANT_KEY`."""
        result = dict(self.coefficients)
        if self.constant != 0:
            result[CONSTANT_KEY] = self.constant
        return result

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        other = _coerce(other)
        coefficients = dict(self.coefficients)
        for name, value in other.coefficients.items():
            coefficients[name] = coefficients.get(name, Fraction(0)) + value
        return AffineExpr(coefficients, self.constant + other.constant)

    def __radd__(self, other: Rational) -> "AffineExpr":
        return self.__add__(other)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({k: -v for k, v in self.coefficients.items()}, -self.constant)

    def __sub__(self, other: "AffineExpr | Rational") -> "AffineExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: Rational) -> "AffineExpr":
        return (-self) + other

    def __mul__(self, factor: Rational) -> "AffineExpr":
        f = as_fraction(factor)
        return AffineExpr({k: v * f for k, v in self.coefficients.items()}, self.constant * f)

    def __rmul__(self, factor: Rational) -> "AffineExpr":
        return self.__mul__(factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.coefficients == other.coefficients and self.constant == other.constant

    def __hash__(self) -> int:
        return hash((frozenset(self.coefficients.items()), self.constant))

    # ------------------------------------------------------------------ #
    # Substitution / evaluation
    # ------------------------------------------------------------------ #
    def substitute(self, bindings: Mapping[str, "AffineExpr | Rational"]) -> "AffineExpr":
        """Replace dimensions by affine expressions (or constants)."""
        result = AffineExpr({}, self.constant)
        for name, coeff in self.coefficients.items():
            if name in bindings:
                result = result + _coerce(bindings[name]) * coeff
            else:
                result = result + AffineExpr({name: coeff})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename dimensions according to *mapping* (missing names unchanged)."""
        return AffineExpr(
            {mapping.get(name, name): value for name, value in self.coefficients.items()},
            self.constant,
        )

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """Numeric value of the expression for a full assignment of its dimensions."""
        total = self.constant
        for name, coeff in self.coefficients.items():
            if name not in values:
                raise KeyError(f"no value provided for dimension {name!r}")
            total += coeff * as_fraction(values[name])
        return total

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[str, int], ...], int, int]:
        """``(terms, constant, denominator)`` with the expression equal to
        ``(sum(c * name for name, c in terms) + constant) / denominator``.

        Every number is a plain ``int`` and ``denominator > 0``, so integer
        points evaluate without a single :class:`Fraction`: floor and ceiling
        are one floor-division of the numerator, the sign is the numerator's.
        """
        denominators = [value.denominator for value in self.coefficients.values()]
        denominators.append(self.constant.denominator)
        denominator = lcm(*denominators)
        terms = tuple(
            (name, int(value * denominator)) for name, value in self.coefficients.items()
        )
        return terms, int(self.constant * denominator), denominator

    def __str__(self) -> str:
        parts: list[str] = []
        for name in sorted(self.coefficients):
            coeff = self.coefficients[name]
            if coeff == 1:
                parts.append(f"{name}")
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value: "AffineExpr | Rational") -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.const(value)
