"""Small helpers for exact rational arithmetic.

Everything in the scheduler substrate is computed with :class:`fractions.Fraction`
so that Farkas elimination, orthogonal complements and simplex pivots are exact.
This module gathers the handful of number-theoretic helpers shared by the
polyhedra, scheduler and ILP layers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction | int

__all__ = [
    "Rational",
    "as_fraction",
    "lcm",
    "lcm_many",
    "gcd_many",
    "common_denominator",
    "scale_to_integers",
    "normalize_integer_row",
    "is_integral",
]


def as_fraction(value: Rational) -> Fraction:
    """Return *value* as a :class:`Fraction` (idempotent for Fractions)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def lcm(a: int, b: int) -> int:
    """Least common multiple of two non-negative integers (lcm(0, x) == x)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return abs(a * b) // gcd(a, b)


def lcm_many(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of integers (1 for an empty iterable)."""
    result = 1
    for value in values:
        result = lcm(result, value)
    return result


def gcd_many(values: Iterable[int]) -> int:
    """Greatest common divisor of an iterable of integers (0 for an empty iterable)."""
    result = 0
    for value in values:
        result = gcd(result, abs(value))
    return result


def common_denominator(values: Iterable[Rational]) -> int:
    """Smallest positive integer d such that d * v is an integer for every v."""
    return lcm_many(as_fraction(v).denominator for v in values)


def scale_to_integers(values: Sequence[Rational]) -> list[int]:
    """Scale a rational vector by its common denominator to obtain integers.

    The direction of the vector is preserved (the scaling factor is positive).
    """
    fractions = [as_fraction(v) for v in values]
    denom = lcm_many(fraction.denominator for fraction in fractions)
    if denom == 1:
        return [fraction.numerator for fraction in fractions]
    return [int(fraction * denom) for fraction in fractions]


def normalize_integer_row(values: Sequence[int]) -> list[int]:
    """Divide an integer vector by the GCD of its entries (zero vectors unchanged)."""
    g = 0
    for value in values:
        g = gcd(g, value)
        if g == 1:
            return list(values)
    if g <= 1:
        return list(values)
    return [v // g for v in values]


def is_integral(value: Rational) -> bool:
    """True when *value* is an integer-valued rational."""
    return as_fraction(value).denominator == 1
