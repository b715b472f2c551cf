"""Small helpers for exact rational arithmetic.

Everything in the scheduler substrate is computed with :class:`fractions.Fraction`
so that Farkas elimination, orthogonal complements and simplex pivots are exact.
This module gathers the handful of helpers shared by the polyhedra and
scheduler layers; ``math.gcd`` / ``math.lcm`` do the number theory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rational = Fraction | int

__all__ = [
    "Rational",
    "as_fraction",
    "scale_to_integers",
    "normalize_integer_row",
]


def as_fraction(value: Rational) -> Fraction:
    """Return *value* as a :class:`Fraction` (idempotent for Fractions)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def scale_to_integers(values: Sequence[Rational]) -> list[int]:
    """Scale a rational vector by its common denominator to obtain integers.

    The direction of the vector is preserved (the scaling factor is positive).
    """
    fractions = [as_fraction(v) for v in values]
    denom = lcm(*(fraction.denominator for fraction in fractions))
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
