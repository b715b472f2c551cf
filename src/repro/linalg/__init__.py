"""Exact rational linear algebra substrate.

This subpackage provides the dense rational matrix type and the handful of
lattice / complement computations that the polyhedral layers are built on.
"""

from .matrix import RationalMatrix
from .orthogonal import orthogonal_complement, orthogonal_complement_rows
from .rational import (
    Rational,
    as_fraction,
    common_denominator,
    gcd_many,
    is_integral,
    lcm,
    lcm_many,
    normalize_integer_row,
    scale_to_integers,
)
from .sparse import SparseRow
from .varspace import (
    VariableSpace,
    clear_denominators,
    reduce_integer_row,
)

__all__ = [
    "RationalMatrix",
    "SparseRow",
    "Rational",
    "as_fraction",
    "common_denominator",
    "gcd_many",
    "is_integral",
    "lcm",
    "lcm_many",
    "normalize_integer_row",
    "scale_to_integers",
    "VariableSpace",
    "clear_denominators",
    "reduce_integer_row",
    "orthogonal_complement",
    "orthogonal_complement_rows",
]
