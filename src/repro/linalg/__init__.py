"""Exact integer and rational linear algebra substrate.

This subpackage provides the number-theoretic row helpers, the sparse integer
rows and variable interning of the polyhedral layers, and the fraction-free
LU/eta file of the revised simplex (:mod:`repro.linalg.sparse_lu`).  The
orthogonal complement of the progression constraint (paper Eq. 3) is kept by
:class:`repro.scheduler.progression.ProgressionState` itself.
"""

from .rational import (
    Rational,
    as_fraction,
    normalize_integer_row,
    scale_to_integers,
)
from .sparse import SparseRow
from .varspace import VariableSpace

__all__ = [
    "SparseRow",
    "Rational",
    "as_fraction",
    "normalize_integer_row",
    "scale_to_integers",
    "VariableSpace",
]
