"""Polyhedral sets, affine expressions and the Farkas lemma.

This subpackage replaces the subset of isl functionality that an affine
scheduler needs: parametric integer polyhedra, projection, exact integer
emptiness and the affine form of the Farkas lemma.
"""

from .affine import AffineExpr
from .constraint import AffineConstraint, ConstraintKind
from .farkas import farkas_nonnegative
from .fourier_motzkin import eliminate_variables, simplify_constraints
from .polyhedron import Polyhedron
from .space import CONSTANT_KEY, Space
from .sparse_fm import FmStatistics, SparseSystem

__all__ = [
    "FmStatistics",
    "SparseSystem",
    "AffineExpr",
    "AffineConstraint",
    "ConstraintKind",
    "Polyhedron",
    "Space",
    "CONSTANT_KEY",
    "eliminate_variables",
    "simplify_constraints",
    "farkas_nonnegative",
]
