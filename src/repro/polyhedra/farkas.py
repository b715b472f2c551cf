"""Affine form of the Farkas lemma.

This is the central linearisation device of affine scheduling (Feautrier 1992,
Pluto 2008).  An affine form ``f(x)`` is non-negative everywhere on a non-empty
polyhedron ``P = { x | c_k(x) >= 0 }`` if and only if it can be written as

    f(x)  ≡  lambda_0 + sum_k lambda_k * c_k(x),        lambda_i >= 0.

In the scheduler, the coefficients of ``f`` are themselves unknowns of the ILP
(schedule coefficients, bounding-function coefficients...).  Matching the
coefficients of every dimension of ``x`` and of the constant term produces a
system that is linear in both the ILP unknowns and the Farkas multipliers; the
multipliers are then eliminated (Gaussian substitution + Fourier–Motzkin),
leaving constraints over the ILP unknowns only.

:func:`farkas_nonnegative` assembles the multiplier/ILP system as
:class:`~repro.linalg.sparse.SparseRow` objects (multipliers occupy the first
columns, ILP unknowns are interned behind them), eliminates it with redundancy
pruning by :class:`~repro.polyhedra.sparse_fm.SparseSystem`, and turns each
surviving sparse row straight into the ILP layer's row type,
:class:`~repro.ilp.problem.LinearConstraint` (its non-zero integer terms only,
no dense row or :class:`~repro.polyhedra.constraint.AffineConstraint` in
between).  The result is a tuple of those rows: the form the scheduler
remembers on a dependence and hands to every build.
:func:`farkas_nonnegative_reference` is the same linearisation over the
textbook dense elimination of :mod:`repro.polyhedra.fourier_motzkin`, returning
the same type; only the differential tests call it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from ..ilp.problem import ConstraintSense, LinearConstraint
from ..linalg.rational import as_fraction, scale_to_integers
from ..linalg.sparse import SparseRow
from ..linalg.varspace import VariableSpace
from ..obs import active_tracer, count
from .fourier_motzkin import (
    eliminate_columns,
    rows_to_constraints,
    simplify_rows,
)
from .polyhedron import Polyhedron
from .space import CONSTANT_KEY
from .sparse_fm import FmStatistics, SparseSystem

__all__ = [
    "farkas_nonnegative",
    "farkas_nonnegative_reference",
    "LinearCombination",
]

# A linear combination of ILP variables; CONSTANT_KEY maps to a literal constant.
LinearCombination = Mapping[str, Fraction]

_multiplier_counter = itertools.count()


def farkas_nonnegative(
    polyhedron: Polyhedron,
    coefficient_templates: Mapping[str, LinearCombination],
    constant_template: LinearCombination,
) -> tuple[LinearConstraint, ...]:
    """Linearise ``f(x) >= 0 for all x in polyhedron`` into ILP constraints.

    ``coefficient_templates`` maps each dimension name of the polyhedron to the
    linear combination of ILP variables forming the coefficient of that
    dimension in ``f``; ``constant_template`` is the combination forming the
    constant term of ``f``.  Dimensions missing from ``coefficient_templates``
    are treated as having a zero coefficient in ``f``.

    The returned constraints involve only the ILP variable names used in the
    templates (the Farkas multipliers are eliminated).  The multiplier
    elimination is counted on the work ledger under the ``fm_*`` names of
    :class:`~repro.polyhedra.sparse_fm.FmStatistics`, inside an ``fm.farkas``
    span.
    """
    inequality_rows = _multiplier_rows(polyhedron)
    with active_tracer().span(
        "fm.farkas", category="fm", multipliers=len(inequality_rows)
    ):
        return _farkas_sparse(
            inequality_rows, polyhedron.space.names, coefficient_templates,
            constant_template,
        )


def farkas_nonnegative_reference(
    polyhedron: Polyhedron,
    coefficient_templates: Mapping[str, LinearCombination],
    constant_template: LinearCombination,
) -> tuple[LinearConstraint, ...]:
    """:func:`farkas_nonnegative` over the textbook dense elimination.

    Same contract and multiplier rows, no redundancy pruning: the reference
    the differential tests hold the sparse linearisation against.
    """
    return _farkas_dense(
        _multiplier_rows(polyhedron), polyhedron.space.names,
        coefficient_templates, constant_template,
    )


def _multiplier_rows(polyhedron: Polyhedron) -> list[tuple[tuple[int, ...], int]]:
    """One ``(coefficients, constant)`` inequality per Farkas multiplier.

    Read off the polyhedron's integer rows over ``polyhedron.space.names``;
    equalities contribute a +/- pair so that every multiplier is
    sign-constrained.
    """
    inequality_rows: list[tuple[tuple[int, ...], int]] = []
    dimension_names = polyhedron.space.names
    names, rows, kinds, _ = polyhedron.row_view()
    positions = [dimension_names.index(name) for name in names]
    for row, is_equality in zip(rows, kinds):
        coefficients = [0] * len(dimension_names)
        for column, value in row.terms:
            coefficients[positions[column]] = value
        inequality_rows.append((tuple(coefficients), row.constant))
        if is_equality:
            inequality_rows.append(
                (tuple(-value for value in coefficients), -row.constant)
            )
    return inequality_rows


# --------------------------------------------------------------------------- #
# Sparse core
# --------------------------------------------------------------------------- #
def _farkas_sparse(
    inequality_rows: list[tuple[tuple[int, ...], int]],
    dimension_names: Sequence[str],
    coefficient_templates: Mapping[str, LinearCombination],
    constant_template: LinearCombination,
) -> tuple[LinearConstraint, ...]:
    n_multipliers = len(inequality_rows)
    # Column layout: [multipliers | ILP variables]; the constant is carried by
    # the rows themselves.  ILP columns are interned on the fly.
    ilp_space = VariableSpace()

    def template_terms(
        template: LinearCombination,
    ) -> tuple[list[tuple[int, Fraction]], Fraction]:
        terms: list[tuple[int, Fraction]] = []
        constant = Fraction(0)
        for name, value in template.items():
            value = as_fraction(value)
            if name == CONSTANT_KEY:
                constant += value
            elif value:
                terms.append((n_multipliers + ilp_space.intern(name), value))
        return terms, constant

    rows: list[SparseRow] = []
    kinds: list[bool] = []

    # Multipliers are non-negative (rows are canonical by construction).
    for index in range(n_multipliers):
        rows.append(SparseRow(((index, 1),), 0))
        kinds.append(False)

    # Coefficient matching for every dimension of the polyhedron.
    for position, dimension in enumerate(dimension_names):
        terms, constant = template_terms(coefficient_templates.get(dimension, {}))
        pairs: list[tuple[int, Fraction]] = [
            (index, -coefficients[position])
            for index, (coefficients, _) in enumerate(inequality_rows)
            if coefficients[position]
        ]
        pairs.extend(terms)
        rows.append(SparseRow.from_rational_terms(pairs, constant))
        kinds.append(True)

    # Constant matching: the residue equals lambda_0 >= 0, so an inequality suffices.
    terms, constant = template_terms(constant_template)
    pairs = [
        (index, -row_constant)
        for index, (_, row_constant) in enumerate(inequality_rows)
        if row_constant
    ]
    pairs.extend(terms)
    rows.append(SparseRow.from_rational_terms(pairs, constant))
    kinds.append(False)

    system = SparseSystem.from_rows(rows, kinds)
    system.eliminate_columns(range(n_multipliers))
    for name, amount in system.stats.as_dict().items():
        count(name, amount)

    # Only ILP columns survive: column n_multipliers + k is ilp_space.names[k].
    names = ilp_space.names
    return tuple(
        LinearConstraint(
            {names[column - n_multipliers]: value for column, value in row.terms},
            ConstraintSense.EQ if is_equality else ConstraintSense.GE,
            -row.constant,
        )
        for row, is_equality in system.rows()
    )


# --------------------------------------------------------------------------- #
# Dense reference (behind farkas_nonnegative_reference)
# --------------------------------------------------------------------------- #
def _farkas_dense(
    inequality_rows: list[tuple[tuple[int, ...], int]],
    dimension_names: Sequence[str],
    coefficient_templates: Mapping[str, LinearCombination],
    constant_template: LinearCombination,
    stats: FmStatistics | None = None,
) -> tuple[LinearConstraint, ...]:
    n_multipliers = len(inequality_rows)
    # Column layout: [multipliers | ILP variables | constant].  The ILP-variable
    # columns are interned on the fly while the template rows are assembled.
    ilp_space = VariableSpace()

    def template_row(template: LinearCombination) -> tuple[list[Fraction], Fraction]:
        terms = {name: value for name, value in template.items() if name != CONSTANT_KEY}
        constant = as_fraction(template.get(CONSTANT_KEY, 0))
        return ilp_space.encode(terms), constant

    fraction_rows: list[tuple[list[Fraction], list[Fraction], Fraction, bool]] = []
    # Each pending row: (multiplier part, ILP part, constant, is_equality).

    # Multipliers are non-negative.
    for index in range(n_multipliers):
        multiplier_part = [Fraction(0)] * n_multipliers
        multiplier_part[index] = Fraction(1)
        fraction_rows.append((multiplier_part, [], Fraction(0), False))

    # Coefficient matching for every dimension of the polyhedron.
    for position, dimension in enumerate(dimension_names):
        ilp_part, constant = template_row(coefficient_templates.get(dimension, {}))
        multiplier_part = [
            -coefficients[position] for coefficients, _ in inequality_rows
        ]
        fraction_rows.append((multiplier_part, ilp_part, constant, True))

    # Constant matching: the residue equals lambda_0 >= 0, so an inequality suffices.
    ilp_part, constant = template_row(constant_template)
    multiplier_part = [-row_constant for _, row_constant in inequality_rows]
    fraction_rows.append((multiplier_part, ilp_part, constant, False))

    # Assemble the dense integer system now that the ILP column count is known.
    n_ilp = len(ilp_space)
    rows: list[list[int]] = []
    kinds: list[bool] = []
    for multiplier_part, ilp_part, constant, is_equality in fraction_rows:
        dense = list(multiplier_part)
        dense.extend(ilp_part)
        dense.extend([Fraction(0)] * (n_ilp - len(ilp_part)))
        dense.append(constant)
        rows.append(scale_to_integers(dense))
        kinds.append(is_equality)

    rows, kinds = eliminate_columns(rows, kinds, range(n_multipliers), stats=stats)
    rows, kinds = simplify_rows(rows, kinds, stats=stats)

    # Only the ILP columns survive; re-index them for the named conversion.
    # The multiplier placeholder names must be distinct from every ILP
    # variable name (they never appear in the output rows, but a colliding
    # name would make the space narrower than the rows): lengthen the prefix
    # until no ILP name can alias it.
    prefix = f"__farkas{next(_multiplier_counter)}"
    while any(name.startswith(prefix) for name in ilp_space.names):
        prefix = "_" + prefix
    named_space = VariableSpace(
        [f"{prefix}_{k}" for k in range(n_multipliers)] + list(ilp_space.names)
    )
    return tuple(
        LinearConstraint(
            dict(constraint.expression.coefficients),
            ConstraintSense.EQ if constraint.is_equality else ConstraintSense.GE,
            -constraint.expression.constant,
        )
        for constraint in rows_to_constraints(rows, kinds, named_space)
    )
