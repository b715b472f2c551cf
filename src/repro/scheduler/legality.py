"""Legality and bounding constraints for one scheduling dimension.

Both constraint families are universally quantified over a dependence
polyhedron and are linearised with the affine form of the Farkas lemma:

* **legality** (paper Eq. 2): ``phi_R(t) - phi_S(s) - delta >= 0`` for all
  ``(s, t)`` in the dependence, where ``delta`` is 0 for weak satisfaction, 1
  for strong satisfaction, or an ILP variable (used by the Feautrier cost
  function to count strongly satisfied dependences).
* **bounding** (paper Eq. 4, the proximity cost): ``u . N + w - (phi_R - phi_S)
  >= 0``, whose minimisation bounds the dependence distance.

A block depends on the dependence and on what was asked of it, not on the
scheduling dimension, the strategy or the run, so it is linearised once and
remembered on the :class:`~repro.deps.dependence.Dependence` under
``("legality", minimum)``, ``("reversed legality", 0)`` or ``("bounding",
bound-variable names)``.  Every later dimension, strategy and compile sharing
the dependence object is handed the same block, the tuple of immutable
:class:`~repro.ilp.problem.LinearConstraint` rows :func:`farkas_nonnegative`
returned; it runs no elimination, so it counts nothing under ``fm_*`` and one
under :data:`FARKAS_BLOCKS_REUSED`.  *source* and *target* must be the
statements the dependence names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..deps.dependence import Dependence
from ..ilp.problem import LinearConstraint
from ..model.statement import Statement
from ..polyhedra.farkas import farkas_nonnegative
from ..polyhedra.space import CONSTANT_KEY
from .naming import dependence_difference_templates

__all__ = ["legality_rows", "reversed_legality_rows", "bounding_rows", "FARKAS_BLOCKS_REUSED"]

#: The work-ledger name a remembered block is counted under.
FARKAS_BLOCKS_REUSED = "farkas_blocks_reused"


def _difference_at_least(
    dependence: Dependence,
    source: Statement,
    target: Statement,
    minimum: Mapping[str, Fraction] | int,
) -> tuple[LinearConstraint, ...]:
    """``phi_target - phi_source >= minimum`` over the dependence, linearised."""
    coefficients, constant = dependence_difference_templates(dependence, source, target)
    constant = dict(constant)
    if isinstance(minimum, int):
        if minimum != 0:
            constant[CONSTANT_KEY] = constant.get(CONSTANT_KEY, Fraction(0)) - minimum
    else:
        for name, value in minimum.items():
            constant[name] = constant.get(name, Fraction(0)) - value
    return farkas_nonnegative(dependence.polyhedron, coefficients, constant)


def legality_rows(
    dependence: Dependence,
    source: Statement,
    target: Statement,
    minimum: Mapping[str, Fraction] | int = 0,
) -> tuple[LinearConstraint, ...]:
    """Rows enforcing ``phi_target - phi_source >= minimum`` over the dependence.

    ``minimum`` is either an integer (0 for weak legality, 1 for strong
    satisfaction) or a linear combination of ILP variables (e.g. a Feautrier
    satisfaction indicator ``{"e_dep": 1}``).
    """
    asked = minimum if isinstance(minimum, int) else tuple(minimum.items())
    return dependence.remembered(
        ("legality", asked),
        lambda: _difference_at_least(dependence, source, target, minimum),
        FARKAS_BLOCKS_REUSED,
    )


def reversed_legality_rows(
    dependence: Dependence, source: Statement, target: Statement
) -> tuple[LinearConstraint, ...]:
    """Rows enforcing ``phi_source - phi_target >= 0`` over the dependence.

    With :func:`legality_rows` this pins the distance to zero (the
    ``parallel`` directive).  Linearised over the dependence with its roles
    exchanged, and remembered on *dependence* itself.
    """
    return dependence.remembered(
        ("reversed legality", 0),
        lambda: _difference_at_least(_swapped(dependence), target, source, 0),
        FARKAS_BLOCKS_REUSED,
    )


def bounding_rows(
    dependence: Dependence,
    source: Statement,
    target: Statement,
    parameter_bound_variables: Mapping[str, str],
    constant_bound_variable: str,
) -> tuple[LinearConstraint, ...]:
    """Rows enforcing ``u . N + w - (phi_target - phi_source) >= 0`` over the dependence.

    ``parameter_bound_variables`` maps each parameter name to its ``u`` ILP
    variable; ``constant_bound_variable`` is the ``w`` ILP variable.
    """

    def linearise() -> tuple[LinearConstraint, ...]:
        coefficients, constant = dependence_difference_templates(dependence, source, target)
        negated: dict[str, dict[str, Fraction]] = {
            dimension: {name: -value for name, value in combination.items()}
            for dimension, combination in coefficients.items()
        }
        for parameter, bound_variable in parameter_bound_variables.items():
            if parameter in dependence.polyhedron.space.parameters:
                entry = negated.setdefault(parameter, {})
                entry[bound_variable] = entry.get(bound_variable, Fraction(0)) + 1
        negated_constant = {name: -value for name, value in constant.items()}
        negated_constant[constant_bound_variable] = (
            negated_constant.get(constant_bound_variable, Fraction(0)) + 1
        )
        return farkas_nonnegative(dependence.polyhedron, negated, negated_constant)

    asked = (tuple(parameter_bound_variables.items()), constant_bound_variable)
    return dependence.remembered(("bounding", *asked), linearise, FARKAS_BLOCKS_REUSED)


def _swapped(dependence: Dependence) -> Dependence:
    """A view of the dependence with source and target exchanged (same polyhedron)."""
    return Dependence(
        source=dependence.target,
        target=dependence.source,
        kind=dependence.kind,
        array=dependence.array,
        polyhedron=dependence.polyhedron,
        source_map=dependence.target_map,
        target_map=dependence.source_map,
        depth=dependence.depth,
        source_access=dependence.target_access,
        target_access=dependence.source_access,
    )
