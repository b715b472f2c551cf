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
``("legality", minimum)`` or ``("bounding", bound-variable names)``.  Every
later dimension, strategy and compile sharing the dependence object is handed
the same immutable block (a tuple of rows over read-only mappings); it runs no
elimination, so it counts nothing under ``fm_*`` and one under
:data:`FARKAS_BLOCKS_REUSED`.  *source* and *target* must be the statements
the dependence names.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Hashable, Mapping

from ..deps.dependence import Dependence
from ..model.statement import Statement
from ..polyhedra.farkas import FarkasResult, farkas_nonnegative
from ..polyhedra.space import CONSTANT_KEY
from .naming import dependence_difference_templates

__all__ = ["legality_rows", "bounding_rows", "FARKAS_BLOCKS_REUSED"]

IlpRow = tuple[Mapping[str, Fraction], str, Fraction]

#: The work-ledger name a remembered block is counted under.
FARKAS_BLOCKS_REUSED = "farkas_blocks_reused"


def _block(
    dependence: Dependence,
    key: Hashable,
    linearise: Callable[[], FarkasResult],
) -> tuple[IlpRow, ...]:
    """The rows of ``linearise()``, frozen and remembered on *dependence*."""
    return dependence.remembered(
        key,
        lambda: tuple(
            (MappingProxyType(coefficients), sense, rhs)
            for coefficients, sense, rhs in linearise().as_rows()
        ),
        FARKAS_BLOCKS_REUSED,
    )


def legality_rows(
    dependence: Dependence,
    source: Statement,
    target: Statement,
    minimum: Mapping[str, Fraction] | int = 0,
) -> tuple[IlpRow, ...]:
    """Rows enforcing ``phi_target - phi_source >= minimum`` over the dependence.

    ``minimum`` is either an integer (0 for weak legality, 1 for strong
    satisfaction) or a linear combination of ILP variables (e.g. a Feautrier
    satisfaction indicator ``{"e_dep": 1}``).
    """

    def linearise() -> FarkasResult:
        coefficients, constant = dependence_difference_templates(dependence, source, target)
        constant = dict(constant)
        if isinstance(minimum, int):
            if minimum != 0:
                constant[CONSTANT_KEY] = constant.get(CONSTANT_KEY, Fraction(0)) - minimum
        else:
            for name, value in minimum.items():
                constant[name] = constant.get(name, Fraction(0)) - value
        return farkas_nonnegative(dependence.polyhedron, coefficients, constant)

    asked = minimum if isinstance(minimum, int) else tuple(minimum.items())
    return _block(dependence, ("legality", asked), linearise)


def bounding_rows(
    dependence: Dependence,
    source: Statement,
    target: Statement,
    parameter_bound_variables: Mapping[str, str],
    constant_bound_variable: str,
) -> tuple[IlpRow, ...]:
    """Rows enforcing ``u . N + w - (phi_target - phi_source) >= 0`` over the dependence.

    ``parameter_bound_variables`` maps each parameter name to its ``u`` ILP
    variable; ``constant_bound_variable`` is the ``w`` ILP variable.
    """

    def linearise() -> FarkasResult:
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
    return _block(dependence, ("bounding", *asked), linearise)
