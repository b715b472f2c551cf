"""ILP variable naming conventions and Farkas templates.

Every scheduling dimension is searched as one ILP whose unknowns are, per
statement ``S``:

* ``c_S_<iterator>``  — the iterator coefficients  (``T_S^it`` in the paper),
* ``p_S_<parameter>`` — the parameter coefficients (``T_S^N``),
* ``k_S``             — the constant coefficient    (``T_S^1``).

This module centralises the naming and builds the coefficient templates used
by the Farkas linearisation of legality/bounding constraints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..deps.dependence import Dependence
from ..model.statement import Statement

__all__ = [
    "iterator_coefficient",
    "parameter_coefficient",
    "constant_coefficient",
    "dependence_difference_templates",
]


def iterator_coefficient(statement: str, iterator: str) -> str:
    """ILP variable holding the coefficient of *iterator* in statement *statement*."""
    return f"c_{statement}_{iterator}"


def parameter_coefficient(statement: str, parameter: str) -> str:
    """ILP variable holding the coefficient of parameter *parameter*."""
    return f"p_{statement}_{parameter}"


def constant_coefficient(statement: str) -> str:
    """ILP variable holding the constant term of the statement's schedule row."""
    return f"k_{statement}"


def dependence_difference_templates(
    dependence: Dependence,
    source: Statement,
    target: Statement,
) -> tuple[dict[str, dict[str, Fraction]], dict[str, Fraction]]:
    """Templates for ``phi_R(target) - phi_S(source)`` over the dependence space.

    The returned mapping associates each dimension of the dependence
    polyhedron (renamed source iterators, renamed target iterators and the
    parameters) with the linear combination of ILP variables forming its
    coefficient in the schedule difference.
    """
    coefficients: dict[str, dict[str, Fraction]] = {}
    for iterator in source.iterators:
        renamed = dependence.source_map[iterator]
        coefficients[renamed] = _merge(
            coefficients.get(renamed, {}),
            {iterator_coefficient(source.name, iterator): Fraction(-1)},
        )
    for iterator in target.iterators:
        renamed = dependence.target_map[iterator]
        coefficients[renamed] = _merge(
            coefficients.get(renamed, {}),
            {iterator_coefficient(target.name, iterator): Fraction(1)},
        )
    for parameter in dependence.polyhedron.space.parameters:
        combination: dict[str, Fraction] = {}
        if parameter in target.parameters:
            combination = _merge(
                combination, {parameter_coefficient(target.name, parameter): Fraction(1)}
            )
        if parameter in source.parameters:
            combination = _merge(
                combination, {parameter_coefficient(source.name, parameter): Fraction(-1)}
            )
        if combination:
            coefficients[parameter] = combination
    constant = _merge(
        {constant_coefficient(target.name): Fraction(1)},
        {constant_coefficient(source.name): Fraction(-1)},
    )
    return coefficients, constant


def _merge(
    left: Mapping[str, Fraction], right: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    result = dict(left)
    for name, value in right.items():
        result[name] = result.get(name, Fraction(0)) + value
        if result[name] == 0:
            del result[name]
    return result
