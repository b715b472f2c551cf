"""The Feautrier cost function.

Feautrier's greedy scheduler maximises, at each dimension, the number of
dependences carried (strongly satisfied) by that dimension.  Each active
dependence gets a binary indicator ``e_d`` with

    phi_R - phi_S >= e_d        over the dependence polyhedron,

and the objective minimises ``sum (1 - e_d)``, i.e. maximises the carried
count.  This typically produces outer sequential dimensions that remove many
dependences at once, leaving inner dimensions parallel (useful for SIMD), and
is used by isl as the fallback when the Pluto-style step finds no parallelism.
"""

from __future__ import annotations

from fractions import Fraction

from ..context import IlpBuildContext
from ..legality import legality_rows
from .base import CostFunction

__all__ = ["FeautrierCost", "satisfaction_indicator"]


def satisfaction_indicator(dependence_id: str) -> str:
    """Name of the binary indicator recording that a dependence is carried."""
    return f"e_{dependence_id}"


class FeautrierCost(CostFunction):
    """Maximise the number of dependences strongly satisfied by this dimension."""

    name = "feautrier"

    def contribute(self, context: IlpBuildContext) -> None:
        indicators: list[str] = []
        for dependence in context.active_dependences:
            indicator = satisfaction_indicator(dependence.identifier())
            context.problem.add_variable(indicator, 0, 1)
            indicators.append(indicator)
            context.add_rows(
                legality_rows(
                    dependence,
                    context.statement(dependence.source),
                    context.statement(dependence.target),
                    minimum={indicator: Fraction(1)},
                )
            )
        if indicators:
            # minimise sum(1 - e_d)  ==  minimise -sum(e_d); the constant offset is irrelevant.
            context.add_objective({name: Fraction(-1) for name in indicators})
