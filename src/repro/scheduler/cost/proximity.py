"""The proximity cost function (Pluto, paper Eq. 4).

For every active dependence the distance ``phi_R - phi_S`` is bounded from
above by an affine function ``u . N + w`` of the parameters; minimising first
the parameter part ``u`` then the constant part ``w`` (lexicographically)
pulls dependent iterations close together in time, which optimises temporal
locality and, indirectly, favours outer parallelism (distance 0).
"""

from __future__ import annotations

from fractions import Fraction

from ..context import IlpBuildContext
from ..legality import bounding_rows
from .base import CostFunction

__all__ = ["ProximityCost", "bound_parameter_variable", "bound_constant_variable"]


def bound_parameter_variable(parameter: str) -> str:
    """Name of the ``u`` coefficient associated with *parameter*."""
    return f"u_{parameter}"


def bound_constant_variable() -> str:
    """Name of the ``w`` constant of the bounding function."""
    return "w_bound"


class ProximityCost(CostFunction):
    """Minimise the dependence-distance bounding function ``u . N + w``."""

    name = "proximity"

    def contribute(self, context: IlpBuildContext) -> None:
        parameters = context.scop.parameters
        u_names = {
            parameter: bound_parameter_variable(parameter) for parameter in parameters
        }
        w_name = bound_constant_variable()
        bound = max(4 * context.config.coefficient_bound, 16)
        for name in u_names.values():
            context.problem.add_variable(name, 0, bound)
        context.problem.add_variable(w_name, 0, 4 * bound)

        for dependence in context.active_dependences:
            context.add_rows(
                bounding_rows(
                    dependence,
                    context.statement(dependence.source),
                    context.statement(dependence.target),
                    u_names,
                    w_name,
                )
            )

        # Minimise u lexicographically before w (as in Pluto); both are folded
        # into one weighted objective, the weight being larger than any
        # reachable value of w.
        objective = {name: Fraction(16 * bound + 1) for name in u_names.values()}
        objective[w_name] = Fraction(1)
        context.add_objective(objective)
