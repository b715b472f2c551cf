"""Branch & bound on top of the exact simplex: the reference solver.

The scheduler's ILPs have small, bounded coefficient variables, and their LP
relaxations are almost always integral at the optimum (a well known property of
the Pluto-style formulations).  Branch & bound is therefore a thin layer: solve
the relaxation, branch on the first variable with a fractional value, prune
with the incumbent objective value.

Nothing in a compile runs or even imports this module: the production path
is :mod:`repro.ilp.engine`, and the one thing the two share — the shift/split
column layout of :class:`repro.ilp.encode.StandardFormEncoder` — lives in a
module this one imports, not the other way round.  :func:`solve_milp` and
:func:`solve_lexicographic` are the independent implementation the tests and
the nightly differential sweep compare the engine against — every node is a
cold, textbook solve over dense ``Fraction`` rows (:func:`encode_terms`, the
reference's own encoding of a linear expression) with every upper bound an
explicit row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..linalg.rational import as_fraction
from .backend import LpBackend, default_backend
from .encode import LpStatus, StandardFormEncoder, evaluate, first_fractional
from .problem import ConstraintSense, LinearProblem
from .simplex import StandardFormRow, solve_standard_form
from .solution import IlpSolution

__all__ = ["MilpStatus", "MilpResult", "solve_milp", "solve_lexicographic"]

MilpStatus = LpStatus


@dataclass(frozen=True)
class MilpResult:
    """Result of an integer solve: status, assignment and objective value.

    ``nodes`` counts the branch & bound nodes explored and ``iterations`` the
    LP pivots reported by the relaxation backend.
    """

    status: MilpStatus
    assignment: dict[str, Fraction]
    objective: Fraction | None
    nodes: int = 0
    iterations: int = 0


_Cut = tuple[dict[str, Fraction], ConstraintSense, Fraction]


def encode_terms(
    encoder: StandardFormEncoder, coefficients: Mapping[str, Fraction]
) -> tuple[list[Fraction], Fraction]:
    """(one ``Fraction`` per column, constant shift offset) of a linear expression."""
    row = [Fraction(0)] * encoder.n_columns
    offset = Fraction(0)
    for name, coeff in coefficients.items():
        coeff = as_fraction(coeff)
        row[encoder.column_of[name]] += coeff
        negative = encoder.negative_column_of.get(name)
        if negative is not None:
            row[negative] -= coeff
        offset += coeff * encoder.shift_of[name]
    return row, offset


def _standard_form_rows(
    encoder: StandardFormEncoder, cuts: list[_Cut]
) -> list[StandardFormRow]:
    """All constraint rows: problem constraints, upper bounds and branching *cuts*."""
    rows: list[StandardFormRow] = []
    for constraint in encoder.problem.constraints:
        coeffs, offset = encode_terms(encoder, constraint.coefficients)
        rows.append(StandardFormRow.build(coeffs, constraint.sense, constraint.rhs - offset))
    for name, variable in encoder.problem.variables.items():
        if variable.upper is not None:
            coeffs, offset = encode_terms(encoder, {name: Fraction(1)})
            rows.append(
                StandardFormRow.build(coeffs, ConstraintSense.LE, variable.upper - offset)
            )
    for coefficients, sense, rhs in cuts:
        coeffs, offset = encode_terms(encoder, coefficients)
        rows.append(StandardFormRow.build(coeffs, sense, rhs - offset))
    return rows


def solve_milp(
    problem: LinearProblem,
    objective: Mapping[str, Fraction] | None = None,
    node_limit: int = 20000,
    backend: LpBackend | None = None,
) -> MilpResult:
    """Minimise *objective* over the integer points of *problem*.

    ``objective=None`` (or an empty mapping) performs a pure feasibility search.
    ``backend`` selects the LP relaxation solver (default: HiGHS when scipy is
    available, otherwise the exact simplex).  Every accepted integer solution
    is verified exactly against the problem, so an inexact backend can only
    cause extra work (fallback to the exact simplex), never a wrong accept.
    """
    objective = {k: as_fraction(v) for k, v in (objective or {}).items() if as_fraction(v) != 0}
    backend = backend or default_backend()
    encoder = StandardFormEncoder(problem)
    objective_row, objective_offset = encode_terms(encoder, objective)

    best_assignment: dict[str, Fraction] | None = None
    best_value: Fraction | None = None
    feasibility_only = not objective
    prune_margin = Fraction(1, 10**6)

    stack: list[list[_Cut]] = [[]]
    nodes = 0
    iterations = 0
    while stack:
        cuts = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError("branch & bound node limit exceeded")
        rows = _standard_form_rows(encoder, cuts)
        result = backend.solve(encoder.n_columns, rows, objective_row)
        iterations += result.iterations
        if result.status is LpStatus.INFEASIBLE:
            continue
        if result.status is LpStatus.UNBOUNDED:
            if feasibility_only:
                # Any vertex of the feasible region will do; re-solve with a zero objective.
                result = backend.solve(encoder.n_columns, rows, [])
                iterations += result.iterations
                if result.status is not LpStatus.OPTIMAL:
                    continue
            else:
                return MilpResult(LpStatus.UNBOUNDED, {}, None, nodes, iterations)
        relaxation_value = (result.objective or Fraction(0)) + objective_offset
        if best_value is not None and relaxation_value >= best_value - prune_margin:
            continue
        assignment = encoder.decode(result.values)
        fractional = first_fractional(problem, assignment)
        if fractional is None:
            if not problem.is_feasible_assignment(assignment):
                # The accelerated backend returned a numerically plausible but
                # exactly-infeasible point: redo this node with the exact simplex.
                result = solve_standard_form(encoder.n_columns, rows, objective_row)
                iterations += result.iterations
                if result.status is not LpStatus.OPTIMAL:
                    continue
                assignment = encoder.decode(result.values)
                fractional = first_fractional(problem, assignment)
            if fractional is None:
                exact_value = evaluate(objective, assignment)
                if best_value is None or exact_value < best_value:
                    best_value = exact_value
                    best_assignment = assignment
                    if feasibility_only:
                        break
                continue
        name, value = fractional
        floor_value = Fraction(value.numerator // value.denominator)
        stack.append(cuts + [({name: Fraction(1)}, ConstraintSense.GE, floor_value + 1)])
        stack.append(cuts + [({name: Fraction(1)}, ConstraintSense.LE, floor_value)])

    if best_assignment is None:
        return MilpResult(LpStatus.INFEASIBLE, {}, None, nodes, iterations)
    return MilpResult(LpStatus.OPTIMAL, best_assignment, best_value, nodes, iterations)


def solve_lexicographic(
    problem: LinearProblem,
    node_limit: int = 20000,
    backend: LpBackend | None = None,
) -> IlpSolution | None:
    """Reference lexicographic solve: one cold :func:`solve_milp` per objective.

    Each stage's optimum is frozen as an equality before the next objective
    is minimised.  Returns ``None`` when the problem is infeasible and raises
    ``ValueError`` on an unbounded objective — the contract of
    :meth:`repro.ilp.engine.IncrementalIlpEngine.solve`; tests substitute this
    function at ``PolyTOPSScheduler._solve`` to schedule whole kernels under
    the reference.  The solution carries no ``node_key``.
    """
    working = problem.copy()
    if not working.objectives:
        result = solve_milp(working, None, node_limit, backend)
        if result.status is not LpStatus.OPTIMAL:
            return None
        return IlpSolution(result.assignment, [])

    objective_values: list[Fraction] = []
    for objective in working.objectives:
        result = solve_milp(working, objective, node_limit, backend)
        if result.status is LpStatus.INFEASIBLE:
            return None
        if result.status is LpStatus.UNBOUNDED:
            raise ValueError(
                "objective is unbounded below; scheduling variables must be bounded"
            )
        objective_values.append(result.objective)
        working.add_constraint(objective, ConstraintSense.EQ, result.objective)
    return IlpSolution(result.assignment, objective_values)
