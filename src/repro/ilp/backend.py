"""LP relaxation back-ends.

Two back-ends solve the standard-form LP relaxations used by branch & bound:

* :class:`ExactSimplexBackend` — the from-scratch rational simplex of
  :mod:`repro.ilp.simplex`.  Exact, dependency-free, but slow on the larger
  scheduling problems (hundreds of Farkas rows).
* :class:`ScipyHighsBackend` — delegates the relaxation to ``scipy.optimize
  .linprog`` (HiGHS) when scipy is importable.  Results are converted back to
  rationals (values within 1e-6 of an integer are snapped) and every *accepted*
  integer solution is still verified exactly against the original constraints
  by the branch & bound layer, so the accelerated path cannot produce an
  illegal schedule — at worst it falls back to the exact simplex.

:func:`default_backend` picks HiGHS when available, otherwise the exact
simplex; a caller that wants a particular one passes it
(``solve_lexicographic(problem, backend=...)``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Protocol, Sequence

from .encode import LpStatus
from .problem import ConstraintSense
from .simplex import LpResult, StandardFormRow, solve_standard_form

__all__ = [
    "LpBackend",
    "ExactSimplexBackend",
    "ScipyHighsBackend",
    "default_backend",
]

_INTEGER_SNAP_TOLERANCE = 1e-6
_VALUE_DENOMINATOR_LIMIT = 10**6


class LpBackend(Protocol):
    """Interface of an LP relaxation solver for standard-form problems."""

    name: str

    def solve(
        self,
        n_variables: int,
        rows: Sequence[StandardFormRow],
        objective: Sequence[Fraction],
    ) -> LpResult:  # pragma: no cover - protocol
        ...


class ExactSimplexBackend:
    """The exact rational two-phase simplex."""

    name = "exact-simplex"

    def solve(
        self,
        n_variables: int,
        rows: Sequence[StandardFormRow],
        objective: Sequence[Fraction],
    ) -> LpResult:
        return solve_standard_form(n_variables, rows, objective)


class ScipyHighsBackend:
    """Accelerated LP relaxations via scipy's HiGHS, with rational conversion."""

    name = "scipy-highs"

    def __init__(self):
        from scipy.optimize import linprog  # noqa: F401 - availability check
        import numpy  # noqa: F401

    @staticmethod
    def is_available() -> bool:
        try:
            from scipy.optimize import linprog  # noqa: F401

            return True
        except ImportError:  # pragma: no cover - scipy is installed in CI
            return False

    def solve(
        self,
        n_variables: int,
        rows: Sequence[StandardFormRow],
        objective: Sequence[Fraction],
    ) -> LpResult:
        import numpy as np
        from scipy.optimize import linprog

        costs = np.zeros(n_variables)
        for index, value in enumerate(objective):
            costs[index] = float(value)

        a_ub: list[list[float]] = []
        b_ub: list[float] = []
        a_eq: list[list[float]] = []
        b_eq: list[float] = []
        for row in rows:
            coefficients = [float(c) for c in row.coefficients]
            coefficients += [0.0] * (n_variables - len(coefficients))
            rhs = float(row.rhs)
            if row.sense is ConstraintSense.LE:
                a_ub.append(coefficients)
                b_ub.append(rhs)
            elif row.sense is ConstraintSense.GE:
                a_ub.append([-c for c in coefficients])
                b_ub.append(-rhs)
            else:
                a_eq.append(coefficients)
                b_eq.append(rhs)

        result = linprog(
            costs,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] * n_variables,
            method="highs",
        )
        if result.status == 2:
            return LpResult(LpStatus.INFEASIBLE, [], None)
        if result.status == 3:
            return LpResult(LpStatus.UNBOUNDED, [], None)
        if result.status != 0 or result.x is None:
            # Numerical trouble: defer to the exact simplex.
            return solve_standard_form(n_variables, rows, objective)
        values = [_snap(value) for value in result.x]
        objective_value = sum(
            (c * v for c, v in zip(list(objective) + [Fraction(0)] * n_variables, values)),
            Fraction(0),
        )
        iterations = int(getattr(result, "nit", 0) or 0)
        return LpResult(LpStatus.OPTIMAL, values, objective_value, iterations)


def _snap(value: float) -> Fraction:
    rounded = round(value)
    if abs(value - rounded) <= _INTEGER_SNAP_TOLERANCE:
        return Fraction(int(rounded))
    return Fraction(value).limit_denominator(_VALUE_DENOMINATOR_LIMIT)


@cache
def default_backend() -> LpBackend:
    """The process-wide default LP backend (HiGHS when available)."""
    if ScipyHighsBackend.is_available():
        return ScipyHighsBackend()
    return ExactSimplexBackend()  # pragma: no cover - scipy is installed in CI
