"""Exact two-phase simplex over rationals.

The solver works on problems in the following *standard form*:

    minimise    c . x
    subject to  A x (<=|>=|==) b      (row-wise senses)
                x >= 0

All arithmetic uses :class:`fractions.Fraction`, so results are exact.  The
pivoting rule is Dantzig's rule with an automatic switch to Bland's rule after
a number of degenerate iterations, which guarantees termination.

Only the small dense problems produced by the polyhedral scheduler are
targeted; no sparsity or revised-simplex machinery is attempted.  Variable
boxes reach this solver as explicit rows (:mod:`repro.ilp.branch_bound`
materialises every normalised upper bound): that is deliberate — this is the
reference implementation the incremental engine's bounded-variable simplex
(implicit boxes, bound flips) is differentially validated against, so the two
paths share nothing but the column layout and the normalised bound semantics
of :mod:`repro.ilp.encode` (which this module imports :class:`LpStatus` from;
nothing the engine runs on imports this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..linalg.rational import Rational, as_fraction
from .encode import LpStatus
from .problem import ConstraintSense

__all__ = ["LpResult", "solve_standard_form", "StandardFormRow"]


@dataclass(frozen=True)
class LpResult:
    """Solution of an LP in standard form.

    ``iterations`` counts simplex pivots (0 when the backend does not report
    them); it feeds the solver statistics surfaced by the scheduler.
    """

    status: LpStatus
    values: list[Fraction]
    objective: Fraction | None
    iterations: int = 0


@dataclass(frozen=True)
class StandardFormRow:
    """One constraint row ``coefficients . x  sense  rhs`` of a standard-form LP."""

    coefficients: tuple[Fraction, ...]
    sense: ConstraintSense
    rhs: Fraction

    @classmethod
    def build(
        cls, coefficients: Sequence[Rational], sense: ConstraintSense | str, rhs: Rational
    ) -> "StandardFormRow":
        sense = ConstraintSense(sense) if isinstance(sense, str) else sense
        return cls(tuple(as_fraction(c) for c in coefficients), sense, as_fraction(rhs))


_BLAND_SWITCH_ITERATIONS = 500
_MAX_ITERATIONS = 20000


class _Tableau:
    """Dense simplex tableau with an explicit basis."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int], n_columns: int):
        self.rows = rows                      # each row: coefficients + [rhs]
        self.basis = basis                    # basic variable per row
        self.n_columns = n_columns            # structural + auxiliary columns (without rhs)
        self.objective: list[Fraction] = []   # reduced-cost row, length n_columns + 1
        self.pivot_count = 0                  # pivots across every run() call

    def set_objective(self, costs: Sequence[Fraction]) -> None:
        """Install the cost row and price it out against the current basis."""
        row = [as_fraction(c) for c in costs] + [Fraction(0)] * (
            self.n_columns + 1 - len(costs)
        )
        for row_index, basic in enumerate(self.basis):
            coeff = row[basic]
            if coeff != 0:
                body = self.rows[row_index]
                for col in range(self.n_columns + 1):
                    row[col] -= coeff * body[col]
        self.objective = row

    def pivot(self, pivot_row: int, pivot_col: int) -> None:
        """Perform one pivot, updating the tableau and the objective row."""
        row = self.rows[pivot_row]
        pivot_value = row[pivot_col]
        self.rows[pivot_row] = [v / pivot_value for v in row]
        for r, other in enumerate(self.rows):
            if r == pivot_row:
                continue
            factor = other[pivot_col]
            if factor != 0:
                source = self.rows[pivot_row]
                self.rows[r] = [v - factor * s for v, s in zip(other, source)]
        factor = self.objective[pivot_col]
        if factor != 0:
            source = self.rows[pivot_row]
            self.objective = [v - factor * s for v, s in zip(self.objective, source)]
        self.basis[pivot_row] = pivot_col

    def run(self, allowed_columns: set[int]) -> LpStatus:
        """Optimise the current objective over *allowed_columns*; returns OPTIMAL/UNBOUNDED."""
        iterations = 0
        while True:
            iterations += 1
            if iterations > _MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            use_bland = iterations > _BLAND_SWITCH_ITERATIONS
            entering = self._choose_entering(allowed_columns, use_bland)
            if entering is None:
                return LpStatus.OPTIMAL
            leaving = self._choose_leaving(entering, use_bland)
            if leaving is None:
                return LpStatus.UNBOUNDED
            self.pivot(leaving, entering)
            self.pivot_count += 1

    def _choose_entering(self, allowed_columns: set[int], use_bland: bool) -> int | None:
        best: int | None = None
        best_value = Fraction(0)
        for col in range(self.n_columns):
            if col not in allowed_columns:
                continue
            reduced = self.objective[col]
            if reduced < 0:
                if use_bland:
                    return col
                if best is None or reduced < best_value:
                    best = col
                    best_value = reduced
        return best

    def _choose_leaving(self, entering: int, use_bland: bool) -> int | None:
        best_row: int | None = None
        best_ratio: Fraction | None = None
        for row_index, row in enumerate(self.rows):
            coeff = row[entering]
            if coeff <= 0:
                continue
            ratio = row[-1] / coeff
            if (
                best_ratio is None
                or ratio < best_ratio
                or (
                    ratio == best_ratio
                    and use_bland
                    and best_row is not None
                    and self.basis[row_index] < self.basis[best_row]
                )
            ):
                best_ratio = ratio
                best_row = row_index
        return best_row

    def values(self, n_structural: int) -> list[Fraction]:
        """Current values of the first *n_structural* variables."""
        result = [Fraction(0)] * n_structural
        for row_index, basic in enumerate(self.basis):
            if basic < n_structural:
                result[basic] = self.rows[row_index][-1]
        return result

    def objective_value(self) -> Fraction:
        """Value of the current objective at the current basic solution."""
        return -self.objective[-1]


def solve_standard_form(
    n_variables: int,
    rows: Sequence[StandardFormRow],
    objective: Sequence[Rational],
) -> LpResult:
    """Solve ``min c.x  s.t.  rows,  x >= 0`` exactly.

    ``objective`` may be shorter than ``n_variables``; missing coefficients are
    treated as zero.
    """
    costs = [as_fraction(c) for c in objective] + [Fraction(0)] * (
        n_variables - len(objective)
    )
    if len(costs) > n_variables:
        raise ValueError("objective has more coefficients than variables")

    # Build the augmented tableau: structural vars, slack/surplus vars, artificials.
    tableau_rows: list[list[Fraction]] = []
    senses: list[ConstraintSense] = []
    rhs_values: list[Fraction] = []
    for row in rows:
        coeffs = list(row.coefficients) + [Fraction(0)] * (n_variables - len(row.coefficients))
        if len(coeffs) > n_variables:
            raise ValueError("constraint row has more coefficients than variables")
        rhs = row.rhs
        sense = row.sense
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            if sense is ConstraintSense.LE:
                sense = ConstraintSense.GE
            elif sense is ConstraintSense.GE:
                sense = ConstraintSense.LE
        tableau_rows.append(coeffs)
        senses.append(sense)
        rhs_values.append(rhs)

    n_rows = len(tableau_rows)
    n_slack = sum(1 for s in senses if s is not ConstraintSense.EQ)
    total_columns = n_variables + n_slack + n_rows  # artificials for every row (simple & safe)

    full_rows: list[list[Fraction]] = []
    basis: list[int] = []
    artificial_columns: list[int] = []
    slack_index = 0
    for row_index in range(n_rows):
        padded = tableau_rows[row_index] + [Fraction(0)] * (total_columns - n_variables)
        sense = senses[row_index]
        if sense is not ConstraintSense.EQ:
            column = n_variables + slack_index
            padded[column] = Fraction(1) if sense is ConstraintSense.LE else Fraction(-1)
            slack_index += 1
        artificial = n_variables + n_slack + row_index
        padded[artificial] = Fraction(1)
        artificial_columns.append(artificial)
        full_rows.append(padded + [rhs_values[row_index]])
        basis.append(artificial)

    tableau = _Tableau(full_rows, basis, total_columns)

    # Phase 1: minimise the sum of artificial variables.
    phase1_costs = [Fraction(0)] * total_columns
    for column in artificial_columns:
        phase1_costs[column] = Fraction(1)
    tableau.set_objective(phase1_costs)
    allowed = set(range(total_columns))
    status = tableau.run(allowed)
    if status is LpStatus.UNBOUNDED:  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase 1 cannot be unbounded")
    if tableau.objective_value() != 0:
        return LpResult(LpStatus.INFEASIBLE, [], None, tableau.pivot_count)

    # Drive any artificial variable still in the basis out of it (degenerate rows).
    artificial_set = set(artificial_columns)
    for row_index, basic in enumerate(list(tableau.basis)):
        if basic in artificial_set:
            pivot_col = next(
                (
                    col
                    for col in range(total_columns)
                    if col not in artificial_set and tableau.rows[row_index][col] != 0
                ),
                None,
            )
            if pivot_col is not None:
                tableau.pivot(row_index, pivot_col)

    # Phase 2: original objective over non-artificial columns.
    phase2_costs = costs + [Fraction(0)] * (total_columns - n_variables)
    tableau.set_objective(phase2_costs)
    allowed = {col for col in range(total_columns) if col not in artificial_set}
    # Rows whose basic variable is still artificial have zero rhs; restrict pivoting
    # to non-artificial columns, which keeps those rows at zero.
    status = tableau.run(allowed)
    if status is LpStatus.UNBOUNDED:
        return LpResult(LpStatus.UNBOUNDED, [], None, tableau.pivot_count)
    return LpResult(
        LpStatus.OPTIMAL,
        tableau.values(n_variables),
        tableau.objective_value(),
        tableau.pivot_count,
    )
