"""Incremental, warm-started ILP engine over an integer-scaled simplex tableau.

The historical solver stack (:mod:`repro.ilp.branch_bound`) treats every LP
relaxation as a cold start: each branch-and-bound node re-encodes the named
problem into dense Fraction rows and re-runs two-phase simplex (or a scipy
call) from scratch.  The scheduler, however, solves *sequences* of
near-identical problems — lexicographic objective stages over one constraint
set, and B&B children that differ from their parent by a single tightened
bound.  This engine exploits that structure:

* the :class:`LinearProblem` is encoded to standard form **once** — variable
  names are mapped to columns (lower-bounded variables are shifted, free
  variables split), every row is integer-normalised (denominators cleared,
  GCD-reduced);
* the simplex tableau is kept in **integer arithmetic**: the tableau stores
  ``den * B^{-1}A`` for the current basis ``B`` with ``den = |det B|``, so a
  pivot is integer multiply/subtract with one exact division (fraction-free
  pivoting à la Edmonds/Bareiss) instead of Fraction normalisation per cell;
* variable boxes are handled by the **bounded-variable simplex**: a column
  with an integral ``[lower, upper]`` box never materialises an upper-bound
  row.  Each column carries its residual span; the ratio tests let a basic
  variable leave at either bound and let the entering variable stop at its
  own opposite bound (a *bound flip* — no pivot at all).  Nonbasic-at-upper
  columns are kept complemented (``y = span - y``), so the fraction-free
  pivot kernel itself is unchanged;
* phase 1 runs once per problem.  Lexicographic objective stages re-use the
  optimal basis of the previous stage (primal reoptimisation), and B&B
  children **tighten one column's bound** on a copy of the parent's optimal
  tableau (no cut row is appended for boxed variables) and reoptimise with
  the **dual simplex** — a warm start that almost always needs a handful of
  pivots;
* every integer incumbent is verified exactly against the original problem, so
  an engine inconsistency raises :class:`EngineError` (callers fall back to
  the retained dense oracle) instead of accepting a wrong answer.

The engine mirrors the oracle's search order (first-fractional branching,
floor branch explored first, first-found incumbent kept on ties) so that both
paths return the same optimum on the scheduler's problems; the differential
test-suite asserts exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from ..linalg.varspace import clear_denominators, reduce_integer_row
from .branch_bound import _StandardFormEncoder, _evaluate, _first_fractional
from .options import CORE_CHOICES
from .problem import ConstraintSense, LinearProblem
from .simplex import LpStatus
from .solution import IlpSolution

__all__ = [
    "EngineError",
    "EngineLimitError",
    "EngineStatistics",
    "IncrementalIlpEngine",
]

_BLAND_SWITCH_ITERATIONS = 500
_MAX_ITERATIONS = 20000

class EngineError(RuntimeError):
    """Internal engine inconsistency (zero pivot, infeasible incumbent, cycling).

    The engine raises instead of guessing; :class:`repro.ilp.solver.IlpSolver`
    catches this and falls back to the dense oracle path for the problem.
    """


class EngineLimitError(EngineError):
    """A search-space resource limit was exhausted (branch & bound nodes).

    Unlike a plain :class:`EngineError`, retrying on the dense oracle would
    only grind through the same exponential search a second time, so the
    solver converts this into the oracle's own limit error instead of
    falling back.
    """


@dataclass
class EngineStatistics:
    """Counters describing the work performed by one or more engine solves.

    The parallel counters (``steals``, ``worker_nodes``, the busy/wall pair)
    are only advanced by stages that actually reached the worker pool; the
    remaining counters cover sequential and parallel work alike.  Under
    thread workers the shared integer counters are advanced without a lock —
    the GIL makes lost updates rare and the counters are observability, not
    control flow — while ``worker_nodes``/``steals`` are tallied under the
    queue lock and stay exact.
    """

    solves: int = 0
    stages: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    nodes: int = 0
    warm_start_hits: int = 0
    bound_prunes: int = 0
    stale_drops: int = 0
    incumbent_updates: int = 0
    bound_flips: int = 0
    rows_saved: int = 0
    tableau_rows: int = 0
    basis_nnz: int = 0
    eta_entries: int = 0
    refactorizations: int = 0
    tableau_cells: int = 0
    tableau_cells_saved: int = 0
    sparse_encoded_rows: int = 0
    dense_encode_rows: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    parallel_stages: int = 0
    steals: int = 0
    worker_nodes: list[int] = field(default_factory=list)
    parallel_wall_seconds: float = 0.0
    parallel_busy_seconds: float = 0.0

    @property
    def parallel_speedup(self) -> float:
        """Busy-time over wall-time of the pooled stages (1.0 when none ran)."""
        if self.parallel_wall_seconds <= 0.0:
            return 1.0
        return self.parallel_busy_seconds / self.parallel_wall_seconds

    def as_dict(self) -> dict[str, int | float | list[int]]:
        return {
            "solves": self.solves,
            "stages": self.stages,
            "pivots": self.pivots,
            "phase1_pivots": self.phase1_pivots,
            "nodes": self.nodes,
            "warm_start_hits": self.warm_start_hits,
            "bound_prunes": self.bound_prunes,
            "stale_drops": self.stale_drops,
            "incumbent_updates": self.incumbent_updates,
            "bound_flips": self.bound_flips,
            "rows_saved": self.rows_saved,
            "tableau_rows": self.tableau_rows,
            "basis_nnz": self.basis_nnz,
            "eta_entries": self.eta_entries,
            "refactorizations": self.refactorizations,
            "tableau_cells": self.tableau_cells,
            "tableau_cells_saved": self.tableau_cells_saved,
            "sparse_encoded_rows": self.sparse_encoded_rows,
            "dense_encode_rows": self.dense_encode_rows,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "parallel_stages": self.parallel_stages,
            "steals": self.steals,
            "worker_nodes": list(self.worker_nodes),
            "parallel_wall_seconds": self.parallel_wall_seconds,
            "parallel_busy_seconds": self.parallel_busy_seconds,
            "parallel_speedup": self.parallel_speedup,
        }


class _IntegerTableau:
    """Dense bounded-variable simplex tableau, scaled to integers.

    ``rows[i]`` holds ``den * (B^{-1}A)_i`` followed by ``den * (B^{-1}b)_i``
    with ``den = |det(basis)|``; ``objective`` holds ``den * reduced_costs``
    followed by ``-den * value``.  All entries stay integral for an integer
    constraint matrix because ``den * B^{-1}`` is the (sign-adjusted)
    adjugate of ``B``.

    Variable boxes are implicit (no upper-bound rows).  Tableau column ``j``
    is a *working variable* ``y_j`` with ``0 <= y_j <= spans[j]`` (``None``
    means unbounded above); it maps to the standard-form variable through
    ``v_j = bases[j] + signs[j] * y_j``.  Nonbasic columns always sit at
    ``y = 0``, so a nonbasic-at-upper variable is represented *complemented*
    (``signs[j] == -1``, ``bases[j] == its upper bound``) and the pivot
    kernel never needs to know about bounds.  Bound handling lives in three
    places instead:

    * the primal ratio test also considers a basic variable rising to its
      span (it then leaves at the upper bound: the column is complemented
      before the pivot) and the entering variable reaching its own span (a
      *bound flip*: the column is complemented with no pivot at all);
    * the dual leaving test also treats ``rhs > den * span`` as a violation
      (complemented away before the usual ``rhs < 0`` machinery runs);
    * branching tightens a column's box in place (:meth:`tighten_column`)
      instead of appending a cut row.

    All box data is integral (the encoder only assigns a span when the box
    width is an integer), so every update below stays in integer arithmetic.
    """

    __slots__ = (
        "rows",
        "basis",
        "den",
        "objective",
        "n_columns",
        "stats",
        "spans",
        "bases",
        "signs",
    )

    def __init__(
        self,
        rows: list[list[int]],
        basis: list[int],
        n_columns: int,
        stats: EngineStatistics,
        spans: list[int | None] | None = None,
    ):
        self.rows = rows
        self.basis = basis
        self.den = 1
        self.n_columns = n_columns
        self.objective: list[int] = [0] * (n_columns + 1)
        self.stats = stats
        if spans is None:
            spans = [None] * n_columns
        self.spans: list[int | None] = spans
        self.bases: list[int] = [0] * n_columns
        self.signs: list[int] = [1] * n_columns

    def copy(self) -> "_IntegerTableau":
        clone = _IntegerTableau.__new__(_IntegerTableau)
        clone.rows = [list(row) for row in self.rows]
        clone.basis = list(self.basis)
        clone.den = self.den
        clone.objective = list(self.objective)
        clone.n_columns = self.n_columns
        clone.stats = self.stats
        clone.spans = list(self.spans)
        clone.bases = list(self.bases)
        clone.signs = list(self.signs)
        return clone

    # ------------------------------------------------------------------ #
    # Column complementation (the bounded-variable substitutions)
    # ------------------------------------------------------------------ #
    def _flip_nonbasic(self, column: int) -> None:
        """Complement a *nonbasic* column: the variable jumps to its other bound.

        Substituting ``y = span - y'`` negates the column everywhere and
        folds ``span`` into the right-hand sides; the new working variable
        sits at 0, i.e. the original variable now rests at the opposite
        bound.  This is the ``t* = span`` outcome of the ratio test — an
        improving step that needs no pivot.
        """
        span = self.spans[column]
        assert span is not None
        for row in self.rows:
            coeff = row[column]
            if coeff:
                row[-1] -= coeff * span
                row[column] = -coeff
        objective = self.objective
        coeff = objective[column]
        if coeff:
            objective[-1] -= coeff * span
            objective[column] = -coeff
        self.bases[column] += self.signs[column] * span
        self.signs[column] = -self.signs[column]
        self.stats.bound_flips += 1

    def _complement_basic(self, row_index: int) -> None:
        """Complement the *basic* column of one row (leave-at-upper prep).

        The same ``y = span - y'`` substitution followed by a sign
        normalisation of the row, so the basic coefficient stays ``+den``:
        the stored right-hand side becomes ``den*span - rhs`` (negative when
        the basic value exceeded its span) and every other coefficient of
        the row is negated.  The objective row is untouched — the basic
        column's reduced cost is zero and the current point does not move.
        """
        column = self.basis[row_index]
        span = self.spans[column]
        assert span is not None
        row = self.rows[row_index]
        rhs = row[-1]
        self.rows[row_index] = [-value for value in row]
        row = self.rows[row_index]
        row[column] = self.den
        row[-1] = self.den * span - rhs
        self.bases[column] += self.signs[column] * span
        self.signs[column] = -self.signs[column]

    def tighten_column(self, column: int, sense: ConstraintSense, bound: int) -> bool:
        """Tighten one column's box in the standard-form variable space.

        ``bound`` is an integer bound on the standard-form variable ``v``:
        ``v <= bound`` (LE) or ``v >= bound`` (GE).  Returns ``False`` when
        the tightened box is empty (the subproblem is infeasible before any
        pivoting).  A binding tightening on the column's *origin* side
        shifts the working variable, which perturbs the right-hand sides —
        the caller restores feasibility with :meth:`dual_simplex`, exactly
        like after an appended cut row (but with no row growth).
        """
        sign = self.signs[column]
        base = self.bases[column]
        span = self.spans[column]
        # In working coordinates v = base + sign*y, so a bound on v is either
        # a cap on y (same side as the origin's opposite bound) or a raise of
        # the origin itself (handled by shifting y).
        if (sense is ConstraintSense.LE) == (sign > 0):
            # Caps y from above: y <= limit.
            limit = (bound - base) if sign > 0 else (base - bound)
            if limit < 0:
                return False
            if span is None or limit < span:
                self.spans[column] = limit
            return True
        # Raises the origin: y >= shift, i.e. substitute y = shift + y'.
        shift = (bound - base) if sign > 0 else (base - bound)
        if shift <= 0:
            return True
        if span is not None:
            if shift > span:
                return False
            self.spans[column] = span - shift
        for row in self.rows:
            coeff = row[column]
            if coeff:
                row[-1] -= coeff * shift
        weight = self.objective[column]
        if weight:
            self.objective[-1] -= weight * shift
        self.bases[column] = base + sign * shift
        return True

    # ------------------------------------------------------------------ #
    # Core pivoting
    # ------------------------------------------------------------------ #
    def pivot(self, pivot_row: int, pivot_col: int) -> None:
        rows = self.rows
        den = self.den
        source = rows[pivot_row]
        p = source[pivot_col]
        if p == 0:
            raise EngineError("zero pivot element")
        if p > 0:
            for index, row in enumerate(rows):
                if index == pivot_row:
                    continue
                f = row[pivot_col]
                rows[index] = [(p * v - f * w) // den for v, w in zip(row, source)]
            f = self.objective[pivot_col]
            self.objective = [
                (p * v - f * w) // den for v, w in zip(self.objective, source)
            ]
            self.den = p
        else:
            for index, row in enumerate(rows):
                if index == pivot_row:
                    continue
                f = row[pivot_col]
                rows[index] = [(f * w - p * v) // den for v, w in zip(row, source)]
            f = self.objective[pivot_col]
            self.objective = [
                (f * w - p * v) // den for v, w in zip(self.objective, source)
            ]
            rows[pivot_row] = [-v for v in source]
            self.den = -p
        self.basis[pivot_row] = pivot_col
        self.stats.pivots += 1

    # ------------------------------------------------------------------ #
    # Objective installation / readout
    # ------------------------------------------------------------------ #
    def set_objective(self, costs: Sequence[int]) -> None:
        """Install integer costs (standard-form space) priced out for the basis.

        Costs arrive over the standard-form variables ``v``; they are
        translated to the working variables (``v = base + sign*y``), which
        negates complemented columns and folds the ``base`` offsets into the
        constant cell so :meth:`objective_value` keeps reporting the
        standard-form objective value.
        """
        den = self.den
        costs = list(costs) + [0] * (self.n_columns - len(costs))
        constant = 0
        signs = self.signs
        bases = self.bases
        for column, cost in enumerate(costs):
            if cost:
                constant += cost * bases[column]
                if signs[column] < 0:
                    costs[column] = -cost
        objective = [c * den for c in costs] + [-constant * den]
        for row_index, basic in enumerate(self.basis):
            weight = costs[basic]
            if weight:
                row = self.rows[row_index]
                objective = [v - weight * w for v, w in zip(objective, row)]
        self.objective = objective

    def objective_value(self) -> Fraction:
        return Fraction(-self.objective[-1], self.den)

    def structural_values(self, n_structural: int) -> list[Fraction]:
        values = [Fraction(base) for base in self.bases[:n_structural]]
        den = self.den
        for row_index, basic in enumerate(self.basis):
            if basic < n_structural:
                values[basic] += Fraction(
                    self.signs[basic] * self.rows[row_index][-1], den
                )
        return values

    # ------------------------------------------------------------------ #
    # Row addition (warm path)
    # ------------------------------------------------------------------ #
    def add_le_row(self, coefficients: Sequence[int], rhs: int) -> None:
        """Append ``coefficients . v <= rhs`` (integer data) with a fresh slack.

        Coefficients are over the standard-form variables and are translated
        to the working coordinates of each column.  The new row is priced
        out against the current basis; the slack enters the basis, possibly
        with a negative value — the caller is expected to restore
        feasibility with :meth:`dual_simplex`.
        """
        den = self.den
        coefficients = list(coefficients) + [0] * (self.n_columns - len(coefficients))
        signs = self.signs
        bases = self.bases
        for column, value in enumerate(coefficients):
            if value:
                rhs -= value * bases[column]
                if signs[column] < 0:
                    coefficients[column] = -value
        new_row = [value * den for value in coefficients]
        new_row.append(rhs * den)
        for row_index, basic in enumerate(self.basis):
            weight = coefficients[basic]
            if weight:
                row = self.rows[row_index]
                new_row = [v - weight * w for v, w in zip(new_row, row)]
        slack_column = self.n_columns
        for row in self.rows:
            row.insert(-1, 0)
        self.objective.insert(-1, 0)
        new_row.insert(-1, den)
        self.rows.append(new_row)
        self.basis.append(slack_column)
        self.spans.append(None)
        self.bases.append(0)
        self.signs.append(1)
        self.n_columns += 1

    # ------------------------------------------------------------------ #
    # Primal simplex (used for phase 1 and objective stages)
    # ------------------------------------------------------------------ #
    def primal_simplex(self) -> LpStatus:
        iterations = 0
        while True:
            iterations += 1
            if iterations > _MAX_ITERATIONS:
                raise EngineError("primal simplex iteration limit exceeded")
            use_bland = iterations > _BLAND_SWITCH_ITERATIONS
            entering = self._entering_primal(use_bland)
            if entering is None:
                return LpStatus.OPTIMAL
            step = self._leaving_primal(entering, use_bland)
            if step is None:
                return LpStatus.UNBOUNDED
            leaving, at_upper = step
            if leaving is None:
                # The entering variable reaches its own opposite bound before
                # any basic variable blocks: complement it and move on — an
                # improving step with no pivot at all.
                self._flip_nonbasic(entering)
                continue
            if at_upper:
                # The blocking basic variable leaves at its *upper* bound.
                self._complement_basic(leaving)
            self.pivot(leaving, entering)

    def _entering_primal(self, use_bland: bool) -> int | None:
        objective = self.objective
        spans = self.spans
        best: int | None = None
        best_value = 0
        for column in range(self.n_columns):
            if spans[column] == 0:
                continue  # fixed variable: can never move off its bound
            reduced = objective[column]
            if reduced < 0:
                if use_bland:
                    return column
                if reduced < best_value:
                    best = column
                    best_value = reduced
        return best

    def _leaving_primal(
        self, entering: int, use_bland: bool
    ) -> tuple[int | None, bool] | None:
        """Bounded ratio test for the entering column.

        Returns ``None`` when the step is unbounded, ``(None, False)`` when
        the entering variable's own span is the strict minimum (bound flip),
        or ``(row, at_upper)`` for the blocking row — ``at_upper`` marking a
        basic variable that leaves at its span rather than at zero.  Ratios
        are compared by cross multiplication (every candidate is a
        non-negative numerator over a positive denominator, all scaled by
        the same positive ``den``).
        """
        den = self.den
        spans = self.spans
        basis = self.basis
        best_row: int | None = None
        best_upper = False
        best_num = 0
        best_den = 1
        for row_index, row in enumerate(self.rows):
            coeff = row[entering]
            if coeff > 0:
                num = row[-1]
                upper = False
            elif coeff < 0:
                span = spans[basis[row_index]]
                if span is None:
                    continue
                num = den * span - row[-1]
                coeff = -coeff
                upper = True
            else:
                continue
            if best_row is None:
                best_row, best_num, best_den, best_upper = (
                    row_index, num, coeff, upper,
                )
                continue
            left = num * best_den
            right = best_num * coeff
            if left < right or (
                left == right
                and use_bland
                and basis[row_index] < basis[best_row]
            ):
                best_row, best_num, best_den, best_upper = (
                    row_index, num, coeff, upper,
                )
        # A row ratio num/coeff is the step in variable units (the den
        # scaling of num and coeff cancels), so the entering variable's own
        # span compares against it directly.
        own_span = spans[entering]
        if own_span is not None and (
            best_row is None or own_span * best_den < best_num
        ):
            return None, False
        if best_row is None:
            return None
        return best_row, best_upper

    # ------------------------------------------------------------------ #
    # Dual simplex (used after tightening bounds / adding rows)
    # ------------------------------------------------------------------ #
    def dual_simplex(self) -> LpStatus:
        """Restore primal feasibility, keeping the objective row dual-feasible.

        Returns OPTIMAL when every basic value is back inside its box and
        INFEASIBLE when a violated row admits no entering column.  A basic
        value *above its span* is complemented first, which turns it into
        the classic below-zero case.
        """
        iterations = 0
        while True:
            iterations += 1
            if iterations > _MAX_ITERATIONS:
                raise EngineError("dual simplex iteration limit exceeded")
            use_bland = iterations > _BLAND_SWITCH_ITERATIONS
            leaving = self._leaving_dual(use_bland)
            if leaving is None:
                return LpStatus.OPTIMAL
            if self.rows[leaving][-1] > 0:
                # Above-upper violation: complement so it reads as rhs < 0.
                self._complement_basic(leaving)
            entering = self._entering_dual(leaving)
            if entering is None:
                return LpStatus.INFEASIBLE
            self.pivot(leaving, entering)

    def _leaving_dual(self, use_bland: bool) -> int | None:
        den = self.den
        spans = self.spans
        basis = self.basis
        best_row: int | None = None
        best_violation = 0
        for row_index, row in enumerate(self.rows):
            rhs = row[-1]
            if rhs < 0:
                violation = -rhs
            else:
                span = spans[basis[row_index]]
                if span is None or rhs <= den * span:
                    continue
                violation = rhs - den * span
            if use_bland:
                if best_row is None or basis[row_index] < basis[best_row]:
                    best_row = row_index
            elif violation > best_violation:
                best_row = row_index
                best_violation = violation
        return best_row

    def _entering_dual(self, leaving: int) -> int | None:
        # Minimum ratio z_j / (-a_lj) over a_lj < 0, smallest column on ties
        # (a deterministic Bland-style tie-break that prevents cycling).
        # Fixed columns (span 0) are barred: they cannot leave their bound.
        row = self.rows[leaving]
        objective = self.objective
        spans = self.spans
        best: int | None = None
        best_z = 0
        best_coeff = -1
        for column in range(self.n_columns):
            coeff = row[column]
            if coeff >= 0 or spans[column] == 0:
                continue
            z = objective[column]
            if best is None or z * (-best_coeff) < best_z * (-coeff):
                best, best_z, best_coeff = column, z, coeff
        return best

    # ------------------------------------------------------------------ #
    # Phase-1 cleanup
    # ------------------------------------------------------------------ #
    def cleanup_artificials(self, first_artificial: int) -> None:
        """Drive leftover artificials out of the basis and truncate them away.

        Rows whose artificial cannot pivot on any real column are redundant
        (all-zero over the real columns) and are dropped.  The artificial
        columns are trailing — every column at or past *first_artificial* —
        so the truncation leaves later pivots, copies and added cuts a
        tableau that never sees them again.
        """
        redundant: list[int] = []
        for row_index, basic in enumerate(list(self.basis)):
            if basic < first_artificial:
                continue
            row = self.rows[row_index]
            pivot_col = next(
                (
                    column
                    for column in range(first_artificial)
                    if row[column] != 0
                ),
                None,
            )
            if pivot_col is None:
                redundant.append(row_index)
            else:
                self.pivot(row_index, pivot_col)
        for row_index in sorted(redundant, reverse=True):
            del self.rows[row_index]
            del self.basis[row_index]

        self.rows = [row[:first_artificial] + [row[-1]] for row in self.rows]
        self.objective = (
            self.objective[:first_artificial] + [self.objective[-1]]
        )
        self.spans = self.spans[:first_artificial]
        self.bases = self.bases[:first_artificial]
        self.signs = self.signs[:first_artificial]
        self.n_columns = first_artificial


class _BranchNode:
    """One branch & bound work unit: parent tableau plus at most one cut.

    ``path`` is the sequence of branch directions from the stage root
    (``0`` = floor branch, ``1`` = ceil branch); depth-first preorder visits
    nodes in lexicographic ``path`` order, which is the total order the
    deterministic incumbent tie-break is defined against.  ``bound`` carries
    the parent's LP optimum — a valid lower bound for the whole subtree —
    so a stale node can be discarded without re-optimising its tableau.
    """

    __slots__ = ("tableau", "cut", "path", "bound")

    def __init__(
        self,
        tableau: _IntegerTableau,
        cut: tuple[str, ConstraintSense, Fraction] | None,
        path: tuple[int, ...],
        bound: Fraction | None,
    ):
        self.tableau = tableau
        self.cut = cut
        self.path = path
        self.bound = bound

    def __getstate__(self):
        return (self.tableau, self.cut, self.path, self.bound)

    def __setstate__(self, state):
        self.tableau, self.cut, self.path, self.bound = state


class IncrementalIlpEngine:
    """Stateful lexicographic MILP engine for one :class:`LinearProblem`.

    The constructor encodes the problem to standard form; :meth:`solve` then
    runs phase 1 once, minimises the problem's objectives lexicographically
    (freezing each optimum as a pair of rows before the next stage) and
    branch-and-bounds integer variables with dual-simplex warm starts.

    ``workers > 1`` dispatches sibling branch & bound subtrees across the
    given :class:`~repro.ilp.parallel.WorkerPool` (threads; *use_processes*
    opts into forked workers for CPU-bound corpora).  Results are
    bit-identical to the sequential engine: workers share the incumbent
    through an :class:`~repro.ilp.parallel.IncumbentStore` whose tie-break
    (smallest branch path on equal objective values) is exactly the
    sequential first-found rule.
    """

    def __init__(
        self,
        problem: LinearProblem,
        node_limit: int = 20000,
        stats: EngineStatistics | None = None,
        workers: int = 1,
        pool=None,
        use_processes: bool = False,
        core: str = "revised",
    ):
        self.problem = problem
        self.node_limit = node_limit
        self.stats = stats if stats is not None else EngineStatistics()
        self.workers = max(1, int(workers))
        self.pool = pool
        self.use_processes = use_processes
        if core not in CORE_CHOICES:
            raise ValueError(
                f"unknown simplex core {core!r}; known: {CORE_CHOICES}"
            )
        self.core = core

        started = time.perf_counter()
        # The oracle's encoder defines the shift/split column layout; sharing
        # it keeps the engine's variable handling in lockstep with the dense
        # path it is differentially validated against.  The engine only adds
        # integer normalisation and implicit boxes on top.
        self._encoder = _StandardFormEncoder(problem)
        self.n_structural = self._encoder.n_columns

        # Implicit boxes: a shifted column whose [0, upper - lower] width is
        # an integer gets a span instead of an explicit LE row.  Split (free)
        # variables and fractional-width boxes keep the row encoding — a
        # bound over x = x+ - x- is not a column box.
        self._column_spans: list[int | None] = [None] * self.n_structural
        explicit_upper: list[tuple[str, Fraction]] = []
        for name in problem.variables:
            lower, upper = self._encoder.box_of[name]
            if upper is None:
                continue
            if lower is not None and name not in self._encoder.negative_column_of:
                width = upper - lower
                if width.denominator == 1 and width >= 0:
                    self._column_spans[self._encoder.column_of[name]] = int(width)
                    self.stats.rows_saved += 1
                    continue
            explicit_upper.append((name, upper))

        # Base rows: problem constraints then leftover upper bounds,
        # integer-normalised and kept sparse as (column, value) pairs — the
        # dense core densifies them once at root build, the revised core
        # never does.
        self._base_rows: list[
            tuple[tuple[tuple[int, int], ...], ConstraintSense, int]
        ] = []
        for constraint in problem.constraints:
            self._append_base_row(
                constraint.coefficients, constraint.sense, constraint.rhs
            )
        for name, upper in explicit_upper:
            self._append_base_row({name: Fraction(1)}, ConstraintSense.LE, upper)
        self.stats.encode_seconds += time.perf_counter() - started

    def __getstate__(self):
        # Shipped to forked branch & bound workers: the pool holds thread
        # locks and the children run their buckets sequentially anyway.
        state = self.__dict__.copy()
        state["pool"] = None
        state["workers"] = 1
        return state

    # ------------------------------------------------------------------ #
    # Encoding helpers
    # ------------------------------------------------------------------ #
    def _encode_terms(
        self, coefficients: Mapping[str, Fraction]
    ) -> tuple[list[Fraction], Fraction]:
        """Dense structural-column coefficients plus the shift offset."""
        return self._encoder.encode_terms(coefficients)

    def _append_base_row(
        self,
        coefficients: Mapping[str, Fraction],
        sense: ConstraintSense,
        rhs: Fraction,
    ) -> None:
        encoded = self._encode_integer_row(coefficients, rhs)
        if encoded is None:
            # Fractional data: exact rational encoding over the dense width,
            # then back to pairs.  The scheduler's rows are integral, so this
            # detour is the exception — `dense_encode_rows` counts it.
            dense, offset = self._encode_terms(coefficients)
            dense.append(rhs - offset)
            integer = reduce_integer_row(clear_denominators(dense))
            pairs = tuple(
                (column, value)
                for column, value in enumerate(integer[:-1])
                if value
            )
            encoded = (pairs, integer[-1])
            self.stats.dense_encode_rows += 1
        else:
            self.stats.sparse_encoded_rows += 1
        self._base_rows.append((encoded[0], sense, encoded[1]))

    def _encode_integer_row(
        self, coefficients: Mapping[str, Fraction], rhs: Fraction
    ) -> tuple[tuple[tuple[int, int], ...], int] | None:
        """Sparse all-integer encoding, or ``None`` when any datum is fractional.

        The sparse Farkas core hands the scheduler integer rows already, so
        the common path builds the standard-form row by walking the non-zero
        terms only — no dense list over the column width at any point: the
        row stays ``(column, value)`` pairs from the constraint dict to the
        simplex core.  The GCD reduction matches ``reduce_integer_row`` on
        the equivalent dense row (zero cells never change a GCD), so the
        dense core sees bit-identical data.  Any fractional coefficient,
        shift or right-hand side falls back to the exact rational encoding.
        """
        # ints and Fractions alike expose numerator/denominator.
        if rhs.denominator != 1:
            return None
        encoder = self._encoder
        accumulated: dict[int, int] = {}
        offset = 0
        for name, coefficient in coefficients.items():
            if coefficient.denominator != 1:
                return None
            value = coefficient.numerator
            if value == 0:
                continue
            shift = encoder.shift_of[name]
            if shift:
                if shift.denominator != 1:
                    return None
                offset += value * shift.numerator
            column = encoder.column_of[name]
            accumulated[column] = accumulated.get(column, 0) + value
            negative = encoder.negative_column_of.get(name)
            if negative is not None:
                accumulated[negative] = accumulated.get(negative, 0) - value
        rhs_value = rhs.numerator - offset
        pairs = sorted(
            (column, value) for column, value in accumulated.items() if value
        )
        g = 0
        for _, value in pairs:
            g = gcd(g, value)
            if g == 1:
                break
        if g != 1:
            g = gcd(g, rhs_value)
        if g > 1:
            pairs = [(column, value // g) for column, value in pairs]
            rhs_value //= g
        return tuple(pairs), rhs_value

    def _encode_objective(
        self, objective: Mapping[str, Fraction]
    ) -> tuple[list[int], int, Fraction]:
        """Integer column costs, their positive scale, and the shift offset."""
        dense, offset = self._encode_terms(objective)
        # The trailing 1 records the positive factor the row was scaled by;
        # the GCD reduction divides costs and factor alike, so the readout
        # `tableau_value / scale` stays exact.
        integer = reduce_integer_row(clear_denominators(dense + [Fraction(1)]))
        return integer[:-1], integer[-1], offset

    # ------------------------------------------------------------------ #
    # Root tableau (phase 1, run once)
    # ------------------------------------------------------------------ #
    def _build_root(self):
        """Feasible slack-only tableau, or ``None`` when the LP is infeasible.

        Rows are normalised so that a row only needs an artificial variable
        when the all-slack point genuinely violates it: ``<=`` rows with a
        non-negative right-hand side (after possibly flipping the row's sign)
        start with their slack basic at a feasible value.  The scheduler's
        Farkas rows are homogeneous (``... >= 0``), so phase 1 typically only
        has to repair the few equality and strict-progression rows.

        The root is built for the configured simplex core: the revised core
        takes the rows as sparse pairs directly; the dense tableau is the
        only consumer that ever materialises them.
        """
        specs: list[tuple[tuple[tuple[int, int], ...], ConstraintSense, int]] = []
        for pairs, sense, rhs in self._base_rows:
            flip = False
            if sense is ConstraintSense.EQ:
                flip = rhs < 0
            elif sense is ConstraintSense.GE:
                # a.x >= rhs with rhs <= 0 is satisfied at x = 0: flip to <=.
                flip = rhs <= 0
            else:
                flip = rhs < 0
            if flip:
                pairs = tuple((column, -value) for column, value in pairs)
                rhs = -rhs
                if sense is ConstraintSense.LE:
                    sense = ConstraintSense.GE
                elif sense is ConstraintSense.GE:
                    sense = ConstraintSense.LE
            specs.append((pairs, sense, rhs))

        n_structural = self.n_structural
        n_slack = sum(1 for _, sense, _ in specs if sense is not ConstraintSense.EQ)
        n_artificial = sum(
            1 for _, sense, _ in specs if sense is not ConstraintSense.LE
        )
        total = n_structural + n_slack + n_artificial

        row_specs: list[tuple[tuple[tuple[int, int], ...], int]] = []
        basis: list[int] = []
        artificial_columns: list[int] = []
        slack_index = 0
        artificial_index = 0
        for pairs, sense, rhs in specs:
            entries = list(pairs)
            if sense is not ConstraintSense.EQ:
                column = n_structural + slack_index
                entries.append((column, 1 if sense is ConstraintSense.LE else -1))
                slack_index += 1
            if sense is ConstraintSense.LE:
                basis.append(n_structural + slack_index - 1)
            else:
                column = n_structural + n_slack + artificial_index
                entries.append((column, 1))
                artificial_columns.append(column)
                basis.append(column)
                artificial_index += 1
            row_specs.append((tuple(entries), rhs))

        spans = list(self._column_spans) + [None] * (total - n_structural)
        dense_cells = len(row_specs) * (total + 1)
        if self.core == "revised":
            from .revised import _RevisedTableau

            tableau = _RevisedTableau(row_specs, basis, total, self.stats, spans)
            self.stats.tableau_cells_saved += dense_cells - tableau.stored_cells()
        else:
            rows: list[list[int]] = []
            for entries, rhs in row_specs:
                padded = [0] * total
                for column, value in entries:
                    padded[column] = value
                padded.append(rhs)
                rows.append(padded)
            tableau = _IntegerTableau(rows, basis, total, self.stats, spans)
        self.stats.tableau_rows += len(row_specs)
        self.stats.tableau_cells += dense_cells
        if not artificial_columns:
            return tableau

        # Phase 1: minimise the sum of the artificial variables.
        costs = [0] * total
        for column in artificial_columns:
            costs[column] = 1
        tableau.set_objective(costs)
        pivots_before = self.stats.pivots
        status = tableau.primal_simplex()
        self.stats.phase1_pivots += self.stats.pivots - pivots_before
        if status is not LpStatus.OPTIMAL:  # pragma: no cover - phase 1 is bounded
            raise EngineError("phase 1 cannot be unbounded")
        if tableau.objective_value() != 0:
            return None

        # Drive leftover artificials out of the basis, drop redundant rows
        # and truncate the trailing artificial columns away.
        tableau.cleanup_artificials(n_structural + n_slack)
        return tableau

    # ------------------------------------------------------------------ #
    # Branch & bound (dual-simplex warm-started)
    # ------------------------------------------------------------------ #
    def _branching_cut_row(
        self, name: str, sense: ConstraintSense, bound: Fraction, width: int
    ) -> tuple[list[int], int]:
        """Integer LE-row over *width* columns for a single-variable cut."""
        dense = [Fraction(0)] * width
        column = self._encoder.column_of[name]
        negative = self._encoder.negative_column_of.get(name)
        rhs = bound - self._encoder.shift_of[name]
        if sense is ConstraintSense.LE:
            dense[column] = Fraction(1)
            if negative is not None:
                dense[negative] = Fraction(-1)
        else:  # GE: negate into a LE row
            dense[column] = Fraction(-1)
            if negative is not None:
                dense[negative] = Fraction(1)
            rhs = -rhs
        integer = reduce_integer_row(clear_denominators(dense + [rhs]))
        return integer[:-1], integer[-1]

    def _decode(self, tableau: _IntegerTableau) -> dict[str, Fraction]:
        return self._encoder.decode(tableau.structural_values(self.n_structural))

    def _process_node(
        self,
        node: _BranchNode,
        store,
        objective: Mapping[str, Fraction],
        scale: int,
        offset: Fraction,
        feasibility_only: bool,
    ) -> list[_BranchNode]:
        """Solve one node against the shared incumbent; return its children.

        The returned children are in exploration order (floor branch first);
        callers that maintain a LIFO stack must push them reversed.  Safe to
        call from worker threads: the parent tableau is only read (children
        pivot on their own copy) and *store* is internally locked.
        """
        self.stats.nodes += 1
        # Stale pre-check: the parent's LP optimum bounds the whole subtree,
        # so a node that can no longer win is dropped without touching its
        # tableau (this is what drains a queue of stale siblings cheaply
        # once an incumbent has proven optimality).
        if node.bound is not None and store.should_prune(node.bound, node.path):
            self.stats.stale_drops += 1
            return []
        if node.cut is None:
            tableau = node.tableau
        else:
            tableau = node.tableau.copy()
            name, sense, bound = node.cut
            bound_v = bound - self._encoder.shift_of[name]
            if (
                name not in self._encoder.negative_column_of
                and bound_v.denominator == 1
            ):
                # Branching is a bound tightening, not a new row: the child
                # tableau keeps its parent's height.  Integer branching
                # bounds over a shifted (non-split) column are always
                # integral, so this is the common path.
                feasible = tableau.tighten_column(
                    self._encoder.column_of[name], sense, int(bound_v)
                )
                if not feasible:
                    return []
                self.stats.rows_saved += 1
            else:
                # Split (free) variables fall back to an explicit cut row.
                coefficients, rhs = self._branching_cut_row(
                    name, sense, bound, tableau.n_columns
                )
                tableau.add_le_row(coefficients, rhs)
            status = tableau.dual_simplex()
            if status is LpStatus.INFEASIBLE:
                return []
            # A child re-optimised to a usable LP optimum purely by dual
            # pivots from its parent's basis — the warm start paid off.
            self.stats.warm_start_hits += 1
        relaxation = tableau.objective_value() / scale + offset
        if store.should_prune(relaxation, node.path):
            self.stats.bound_prunes += 1
            return []
        assignment = self._decode(tableau)
        fractional = _first_fractional(self.problem, assignment)
        if fractional is None:
            if not self.problem.is_feasible_assignment(assignment):
                raise EngineError("engine produced an infeasible incumbent")
            value = _evaluate(objective, assignment)
            if store.offer(value, node.path, assignment):
                self.stats.incumbent_updates += 1
            return []
        name, value = fractional
        floor_value = Fraction(value.numerator // value.denominator)
        return [
            _BranchNode(
                tableau, (name, ConstraintSense.LE, floor_value),
                node.path + (0,), relaxation,
            ),
            _BranchNode(
                tableau, (name, ConstraintSense.GE, floor_value + 1),
                node.path + (1,), relaxation,
            ),
        ]

    def _drain_bounded(
        self,
        nodes: Sequence[_BranchNode],
        store,
        stage_args: tuple,
        max_nodes: int,
    ) -> tuple[int, list[_BranchNode]]:
        """Depth-first drain of at most *max_nodes* nodes.

        Returns (nodes solved, remaining frontier in lexicographic path
        order).  *nodes* must be in lexicographic path order too; the drain
        then visits the forest in preorder, which keeps the feasibility-mode
        early break sound (everything left on the stack has a larger path
        than the incumbent, so nothing that could win is skipped).
        """
        feasibility_only = stage_args[-1]
        stack = list(reversed(nodes))
        count = 0
        while stack and count < max_nodes:
            node = stack.pop()
            count += 1
            if count > self.node_limit:
                raise EngineLimitError("branch & bound node limit exceeded")
            children = self._process_node(node, store, *stage_args)
            if feasibility_only and store.has_incumbent():
                return count, []
            stack.extend(reversed(children))
        return count, list(reversed(stack))

    def _drain_sequential(
        self,
        nodes: Sequence[_BranchNode],
        store,
        stage_args: tuple,
        node_budget: int | None = None,
    ) -> int:
        """Drain *nodes* (lexicographic path order) to completion."""
        budget = self.node_limit if node_budget is None else node_budget
        count, frontier = self._drain_bounded(nodes, store, stage_args, budget)
        if frontier:
            raise EngineLimitError("branch & bound node limit exceeded")
        return count

    def _minimize_stage(
        self,
        root: _IntegerTableau,
        objective: Mapping[str, Fraction],
        scale: int,
        offset: Fraction,
        feasibility_only: bool,
    ) -> tuple[
        LpStatus,
        dict[str, Fraction] | None,
        Fraction | None,
        tuple[int, ...] | None,
    ]:
        """Branch & bound below *root* (already primal-optimal for the stage).

        Returns (status, assignment, value, branch path of the winner).  With
        ``workers > 1`` the subtree exploration is dispatched across the
        worker pool; the deterministic incumbent tie-break guarantees the
        same return value either way.
        """
        from .parallel import IncumbentStore, ParallelBranchAndBound

        store = IncumbentStore()
        stage_args = (objective, scale, offset, feasibility_only)
        root_node = _BranchNode(root, None, (), None)
        if self.workers > 1 and self.pool is not None:
            try:
                ParallelBranchAndBound(
                    self, self.workers, self.pool, self.use_processes
                ).minimize(root_node, store, stage_args)
            except EngineLimitError:
                # Speculative parallel exploration can overshoot the node
                # budget (threads prune later than depth-first order;
                # process children hold per-bucket budgets).  The limit
                # verdict must not depend on the worker count, so the stage
                # re-runs sequentially: it raises only if workers=1 would.
                store = IncumbentStore()
                self._drain_sequential([root_node], store, stage_args)
        else:
            self._drain_sequential([root_node], store, stage_args)

        value, path, assignment = store.best()
        if assignment is None:
            return LpStatus.INFEASIBLE, None, None, None
        return LpStatus.OPTIMAL, assignment, value, path

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def solve(self) -> IlpSolution | None:
        """Lexicographically optimal integer solution, or ``None`` if infeasible.

        Raises :class:`ValueError` when an objective is unbounded below (the
        same contract as :class:`repro.ilp.solver.IlpSolver`).
        """
        started = time.perf_counter()
        self.stats.solves += 1
        try:
            tableau = self._build_root()
            if tableau is None:
                return None

            objectives = [
                {
                    name: value
                    for name, value in objective.items()
                    if value != 0
                }
                for objective in self.problem.objectives
            ]
            if not objectives:
                objectives = [{}]

            last_assignment: dict[str, Fraction] | None = None
            last_path: tuple[int, ...] | None = None
            objective_values: list[Fraction] = []
            for stage_index, objective in enumerate(objectives):
                self.stats.stages += 1
                costs, scale, offset = self._encode_objective(objective)
                tableau.set_objective(costs)
                status = tableau.primal_simplex()
                if status is LpStatus.UNBOUNDED:
                    if not objective:  # pragma: no cover - zero objective is bounded
                        raise EngineError("zero objective reported unbounded")
                    raise ValueError(
                        "objective is unbounded below; scheduling variables must be bounded"
                    )
                feasibility_only = not objective
                status, assignment, value, path = self._minimize_stage(
                    tableau, objective, scale, offset, feasibility_only
                )
                if status is LpStatus.INFEASIBLE:
                    return None
                assert assignment is not None and value is not None
                last_assignment = assignment
                last_path = path
                if self.problem.objectives:
                    objective_values.append(value)
                if stage_index + 1 < len(objectives) and objective:
                    self._freeze_objective(tableau, objective, value)

            assert last_assignment is not None
            return IlpSolution(last_assignment, objective_values, node_key=last_path)
        finally:
            self.stats.solve_seconds += time.perf_counter() - started

    def _freeze_objective(
        self,
        tableau: _IntegerTableau,
        objective: Mapping[str, Fraction],
        value: Fraction,
    ) -> None:
        """Pin ``objective == value`` onto the stage tableau (dual reoptimised)."""
        dense, offset = self._encode_terms(objective)
        target = value - offset
        integer = reduce_integer_row(clear_denominators(dense + [target]))
        coefficients, rhs = integer[:-1], integer[-1]
        tableau.add_le_row(coefficients, rhs)
        tableau.add_le_row([-c for c in coefficients], -rhs)
        status = tableau.dual_simplex()
        if status is not LpStatus.OPTIMAL:
            # The integer optimum is always attainable by the relaxation that
            # contains it; failure here is an engine inconsistency.
            raise EngineError("freezing a lexicographic stage made the LP infeasible")
