"""Revised-simplex core: sparse rows and a factored basis.

:class:`_RevisedTableau` is the simplex state of the incremental engine
(:mod:`repro.ilp.engine`).  Instead of materialising the tableau
``den * B^{-1}A`` (``den = |det B|`` for the current basis ``B``) it keeps

* the constraint rows **sparse and immutable** as ``(column, value)`` pairs in
  a sign-neutral coordinate system (a complemented column is read through
  ``signs`` at use time, so bound flips never rewrite the matrix),
* a column-major index over the same entries (FTRAN seeds),
* the right-hand sides ``beta = den * B^{-1} b`` and the reduced-cost row
  densely (both are updated per pivot with the fraction-free formulas of an
  integer tableau; every entry stays integral for an integer constraint
  matrix because ``den * B^{-1}`` is the sign-adjusted adjugate of ``B``),
* the basis inverse as a fraction-free
  :class:`~repro.linalg.sparse_lu.EtaFile` — an appended row borders it (one
  operation, the denominator unchanged), and it is re-inverted when the update
  tail grows past ``max(16, m)`` operations or phase 1 drops redundant rows.

Each pivot FTRANs the entering column (which also drives the ratio test),
BTRANs the pivot row (which prices the reduced-cost update), and appends one
eta operation.  Every number that feeds a pivot *decision* — reduced costs,
ratio-test numerators, dual violations — is the exact integer the full
tableau would hold in the corresponding cell, so the pivot sequences, the
solutions, and the branch & bound ``node_key`` witnesses are the same for any
refactorisation policy (re-inversion is observably transparent).  A cheap
cross-check per pivot (``xhat[r] == what[q]``, the same cell computed by FTRAN
and BTRAN) turns any factorisation drift into an
:class:`~repro.ilp.engine.EngineError`, which propagates to the caller.

Branch & bound children :meth:`copy` in ``O(m + n + ops)``: the sparse rows
and the recorded eta operations are shared with the parent, so a child reuses
the parent's factorisation and replays only its own cuts plus the eta tail —
this is what makes deep branching affordable on large SCoPs.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import Sequence

from ..linalg.sparse_lu import EtaFile, FactorizationError
from .encode import LpStatus
from .engine import (
    _BLAND_SWITCH_ITERATIONS,
    _MAX_ITERATIONS,
    EngineError,
    EngineStatistics,
)
from .problem import ConstraintSense

__all__ = ["_RevisedTableau"]

_MIN_REFRESH_OPS = 16


class _RevisedTableau:
    """Bounded-variable simplex over sparse rows and a factored basis.

    Variable boxes are implicit (no upper-bound rows).  Column ``j`` is a
    *working variable* ``y_j`` with ``0 <= y_j <= spans[j]`` (``None`` means
    unbounded above); it maps to the standard-form variable through
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
    width is an integer), so every update stays in integer arithmetic.
    """

    __slots__ = (
        "rows",
        "cols",
        "beta",
        "basis",
        "objective",
        "n_columns",
        "stats",
        "spans",
        "bases",
        "signs",
        "file",
    )

    def __init__(
        self,
        rows: Sequence[tuple[Sequence[tuple[int, int]], int]],
        basis: list[int],
        n_columns: int,
        stats: EngineStatistics,
        spans: list[int | None] | None = None,
    ):
        self.rows: list[tuple[tuple[int, int], ...]] = [
            tuple(pairs) for pairs, _ in rows
        ]
        # The root basis is slack/artificial-identity (den == 1, B == I), so
        # beta starts as the raw right-hand sides and the file starts empty.
        self.beta: list[int] = [rhs for _, rhs in rows]
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n_columns)]
        for index, row in enumerate(self.rows):
            for column, value in row:
                cols[column].append((index, value))
        self.cols = cols
        self.basis = basis
        self.n_columns = n_columns
        self.objective: list[int] = [0] * (n_columns + 1)
        self.stats = stats
        if spans is None:
            spans = [None] * n_columns
        self.spans: list[int | None] = spans
        self.bases: list[int] = [0] * n_columns
        self.signs: list[int] = [1] * n_columns
        self.file = EtaFile()

    @property
    def den(self) -> int:
        return self.file.den

    def copy(self) -> "_RevisedTableau":
        clone = _RevisedTableau.__new__(_RevisedTableau)
        clone.rows = list(self.rows)
        clone.cols = list(self.cols)
        clone.beta = list(self.beta)
        clone.basis = list(self.basis)
        clone.objective = list(self.objective)
        clone.n_columns = self.n_columns
        clone.stats = self.stats
        clone.spans = list(self.spans)
        clone.bases = list(self.bases)
        clone.signs = list(self.signs)
        clone.file = self.file.copy()
        return clone

    # ------------------------------------------------------------------ #
    # Basis factorisation
    # ------------------------------------------------------------------ #
    def _ensure_factored(self) -> None:
        file = self.file
        m = len(self.basis)
        threshold = m if m > _MIN_REFRESH_OPS else _MIN_REFRESH_OPS
        if file.stale or file.update_ops > threshold:
            self._refactor()

    def _refactor(self) -> None:
        started = perf_counter()
        columns: list[Sequence[tuple[int, int]]] = []
        cols = self.cols
        signs = self.signs
        for column in self.basis:
            entries = cols[column]
            if signs[column] < 0:
                entries = [(i, -value) for i, value in entries]
            columns.append(entries)
        try:
            self.file.refactor(columns)
        except FactorizationError as error:
            raise EngineError(str(error)) from error
        stats = self.stats
        stats.refactorizations += 1
        stats.basis_nnz += self.file.base_nnz()
        stats.refactor_seconds += perf_counter() - started

    def _ftran_column(self, column: int) -> list[int]:
        """Entering column through the factors: ``den * B^{-1} A_w[:, column]``."""
        self._ensure_factored()
        started = perf_counter()
        v = [0] * len(self.basis)
        if self.signs[column] > 0:
            for index, value in self.cols[column]:
                v[index] = value
        else:
            for index, value in self.cols[column]:
                v[index] = -value
        v = self.file.ftran(v)
        self.stats.ftran_seconds += perf_counter() - started
        return v

    def _btran_row(self, row_index: int) -> list[int]:
        """Pivot row through the factors: ``den * (B^{-1} A_w)[row_index, :]``."""
        self._ensure_factored()
        started = perf_counter()
        seed = [0] * len(self.basis)
        seed[row_index] = 1
        t = self.file.btran(seed)
        w = [0] * self.n_columns
        rows = self.rows
        signs = self.signs
        for index, weight in enumerate(t):
            if weight:
                for column, value in rows[index]:
                    if signs[column] > 0:
                        w[column] += weight * value
                    else:
                        w[column] -= weight * value
        self.stats.btran_seconds += perf_counter() - started
        return w

    # ------------------------------------------------------------------ #
    # Column complementation (the bounded-variable substitutions)
    # ------------------------------------------------------------------ #
    def _flip_nonbasic(self, column: int, xhat: Sequence[int]) -> None:
        """Complement a *nonbasic* column: the variable jumps to its other bound.

        Substituting ``y = span - y'`` negates the column and folds ``span``
        into the right-hand sides through *xhat*, the column's FTRAN image;
        the new working variable sits at 0, i.e. the original variable now
        rests at the opposite bound.  This is the ``t* = span`` outcome of
        the ratio test — an improving step that needs no pivot.
        """
        span = self.spans[column]
        assert span is not None
        beta = self.beta
        for index, value in enumerate(xhat):
            if value:
                beta[index] -= value * span
        objective = self.objective
        coeff = objective[column]
        if coeff:
            objective[-1] -= coeff * span
            objective[column] = -coeff
        self.bases[column] += self.signs[column] * span
        self.signs[column] = -self.signs[column]
        self.stats.bound_flips += 1

    def _complement_basic(self, row_index: int) -> None:
        """Complement the basic column of one row (leave-at-upper prep).

        The basis column's sign flip negates row ``row_index`` of ``B^{-1}``,
        recorded as one eta operation (skipped while the file is stale — after
        phase 1 dropped rows the pending refactorisation rebuilds from
        ``signs`` and would discard it).  Only this row's rhs moves: it
        becomes ``den*span - rhs`` (negative when the basic value exceeded
        its span).  The objective row is untouched — the basic column's
        reduced cost is zero and the current point does not move.
        """
        column = self.basis[row_index]
        span = self.spans[column]
        assert span is not None
        self.beta[row_index] = self.file.den * span - self.beta[row_index]
        if not self.file.stale:
            self.file.append_negate(row_index)
            self.stats.eta_entries += 1
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
        if (sense is ConstraintSense.LE) == (sign > 0):
            limit = (bound - base) if sign > 0 else (base - bound)
            if limit < 0:
                return False
            if span is None or limit < span:
                self.spans[column] = limit
            return True
        shift = (bound - base) if sign > 0 else (base - bound)
        if shift <= 0:
            return True
        if span is not None:
            if shift > span:
                return False
            self.spans[column] = span - shift
        # beta_i -= xhat_i * shift.  The branching variable is basic (a
        # nonbasic variable sits on an integral bound and never branches), and
        # a basic column's FTRAN image is den * e_r — one entry, no solve.
        try:
            row_index = self.basis.index(column)
        except ValueError:
            xhat = self._ftran_column(column)
            beta = self.beta
            for index, value in enumerate(xhat):
                if value:
                    beta[index] -= value * shift
        else:
            self.beta[row_index] -= self.file.den * shift
        weight = self.objective[column]
        if weight:
            self.objective[-1] -= weight * shift
        self.bases[column] = base + sign * shift
        return True

    # ------------------------------------------------------------------ #
    # Core pivoting
    # ------------------------------------------------------------------ #
    def _pivot_apply(
        self,
        pivot_row: int,
        pivot_col: int,
        xhat: Sequence[int],
        what: Sequence[int],
    ) -> None:
        """One fraction-free basis change given FTRAN column and BTRAN row.

        Applies the fraction-free pivot formulas to the only dense state kept
        (rhs and reduced costs) and appends the eta operation.  ``xhat`` and
        ``what`` computed the pivot cell independently; a mismatch means the
        factorisation drifted and the engine must not continue.
        """
        p = xhat[pivot_row]
        if p == 0:
            raise EngineError("zero pivot element")
        if what[pivot_col] != p:
            raise EngineError("revised core pivot cross-check failed")
        den = self.file.den
        beta = self.beta
        beta_r = beta[pivot_row]
        objective = self.objective
        f = objective[pivot_col]
        entries = self.file.append_pivot(pivot_row, xhat)
        self.stats.eta_entries += len(entries) + 1
        # A negative pivot also negates the pivot row; folding that sign into
        # f and beta_r leaves one set of formulas over q = |p|.
        if p > 0:
            q = p
            new_beta_r = beta_r
        else:
            q = -p
            f = -f
            new_beta_r = -beta_r
        if q == den:
            # The denominator does not move, so a cell changes only where the
            # pivot row (*what*) or the pivot column (*entries*, the non-zeros
            # of *xhat* the file just stored) is non-zero.
            if f:
                for column, value in enumerate(what):
                    if value:
                        objective[column] -= f * value // den
                objective[-1] -= f * beta_r // den
            if beta_r:
                for index, value in entries.items():
                    beta[index] -= value * new_beta_r // den
        else:
            new_objective = [
                (q * v - f * w) // den for v, w in zip(objective, what)
            ]
            new_objective.append((q * objective[-1] - f * beta_r) // den)
            self.objective = new_objective
            for index in range(len(beta)):
                if index != pivot_row:
                    beta[index] = (q * beta[index] - xhat[index] * new_beta_r) // den
        beta[pivot_row] = new_beta_r
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
        costs = list(costs) + [0] * (self.n_columns - len(costs))
        constant = 0
        signs = self.signs
        bases = self.bases
        for column, cost in enumerate(costs):
            if cost:
                constant += cost * bases[column]
                if signs[column] < 0:
                    costs[column] = -cost
        basis = self.basis
        basic_costs = [costs[basic] for basic in basis]
        if any(basic_costs):
            self._ensure_factored()
            den = self.file.den
            t = self.file.btran(list(basic_costs))
            acc = [0] * self.n_columns
            rows = self.rows
            for index, weight in enumerate(t):
                if weight:
                    for column, value in rows[index]:
                        acc[column] += weight * value
            objective = []
            for column in range(self.n_columns):
                priced = acc[column]
                if signs[column] < 0 and priced:
                    priced = -priced
                objective.append(costs[column] * den - priced)
        else:
            den = self.file.den
            objective = [cost * den for cost in costs]
        constant_cell = -constant * den
        beta = self.beta
        for index, weight in enumerate(basic_costs):
            if weight:
                constant_cell -= weight * beta[index]
        objective.append(constant_cell)
        self.objective = objective

    def objective_value(self) -> Fraction:
        return Fraction(-self.objective[-1], self.file.den)

    def structural_values(self, n_structural: int) -> list[Fraction]:
        values = [Fraction(base) for base in self.bases[:n_structural]]
        den = self.file.den
        for row_index, basic in enumerate(self.basis):
            if basic < n_structural:
                values[basic] += Fraction(self.signs[basic] * self.beta[row_index], den)
        return values

    # ------------------------------------------------------------------ #
    # Row addition (warm path)
    # ------------------------------------------------------------------ #
    def add_le_row(self, pairs: Sequence[tuple[int, int]], rhs: int) -> None:
        """Append ``pairs . v <= rhs`` with a fresh basic slack.

        *pairs* are the row's non-zero integer ``(column, value)`` entries in
        column order (:meth:`~repro.ilp.encode.StandardFormEncoder.base_row`),
        stored as given.  The slack enters the basis, possibly with a negative
        value — the caller is expected to restore feasibility with
        :meth:`dual_simplex`.  Stored entries are the raw coefficients — the
        sign-neutral system absorbs current complementations through
        ``signs`` at read time — and only the priced rhs needs computing (a
        dot over the basic columns of the new row).  The same loop collects
        the row's working coefficients over basis positions, the payload of
        the eta file's border: with the slack basic, ``|det B|`` does not
        move and ``den * B^{-1}`` grows by one row instead of being
        re-inverted (no border while the file is stale: the pending
        refactorisation rebuilds from the grown basis anyway).
        """
        den = self.file.den
        bases = self.bases
        signs = self.signs
        folded_rhs = rhs
        for column, value in pairs:
            folded_rhs -= value * bases[column]
        coefficient_of = dict(pairs)
        priced = den * folded_rhs
        beta = self.beta
        border: dict[int, int] = {}
        for index, basic in enumerate(self.basis):
            value = coefficient_of.get(basic)
            if value:
                working = value if signs[basic] > 0 else -value
                priced -= working * beta[index]
                border[index] = working
        row_index = len(self.rows)
        slack_column = self.n_columns
        cols = self.cols
        for column, value in pairs:
            cols[column] = cols[column] + [(row_index, value)]
        cols.append([(row_index, 1)])
        self.rows.append((*pairs, (slack_column, 1)))
        beta.append(priced)
        self.basis.append(slack_column)
        self.objective.insert(-1, 0)
        self.spans.append(None)
        self.bases.append(0)
        self.signs.append(1)
        self.n_columns += 1
        if not self.file.stale:
            self.file.append_border(row_index, border)

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
            xhat = self._ftran_column(entering)
            step = self._leaving_primal(entering, xhat, use_bland)
            if step is None:
                return LpStatus.UNBOUNDED
            leaving, at_upper = step
            if leaving is None:
                self._flip_nonbasic(entering, xhat)
                continue
            if at_upper:
                self._complement_basic(leaving)
                xhat[leaving] = -xhat[leaving]
            what = self._btran_row(leaving)
            self._pivot_apply(leaving, entering, xhat, what)

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
        self, entering: int, xhat: Sequence[int], use_bland: bool
    ) -> tuple[int | None, bool] | None:
        """Bounded ratio test over the FTRANed entering column *xhat*.

        Returns ``None`` when the step is unbounded, ``(None, False)`` when
        the entering variable's own span is the strict minimum (bound flip),
        or ``(row, at_upper)`` for the blocking row — ``at_upper`` marking a
        basic variable that leaves at its span rather than at zero.  Ratios
        are compared by cross multiplication (every candidate is a
        non-negative numerator over a positive denominator, all scaled by
        the same positive ``den``).
        """
        den = self.file.den
        spans = self.spans
        basis = self.basis
        beta = self.beta
        best_row: int | None = None
        best_upper = False
        best_num = 0
        best_den = 1
        for row_index in range(len(beta)):
            coeff = xhat[row_index]
            if coeff > 0:
                num = beta[row_index]
                upper = False
            elif coeff < 0:
                span = spans[basis[row_index]]
                if span is None:
                    continue
                num = den * span - beta[row_index]
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
        """Dual simplex to primal feasibility (optimal basis for the objective)."""
        iterations = 0
        while True:
            iterations += 1
            if iterations > _MAX_ITERATIONS:
                raise EngineError("dual simplex iteration limit exceeded")
            use_bland = iterations > _BLAND_SWITCH_ITERATIONS
            leaving = self._leaving_dual(use_bland)
            if leaving is None:
                return LpStatus.OPTIMAL
            if self.beta[leaving] > 0:
                # Above-upper violation: complement so it reads as rhs < 0.
                self._complement_basic(leaving)
            what = self._btran_row(leaving)
            entering = self._entering_dual(what)
            if entering is None:
                return LpStatus.INFEASIBLE
            xhat = self._ftran_column(entering)
            self._pivot_apply(leaving, entering, xhat, what)

    def _leaving_dual(self, use_bland: bool) -> int | None:
        den = self.file.den
        spans = self.spans
        basis = self.basis
        best_row: int | None = None
        best_violation = 0
        for row_index, rhs in enumerate(self.beta):
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

    def _entering_dual(self, what: Sequence[int]) -> int | None:
        # Minimum ratio z_j / (-a_lj) over a_lj < 0, smallest column on ties
        # (Bland-style tie-break); *what* is the BTRANed leaving row.
        objective = self.objective
        spans = self.spans
        best: int | None = None
        best_z = 0
        best_coeff = -1
        for column in range(self.n_columns):
            coeff = what[column]
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
        """Drive leftover artificials out, drop redundant rows, truncate.

        The pivot column is the *first* real column with a non-zero entry in
        the artificial's (BTRANed) row; rows with no such column are redundant
        and removed.  A removed row's basic column is a unit vector of the old
        system, so ``|det B|`` — the file denominator — is preserved; the
        refactorisation check enforces exactly that.
        """
        redundant: list[int] = []
        for row_index, basic in enumerate(list(self.basis)):
            if basic < first_artificial:
                continue
            what = self._btran_row(row_index)
            pivot_col = next(
                (
                    column
                    for column in range(first_artificial)
                    if what[column] != 0
                ),
                None,
            )
            if pivot_col is None:
                redundant.append(row_index)
            else:
                xhat = self._ftran_column(pivot_col)
                self._pivot_apply(row_index, pivot_col, xhat, what)
        dropped = set(redundant)
        keep = [index for index in range(len(self.rows)) if index not in dropped]
        if dropped:
            self.beta = [self.beta[index] for index in keep]
            self.basis = [self.basis[index] for index in keep]
        # The artificial columns are trailing; strip their entries so later
        # row scans, refactorisations and added cuts never see them again.
        self.rows = [
            tuple(
                (column, value)
                for column, value in self.rows[index]
                if column < first_artificial
            )
            for index in keep
        ]
        cols: list[list[tuple[int, int]]] = [[] for _ in range(first_artificial)]
        for index, row in enumerate(self.rows):
            for column, value in row:
                cols[column].append((index, value))
        self.cols = cols
        self.objective = self.objective[:first_artificial] + [self.objective[-1]]
        self.spans = self.spans[:first_artificial]
        self.bases = self.bases[:first_artificial]
        self.signs = self.signs[:first_artificial]
        self.n_columns = first_artificial
        if dropped:
            self.file.mark_stale()
