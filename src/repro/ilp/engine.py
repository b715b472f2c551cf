"""Incremental, warm-started ILP engine over an integer-scaled simplex.

The reference solver (:mod:`repro.ilp.branch_bound` — tests and the nightly
sweep call it, a compile never imports it) treats every LP relaxation as a cold
start: each branch-and-bound node re-encodes the named problem into dense
Fraction rows and re-runs two-phase simplex (or a scipy call) from scratch.
The scheduler, however, solves *sequences* of near-identical problems —
lexicographic objective stages over one constraint set, and B&B children that
differ from their parent by a single tightened bound.  This engine exploits
that structure:

* the :class:`LinearProblem` is encoded to standard form **once**, by
  :class:`repro.ilp.encode.StandardFormEncoder` (the module that owns the
  encoding; this one and the reference both import it, it imports neither).
  Every variable is an integer variable whose box is an integral hull
  (:class:`repro.ilp.problem.Variable`): a lower-bounded one becomes a column
  shifted by its integer lower bound, a free one is split.  Every row (base
  rows, frozen stages, cuts on split variables, probe extras) is
  integer-normalised over its non-zero terms (denominators cleared,
  GCD-reduced) and enters the simplex core as sparse ``(column, value)``
  pairs;
* the simplex state (:class:`repro.ilp.revised._RevisedTableau`) is kept in
  **integer arithmetic**: right-hand sides and reduced costs are scaled by
  ``den = |det B|`` of the current basis ``B``, so a pivot is integer
  multiply/subtract with one exact division (fraction-free pivoting à la
  Edmonds/Bareiss) instead of Fraction normalisation per cell;
* variable boxes are handled by the **bounded-variable simplex**: a shifted
  column's ``[lower, upper]`` box never materialises an upper-bound row.
  Each column carries its residual span; the ratio tests let a basic
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
  an engine inconsistency raises :class:`EngineError` instead of accepting a
  wrong answer — and nothing answers it by switching to another solver.

Feasibility asked of one constraint set under one or two extra rows at a time
(the emptiness probes) is :meth:`IncrementalIlpEngine.probe`: phase 1 once, the
feasible root kept, and per probe a copy with the rows appended and the dual
simplex — what a B&B child does with its cut.

The engine mirrors the search order of the reference
:func:`repro.ilp.branch_bound.solve_lexicographic` (first-fractional
branching, floor branch explored first, first-found incumbent kept on ties)
so that both return the same optimum on the scheduler's problems; the
differential test-suite asserts exactly that.  The engine prunes harder than
the reference — against a node's bound rounded up onto the grid the stage
objective takes its values on (:class:`_Incumbent`) — which changes how many
nodes are solved, never which leaf wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import TYPE_CHECKING, Mapping, Sequence

from .encode import LpStatus, StandardFormEncoder, evaluate, first_fractional, negated
from .problem import ConstraintSense, LinearConstraint, LinearProblem
from .solution import IlpSolution

if TYPE_CHECKING:
    from .revised import _RevisedTableau

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

    The engine raises instead of guessing, and no caller answers by trying
    another implementation: :meth:`IncrementalIlpEngine.solve` and
    :meth:`IncrementalIlpEngine.probe` re-raise it with the offending
    :class:`LinearProblem` as ``problem`` (and printed in the message), so the
    failure carries its reproducer.
    """

    def __init__(self, message: str, problem: LinearProblem | None = None):
        super().__init__(message)
        self.problem = problem


class EngineLimitError(EngineError):
    """A search-space resource limit was exhausted (branch & bound nodes).

    Not an inconsistency: the search is exponential on this problem under the
    configured ``node_limit``.  It propagates to the caller as itself.
    """


@dataclass
class EngineStatistics:
    """Counters describing the work performed by one or more engine solves."""

    solves: int = 0
    roots: int = 0
    stages: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    nodes: int = 0
    warm_start_hits: int = 0
    bound_prunes: int = 0
    stale_drops: int = 0
    grid_prunes: int = 0
    incumbent_updates: int = 0
    bound_flips: int = 0
    rows_saved: int = 0
    tableau_rows: int = 0
    basis_nnz: int = 0
    eta_entries: int = 0
    refactorizations: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    ftran_seconds: float = 0.0
    btran_seconds: float = 0.0
    refactor_seconds: float = 0.0

    def as_dict(self) -> dict[str, int | float]:
        # Flat numeric fields: a shallow copy is the whole conversion (one is
        # made per solve, to report it to the work ledger).
        return dict(vars(self))


class _BranchNode:
    """One branch & bound work unit: parent tableau plus at most one cut.

    ``path`` is the sequence of branch directions from the stage root
    (``0`` = floor branch, ``1`` = ceil branch); depth-first preorder visits
    nodes in lexicographic ``path`` order, which is the total order the
    incumbent tie-break is defined against.  ``bound`` carries the parent's
    LP optimum — a valid lower bound for the whole subtree — so a stale node
    can be discarded without re-optimising its tableau.
    """

    __slots__ = ("tableau", "cut", "path", "bound")

    def __init__(
        self,
        tableau: _RevisedTableau,
        cut: tuple[str, ConstraintSense, int] | None,
        path: tuple[int, ...],
        bound: Fraction | None,
    ):
        self.tableau = tableau
        self.cut = cut
        self.path = path
        self.bound = bound


class _Incumbent:
    """The best integer solution of one branch & bound stage.

    Ordered by ``(value, path)``: a candidate wins when it is strictly
    better, or equal in value with a lexicographically smaller branch path,
    and a node is pruned only when nothing below it can win under that same
    ordering.  Depth-first preorder meets paths in increasing order, so this
    is the first-found rule — spelt out on the path so ``node_key`` names the
    winner without reference to the order nodes happened to be visited in.

    The grid rule: an integer point's objective lies on ``step * Z``
    (:meth:`IncrementalIlpEngine._objective_step`), and a node's LP bound is
    rounded **up** onto that grid before it is compared.  The rounded bound
    still bounds every integer leaf of the subtree from below, so a pruned
    subtree holds no leaf ``(value, path)``-smaller than the incumbent: the
    winner is the ``(value, path)``-least integer leaf of the *full* tree with
    or without rounding — only the number of nodes solved differs.
    """

    __slots__ = ("value", "path", "assignment", "step")

    def __init__(self, step: Fraction) -> None:
        self.value: Fraction | None = None
        self.path: tuple[int, ...] | None = None
        self.assignment: dict[str, Fraction] | None = None
        self.step = step

    def offer(
        self,
        value: Fraction,
        path: tuple[int, ...],
        assignment: dict[str, Fraction] | None,
    ) -> bool:
        """Install (*value*, *path*, *assignment*) if it wins the tie-break."""
        if (
            self.value is None
            or value < self.value
            or (value == self.value and path < self.path)
        ):
            self.value = value
            self.path = path
            self.assignment = assignment
            return True
        return False

    def round_up(self, bound: Fraction) -> Fraction:
        """The least value ``>= bound`` an integer point's objective can take."""
        return ceil(bound / self.step) * self.step

    def beats(self, bound: Fraction, path: tuple[int, ...]) -> bool:
        """True when no solution below (*bound*, *path*) can win the tie-break.

        Every solution in the node's subtree has objective ``>= bound`` and a
        branch path extending *path* (therefore lexicographically ``>= path``
        against any non-descendant, such as the incumbent's path).
        """
        if self.value is None:
            return False
        return bound > self.value or (bound == self.value and path > self.path)

    def should_prune(self, bound: Fraction, path: tuple[int, ...]) -> bool:
        """:meth:`beats` on the LP *bound* rounded up onto the grid."""
        return self.value is not None and self.beats(self.round_up(bound), path)


class IncrementalIlpEngine:
    """Stateful lexicographic ILP engine for one :class:`LinearProblem`.

    The constructor maps the problem's variables to standard-form columns;
    :meth:`solve` then runs phase 1 once, minimises the problem's objectives
    lexicographically (freezing each optimum as a pair of rows before the
    next stage) and branch-and-bounds fractional variables, depth first on the
    calling thread, with dual-simplex warm starts.  :meth:`probe` answers
    feasibility under extra rows from a root it keeps.

    Callers construct it directly: a compile's one solve site,
    ``PolyTOPSScheduler._solve``, calls ``IncrementalIlpEngine(problem,
    node_limit).solve()``, and ``polyhedra.emptiness._probe`` calls
    :meth:`probe`.  Pass ``stats`` to aggregate several solves.
    """

    def __init__(
        self,
        problem: LinearProblem,
        node_limit: int = 20000,
        stats: EngineStatistics | None = None,
    ):
        self.problem = problem
        self.node_limit = node_limit
        self.stats = stats if stats is not None else EngineStatistics()

        started = time.perf_counter()
        self._encoder = StandardFormEncoder(problem)
        self.n_structural = self._encoder.n_columns
        # Implicit boxes: a shifted column's box is a span, not a row.
        self._column_spans, self._explicit_upper = self._encoder.implicit_boxes()
        self.stats.rows_saved += self.n_structural - self._column_spans.count(None)
        self.stats.encode_seconds += time.perf_counter() - started
        # The feasible root :meth:`probe` keeps (``None``: LP-infeasible).
        self._probe_root: _RevisedTableau | None = None
        self._probed = False

    # ------------------------------------------------------------------ #
    # Root tableau (phase 1, run once)
    # ------------------------------------------------------------------ #
    def _base_rows(self) -> list[tuple[tuple[tuple[int, int], ...], ConstraintSense, int]]:
        """Problem constraints then leftover upper bounds, integer-normalised
        and sparse as (column, value) pairs all the way into the simplex core
        (encoded per root build: a kept root is the only copy)."""
        started = time.perf_counter()
        rows = []
        for constraint in self.problem.constraints:
            pairs, rhs = self._encoder.base_row(constraint.coefficients, constraint.rhs)
            rows.append((pairs, constraint.sense, rhs))
        for name, upper in self._explicit_upper:
            pairs, rhs = self._encoder.base_row({name: 1}, upper)
            rows.append((pairs, ConstraintSense.LE, rhs))
        self.stats.encode_seconds += time.perf_counter() - started
        return rows

    def _build_root(self):
        """Feasible slack-only tableau, or ``None`` when the LP is infeasible.

        Rows are normalised so that a row only needs an artificial variable
        when the all-slack point genuinely violates it: ``<=`` rows with a
        non-negative right-hand side (after possibly flipping the row's sign)
        start with their slack basic at a feasible value.  The scheduler's
        Farkas rows are homogeneous (``... >= 0``), so phase 1 typically only
        has to repair the few equality and strict-progression rows.
        """
        self.stats.roots += 1
        specs: list[tuple[tuple[tuple[int, int], ...], ConstraintSense, int]] = []
        for pairs, sense, rhs in self._base_rows():
            flip = False
            if sense is ConstraintSense.EQ:
                flip = rhs < 0
            elif sense is ConstraintSense.GE:
                # a.x >= rhs with rhs <= 0 is satisfied at x = 0: flip to <=.
                flip = rhs <= 0
            else:
                flip = rhs < 0
            if flip:
                pairs, rhs = negated((pairs, rhs))
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

        # Imported here: revised.py takes its error and statistics types from
        # this module.
        from .revised import _RevisedTableau

        spans = list(self._column_spans) + [None] * (total - n_structural)
        tableau = _RevisedTableau(row_specs, basis, total, self.stats, spans)
        self.stats.tableau_rows += len(row_specs)
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
    @staticmethod
    def _objective_step(costs: list[int], scale: int) -> Fraction:
        """Step of the grid a stage objective takes its values on at integer points.

        The objective is the integer *costs* of
        :meth:`StandardFormEncoder.objective_row` over integer columns (a
        split variable's pair carries ``c`` and ``-c``: ``c`` times the
        integer it stands for) plus the same costs over the integer shifts,
        all divided by *scale*: a multiple of ``gcd(costs) / scale``.  The
        empty objective's only value, 0, is on every grid.
        """
        return Fraction(gcd(*costs) or 1, scale)

    def _cannot_win(
        self, store: _Incumbent, bound: Fraction, path: tuple[int, ...]
    ) -> bool:
        """``store.should_prune``, counting the prunes only the grid makes."""
        if not store.should_prune(bound, path):
            return False
        if not store.beats(bound, path):
            self.stats.grid_prunes += 1
        return True

    def _process_node(
        self,
        node: _BranchNode,
        store: _Incumbent,
        objective: Mapping[str, Fraction],
        scale: int,
        offset: Fraction,
    ) -> list[_BranchNode]:
        """Solve one node against the stage incumbent; return its children.

        The returned children are in exploration order (floor branch first);
        the LIFO stack of :meth:`_minimize_stage` pushes them reversed.  The
        parent tableau is only read: children pivot on their own copy.
        """
        self.stats.nodes += 1
        # Stale pre-check: the parent's LP optimum bounds the whole subtree,
        # so a node that can no longer win is dropped without touching its
        # tableau (this is what drains a queue of stale siblings cheaply
        # once an incumbent has proven optimality).
        if node.bound is not None and self._cannot_win(store, node.bound, node.path):
            self.stats.stale_drops += 1
            return []
        if node.cut is None:
            tableau = node.tableau
        else:
            tableau = node.tableau.copy()
            name, sense, bound = node.cut
            encoder = self._encoder
            if name in encoder.negative_column_of:
                # A bound over a split (free) variable is an explicit cut row.
                tableau.add_le_row(*encoder.cut_row(name, sense, bound))
            else:
                # Branching is a bound tightening, not a new row: the child
                # tableau keeps its parent's height.
                feasible = tableau.tighten_column(
                    encoder.column_of[name], sense, bound - encoder.shift_of[name]
                )
                if not feasible:
                    return []
                self.stats.rows_saved += 1
            status = tableau.dual_simplex()
            if status is LpStatus.INFEASIBLE:
                return []
            # A child re-optimised to a usable LP optimum purely by dual
            # pivots from its parent's basis — the warm start paid off.
            self.stats.warm_start_hits += 1
        relaxation = tableau.objective_value() / scale + offset
        if self._cannot_win(store, relaxation, node.path):
            self.stats.bound_prunes += 1
            return []
        assignment = self._encoder.decode(tableau.structural_values(self.n_structural))
        fractional = first_fractional(self.problem, assignment)
        if fractional is None:
            if not self.problem.is_feasible_assignment(assignment):
                raise EngineError("engine produced an infeasible incumbent")
            value = evaluate(objective, assignment)
            if store.offer(value, node.path, assignment):
                self.stats.incumbent_updates += 1
            return []
        name, value = fractional
        floor_value = value.numerator // value.denominator
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

    def _minimize_stage(
        self,
        root: _RevisedTableau,
        objective: Mapping[str, Fraction],
        scale: int,
        offset: Fraction,
        step: Fraction,
    ) -> tuple[
        LpStatus,
        dict[str, Fraction] | None,
        Fraction | None,
        tuple[int, ...] | None,
    ]:
        """Branch & bound below *root* (already primal-optimal for the stage).

        Depth-first preorder over a LIFO stack, at most ``node_limit`` nodes.
        The stage is over as soon as the incumbent's value is the root's
        rounded bound: whatever is left on the stack has a larger path and
        cannot have a smaller value (on the empty objective, the first leaf).
        Returns (status, assignment, value, branch path of the winner).
        """
        store = _Incumbent(step)
        least = store.round_up(root.objective_value() / scale + offset)
        stack = [_BranchNode(root, None, (), None)]
        solved = 0
        while stack and store.value != least:
            if solved >= self.node_limit:
                raise EngineLimitError(
                    f"branch & bound node limit ({self.node_limit}) exceeded"
                )
            solved += 1
            children = self._process_node(stack.pop(), store, objective, scale, offset)
            stack.extend(reversed(children))
        # What the early exit leaves stacked is pruned as well; the nodes whose
        # parent's exact bound lies below the incumbent, by the grid alone.
        self.stats.grid_prunes += sum(
            not store.beats(node.bound, node.path) for node in stack
        )

        if store.assignment is None:
            return LpStatus.INFEASIBLE, None, None, None
        return LpStatus.OPTIMAL, store.assignment, store.value, store.path

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def solve(self) -> IlpSolution | None:
        """Lexicographically optimal integer solution, or ``None`` if infeasible.

        Raises :class:`ValueError` when an objective is unbounded below,
        :class:`EngineLimitError` when a stage exhausts ``node_limit`` and
        :class:`EngineError` (with ``error.problem is self.problem``) on an
        internal inconsistency.
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
                costs, scale, offset = self._encoder.objective_row(objective)
                tableau.set_objective(costs)
                status = tableau.primal_simplex()
                if status is LpStatus.UNBOUNDED:
                    if not objective:  # pragma: no cover - zero objective is bounded
                        raise EngineError("zero objective reported unbounded")
                    raise ValueError(
                        "objective is unbounded below; scheduling variables must be bounded"
                    )
                step = self._objective_step(costs, scale)
                status, assignment, value, path = self._minimize_stage(
                    tableau, objective, scale, offset, step
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
        except EngineLimitError:
            raise
        except EngineError as error:
            raise EngineError(f"{error}\nwhile solving {self.problem}", self.problem) from error
        finally:
            self.stats.solve_seconds += time.perf_counter() - started

    def probe(self, extra: Sequence[LinearConstraint] = ()) -> dict[str, Fraction] | None:
        """An integer point of the problem's rows and *extra*, or ``None``.

        Feasibility only (the objectives are ignored).  The first call builds
        the feasible root under the zero objective and keeps it; each call
        copies it, appends *extra* as ``<=`` rows (an equality as two),
        reoptimises with the dual simplex and branch-and-bounds to the first
        integer leaf, verified against the problem and *extra*.  An
        LP-infeasible base answers every probe ``None``; a name outside the
        problem raises :class:`ValueError`.  Afterwards ``stats`` is this
        call's work, the first call's including the root.
        """
        if self._probed:
            self.stats = EngineStatistics()
        stats = self.stats
        started = time.perf_counter()
        stats.solves += 1
        stats.stages += 1
        try:
            rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
            for constraint in extra:
                if not constraint.variables() <= self.problem.variables.keys():
                    raise ValueError(f"{constraint} names unknown variables")
                row = self._encoder.base_row(constraint.coefficients, constraint.rhs)
                if constraint.sense is not ConstraintSense.GE:
                    rows.append(row)
                if constraint.sense is not ConstraintSense.LE:
                    rows.append(negated(row))
            if not self._probed:
                root = self._build_root()
                if root is not None:
                    root.set_objective(())
                self._probe_root, self._probed = root, True
            if self._probe_root is None:
                return None
            tableau = self._probe_root.copy()
            tableau.stats = stats
            for pairs, rhs in rows:
                tableau.add_le_row(pairs, rhs)
            if rows and tableau.dual_simplex() is LpStatus.INFEASIBLE:
                return None
            # The empty objective: scale 1, no offset, the unit grid.
            _, assignment, _, _ = self._minimize_stage(tableau, {}, 1, Fraction(0), Fraction(1))
            if assignment is not None and not all(c.evaluate(assignment) for c in extra):
                raise EngineError("engine produced a point outside the probed rows")
            return assignment
        except EngineLimitError:
            raise
        except EngineError as error:
            raise EngineError(
                f"{error}\nwhile probing {self.problem}\nunder {[str(c) for c in extra]}",
                self.problem,
            ) from error
        finally:
            stats.solve_seconds += time.perf_counter() - started

    def _freeze_objective(
        self,
        tableau: _RevisedTableau,
        objective: Mapping[str, Fraction],
        value: Fraction,
    ) -> None:
        """Pin ``objective == value`` onto the stage tableau (dual reoptimised)."""
        row = self._encoder.base_row(objective, value)
        tableau.add_le_row(*row)
        tableau.add_le_row(*negated(row))
        status = tableau.dual_simplex()
        if status is not LpStatus.OPTIMAL:
            # The integer optimum is always attainable by the relaxation that
            # contains it; failure here is an engine inconsistency.
            raise EngineError("freezing a lexicographic stage made the LP infeasible")
