"""Property-based differential suite for the bounded-variable simplex.

Every variable is an integer variable; its box is the integral hull of the
bounds it was declared with.  Three independent implementations answer every
generated problem:

* the incremental engine (bounded-variable simplex, implicit boxes,
  branching by bound tightening),
* the reference ``solve_lexicographic`` (explicit bound rows, cold two-phase
  simplex per node),
* a brute-force lexicographic enumerator over the integer box (only on
  fully-boxed instances, where enumeration is finite).

Hypothesis generates the instances — seeded and shrinkable, so a failure
replays deterministically and minimises itself — with the box shapes the
bounded simplex special-cases: degenerate boxes (``lower == upper``),
negative lower bounds, fractional bounds (normalised to the integral hull,
possibly empty), unbounded-above and free variables.  A fourth property holds
every row the engine appends to a tableau — frozen stages, cuts on split
variables, probe extras — to the reference's dense encoding made primitive.

Run with ``HYPOTHESIS_PROFILE=nightly`` for the deep sweep CI schedules
alongside the fig2 differential run; the default profile is derandomised
and small enough for tier-1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, strategies as st

from repro.ilp import ConstraintSense, LinearConstraint, LinearProblem
from repro.ilp.branch_bound import encode_terms, solve_lexicographic
from repro.ilp.encode import StandardFormEncoder
from repro.ilp.engine import EngineLimitError, EngineStatistics, IncrementalIlpEngine
from repro.ilp.revised import _RevisedTableau
from repro.linalg.rational import normalize_integer_row, scale_to_integers


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
def _fractions(min_value: int, max_value: int) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=2 * min_value, max_value=2 * max_value),
        st.sampled_from([1, 1, 2]),  # mostly integral, sometimes halves
    )


def _number(draw, low: int, high: int, denominators: tuple[int, ...]):
    value = draw(st.integers(min_value=low, max_value=high))
    if not denominators:
        return value
    return Fraction(value, draw(st.sampled_from(denominators)))


@st.composite
def boxed_problems(draw) -> LinearProblem:
    """Fully-boxed all-integer ILPs (small enough to brute-force)."""
    n = draw(st.integers(min_value=1, max_value=3))
    problem = LinearProblem()
    for index in range(n):
        lower = draw(_fractions(-3, 2))
        # Degenerate boxes (lower == upper) and empty integral hulls (a
        # fractional box with no integer inside) are deliberately likely.
        width = draw(st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2)]))
        problem.add_variable(f"x{index}", lower, lower + width)
    names = list(problem.variables)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coefficients = {
            name: draw(st.integers(min_value=-3, max_value=3)) for name in names
        }
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients,
            draw(st.sampled_from([">=", "<=", "=="])),
            draw(_fractions(-4, 5)),
        )
    # Objectives on every grid shape the engine rounds its bounds onto: a
    # common factor (step > 1), denominators (non-unit scale) and, over the
    # non-zero lower bounds above, a fractional offset.
    factor = draw(st.sampled_from([1, 1, 2, 10]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        objective = {
            name: factor * _number(draw, -4, 4, (1, 1, 2, 3, 4)) for name in names
        }
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


@st.composite
def open_problems(draw, denominators: tuple[int, ...] = ()) -> LinearProblem:
    """Problems with unbounded-above / free columns (engine vs oracle only).

    With *denominators*, every coefficient, bound and right-hand side is
    divided by one of them (a box is its integral hull, possibly empty).
    The objective prices every kind of column in the direction it is bounded
    in: boxed ones either way, split (free) ones downwards only.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    problem = LinearProblem()
    price_range = {"boxed": (-2, 2), "open": (0, 2), "free": (-2, 0)}
    prices: dict[str, tuple[int, int]] = {}
    for index in range(n):
        kind = draw(st.sampled_from(["boxed", "boxed", "open", "free"]))
        prices[f"x{index}"] = price_range[kind]
        if kind == "boxed":
            lower = _number(draw, -2, 1, denominators)
            problem.add_variable(f"x{index}", lower, lower + _number(draw, 0, 4, denominators))
        elif kind == "open":
            problem.add_variable(f"x{index}", _number(draw, -2, 1, denominators), None)
        else:
            problem.add_variable(f"x{index}", None, _number(draw, 0, 4, denominators))
    names = list(problem.variables)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        coefficients = {name: _number(draw, -3, 3, denominators) for name in names}
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients,
            draw(st.sampled_from([">=", "<=", "=="])),
            _number(draw, -4, 6, denominators),
        )
    if draw(st.booleans()):
        objective = {name: _number(draw, *prices[name], denominators) for name in names}
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


# --------------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------------- #
def brute_force(problem: LinearProblem):
    """Lexicographic minimum by enumerating the (finite) integer box.

    Returns the tuple of optimal objective values, ``()`` for a feasible
    pure-feasibility problem, or ``None`` when no integer point fits.
    """
    ranges = []
    for variable in problem.variables.values():
        assert variable.lower is not None and variable.upper is not None
        low = -((-variable.lower.numerator) // variable.lower.denominator)  # ceil
        high = variable.upper.numerator // variable.upper.denominator  # floor
        if low > high:
            return None
        ranges.append([Fraction(value) for value in range(low, high + 1)])
    names = list(problem.variables)
    best: tuple[Fraction, ...] | None = None
    for point in itertools.product(*ranges):
        assignment = dict(zip(names, point))
        if not all(c.evaluate(assignment) for c in problem.constraints):
            continue
        key = tuple(
            sum(
                (coeff * assignment.get(name, Fraction(0)) for name, coeff in objective.items()),
                Fraction(0),
            )
            for objective in problem.objectives
        )
        if best is None or key < best:
            best = key
    return best


def _solve(problem: LinearProblem, reference: bool):
    # Open (unbounded-column) instances can be LP-feasible but integer-
    # infeasible along an unbounded direction — e.g. ``2*x1 + 2*x2 == 1``
    # with both columns open — where branch & bound never terminates and
    # the fraction-free integers blow up.  A small node limit keeps every
    # generated instance cheap; limit hits are reported as an outcome so
    # the caller can discard the example symmetrically.
    try:
        if reference:
            return solve_lexicographic(problem, node_limit=400)
        return IncrementalIlpEngine(problem, node_limit=400).solve()
    except ValueError as error:
        assert "unbounded" in str(error)
        return "unbounded"
    except RuntimeError as error:
        assert "node limit" in str(error)
        return "limit"


# --------------------------------------------------------------------------- #
# Differential properties
# --------------------------------------------------------------------------- #
class TestBoxedDifferential:
    @given(problem=boxed_problems())
    def test_engine_oracle_and_brute_force_agree(self, problem: LinearProblem):
        expected = brute_force(problem)
        engine_solution = IncrementalIlpEngine(problem).solve()
        oracle_solution = solve_lexicographic(problem)
        if expected is None:
            assert engine_solution is None
            assert oracle_solution is None
            return
        assert engine_solution is not None and oracle_solution is not None
        assert tuple(engine_solution.objective_values) == expected
        assert tuple(oracle_solution.objective_values) == expected
        assert problem.is_feasible_assignment(engine_solution.assignment)
        assert problem.is_feasible_assignment(oracle_solution.assignment)

    @given(problem=boxed_problems())
    def test_engine_incumbents_lie_in_every_box(self, problem: LinearProblem):
        solution = IncrementalIlpEngine(problem).solve()
        if solution is None:
            return
        for name, variable in problem.variables.items():
            value = solution.assignment.get(name, Fraction(0))
            assert variable.lower <= value <= variable.upper
            assert value.denominator == 1


class TestOpenDifferential:
    @given(problem=open_problems())
    def test_engine_matches_oracle_with_open_columns(self, problem: LinearProblem):
        self._match(problem)

    @given(problem=open_problems(denominators=(2, 3, 4)))
    def test_engine_matches_oracle_on_fractional_data(self, problem: LinearProblem):
        self._match(problem)

    @staticmethod
    def _match(problem: LinearProblem) -> None:
        engine_solution = _solve(problem, reference=False)
        oracle_solution = _solve(problem, reference=True)
        # A node-limit hit (either path) means the instance diverged along
        # an unbounded integer direction: nothing to compare — discard.
        assume(engine_solution != "limit" and oracle_solution != "limit")
        if engine_solution == "unbounded" or oracle_solution == "unbounded":
            assert engine_solution == oracle_solution
            return
        assert (engine_solution is None) == (oracle_solution is None)
        if engine_solution is not None:
            assert (
                engine_solution.objective_values == oracle_solution.objective_values
            )
            assert problem.is_feasible_assignment(engine_solution.assignment)


# --------------------------------------------------------------------------- #
# Every appended row is the reference's dense row, made primitive
# --------------------------------------------------------------------------- #
def _reference_le_row(encoder, coefficients, rhs):
    """``coefficients . x <= rhs`` through the reference's dense encoding,
    scaled to integers and GCD-reduced, as (non-zero pairs, rhs)."""
    dense, offset = encode_terms(encoder, coefficients)
    *row, row_rhs = normalize_integer_row(scale_to_integers([*dense, rhs - offset]))
    return tuple((column, value) for column, value in enumerate(row) if value), row_rhs


def _reference_rows(encoder, coefficients, sense, rhs):
    """The LE rows of ``coefficients . x sense rhs`` (an equality as two)."""
    rows = []
    if sense is not ConstraintSense.GE:
        rows.append(_reference_le_row(encoder, coefficients, rhs))
    if sense is not ConstraintSense.LE:
        negated = {name: -value for name, value in coefficients.items()}
        rows.append(_reference_le_row(encoder, negated, -rhs))
    return rows


def _split_cut_problem() -> LinearProblem:
    """``x = 2y`` over split variables, ``x >= 1``: the LP optimum has
    ``y = 1/2``, so both the solve and the probes cut on a split variable."""
    problem = LinearProblem()
    problem.add_variable("x", None, Fraction(9, 2))
    problem.add_variable("y", None, 4)
    problem.add_constraint({"x": Fraction(1, 2), "y": -1}, "==", 0)
    problem.add_constraint({"x": 1}, ">=", 1)
    problem.add_objective({"x": Fraction(1, 3), "y": Fraction(-1, 4)})
    return problem


class TestSparseRows:
    @example(problem=_split_cut_problem())
    @given(problem=open_problems(denominators=(2, 3, 4)))
    def test_every_appended_row_is_the_reference_row(self, problem: LinearProblem):
        # A later stage, bounded below, so that the first one is frozen (drawn
        # without an objective, a row the GCD reduction halves).
        name, variable = next(iter(problem.variables.items()))
        while len(problem.objectives) < 2:
            problem.add_objective({name: 2 if variable.lower is not None else -2})
        appended, expected = [], []
        add_le_row = _RevisedTableau.add_le_row
        freeze = IncrementalIlpEngine._freeze_objective
        cut_row = StandardFormEncoder.cut_row

        def recording_add_le_row(tableau, pairs, rhs):
            appended.append((tuple(pairs), rhs))
            return add_le_row(tableau, pairs, rhs)

        def recording_freeze(engine, tableau, objective, value):
            expected.extend(
                _reference_rows(engine._encoder, objective, ConstraintSense.EQ, value)
            )
            return freeze(engine, tableau, objective, value)

        def recording_cut_row(encoder, name, sense, bound):
            expected.extend(_reference_rows(encoder, {name: 1}, sense, bound))
            return cut_row(encoder, name, sense, bound)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_RevisedTableau, "add_le_row", recording_add_le_row)
            patch.setattr(IncrementalIlpEngine, "_freeze_objective", recording_freeze)
            patch.setattr(StandardFormEncoder, "cut_row", recording_cut_row)
            _solve(problem, reference=False)
            # The bare root first, then the first row as an extra of each sense.
            engine = IncrementalIlpEngine(problem, node_limit=400)
            extras = [()] + [
                (LinearConstraint(row.coefficients, sense, row.rhs),)
                for row in problem.constraints[:1]
                for sense in ConstraintSense
            ]
            for extra in extras:
                if extra and engine._probe_root is None:
                    break  # an LP-infeasible base appends nothing
                for row in extra:
                    expected.extend(
                        _reference_rows(engine._encoder, row.coefficients, row.sense, row.rhs)
                    )
                try:
                    engine.probe(extra)
                except EngineLimitError:
                    pass
        assert appended == expected


# --------------------------------------------------------------------------- #
# Directed regressions for the bound machinery
# --------------------------------------------------------------------------- #
class TestBoundedSimplexUnits:
    def test_entering_variable_stops_at_its_own_span(self):
        # Regression: the ratio test once compared the entering column's span
        # against den-scaled row ratios without scaling it, letting a basic
        # variable overshoot its box (x0 = 9 > 7 here) and producing an
        # "infeasible incumbent" engine error.
        problem = LinearProblem()
        problem.add_variable("x0", 0, 7)
        problem.add_variable("x1", 0, 2)
        problem.add_variable("x2", -3, 6)
        problem.add_variable("x3", 0, 5)
        problem.add_constraint({"x1": -3, "x3": 2}, "<=", 0)
        problem.add_constraint({"x1": 1, "x2": 3}, "==", 0)
        problem.add_constraint({"x0": 1, "x1": 1, "x2": 3}, ">=", 9)
        # The equality pins x1 = x2 = 0 inside their boxes, so x0 >= 9 can
        # never fit in [0, 7]: the engine must reach INFEASIBLE (the
        # regression surfaced as an EngineError).
        assert IncrementalIlpEngine(problem).solve() is None
        assert solve_lexicographic(problem) is None

    def test_upper_bounds_do_not_materialise_rows(self):
        problem = LinearProblem()
        for index in range(4):
            problem.add_variable(f"x{index}", 0, 5)
        problem.add_constraint({f"x{index}": 1 for index in range(4)}, ">=", 6)
        problem.add_objective({f"x{index}": 1 for index in range(4)})
        stats = EngineStatistics()
        engine = IncrementalIlpEngine(problem, stats=stats)
        assert engine.solve() is not None
        # One constraint row only: the four boxes live in column spans.
        assert stats.tableau_rows == 1
        assert stats.rows_saved >= 4
        assert len(engine._base_rows()) == 1

    def test_bound_flip_is_recorded_and_correct(self):
        # Maximising a variable that nothing blocks before its own upper
        # bound is exactly the no-pivot bound-flip step.
        problem = LinearProblem()
        problem.add_variable("x", 0, 9)
        problem.add_variable("y", 0, 9)
        problem.add_constraint({"x": 1, "y": 1}, "<=", 100)
        problem.add_objective({"x": -1})
        stats = EngineStatistics()
        solution = IncrementalIlpEngine(problem, stats=stats).solve()
        assert solution is not None
        assert solution.value("x") == 9
        assert stats.bound_flips >= 1

    def test_fixed_variable_participates_without_rows(self):
        problem = LinearProblem()
        problem.add_variable("x", 3, 3)  # degenerate box
        problem.add_variable("y", 0, 10)
        problem.add_constraint({"x": 1, "y": 1}, ">=", 7)
        problem.add_objective({"y": 1})
        stats = EngineStatistics()
        solution = IncrementalIlpEngine(problem, stats=stats).solve()
        assert solution is not None
        assert solution.value("x") == 3
        assert solution.value("y") == 4
        assert stats.tableau_rows == 1

    def test_empty_integral_hull_is_infeasible(self):
        problem = LinearProblem()
        problem.add_variable("x", Fraction(1, 3), Fraction(2, 3))
        assert IncrementalIlpEngine(problem).solve() is None
        assert solve_lexicographic(problem) is None

    def test_branching_tightens_bounds_instead_of_adding_rows(self):
        problem = LinearProblem()
        for index in range(4):
            problem.add_variable(f"x{index}", 0, 7)
        problem.add_constraint({f"x{index}": 2 for index in range(4)}, "==", 7)
        stats = EngineStatistics()
        assert IncrementalIlpEngine(problem, stats=stats).solve() is None
        # Every explored child applied its branching cut as a tightening
        # (4 implicit boxes + one tightening per cut node).
        assert stats.rows_saved > 4
        assert stats.warm_start_hits > 0


# --------------------------------------------------------------------------- #
# Bound validation / normalisation (the single normalisation point)
# --------------------------------------------------------------------------- #
class TestBoundNormalisation:
    def test_reversed_bounds_rejected(self):
        problem = LinearProblem()
        with pytest.raises(ValueError, match="lower bound exceeds upper"):
            problem.add_variable("x", 3, 1)

    def test_non_rational_bounds_rejected(self):
        problem = LinearProblem()
        with pytest.raises(ValueError, match="not a rational number"):
            problem.add_variable("x", float("nan"), 1)
        with pytest.raises(ValueError, match="not a rational number"):
            problem.add_variable("y", 0, float("inf"))
        with pytest.raises(ValueError, match="not a rational number"):
            problem.add_variable("z", "zero", 1)

    def test_integer_bounds_tighten_to_integral_hull(self):
        from repro.ilp.problem import Variable

        variable = Variable("x", Fraction(-5, 2), Fraction(7, 2))
        assert (variable.lower, variable.upper) == (-2, 3)
        assert type(variable.lower) is int and type(variable.upper) is int
        # A box with no integer point keeps the hull's crossing bounds.
        empty = Variable("y", Fraction(1, 3), Fraction(2, 3))
        assert (empty.lower, empty.upper) == (1, 0)

    def test_normalisation_shared_by_both_encoders(self):
        # The reference and the engine encode through the same
        # StandardFormEncoder, so fractional integer bounds cannot diverge.
        from repro.ilp.encode import StandardFormEncoder

        problem = LinearProblem()
        problem.add_variable("x", Fraction(-5, 2), Fraction(7, 2))
        encoder = StandardFormEncoder(problem)
        assert encoder.shift_of["x"] == -2
        engine = IncrementalIlpEngine(problem)
        assert engine._column_spans[encoder.column_of["x"]] == 5

    def test_negative_lower_bound_gets_an_implicit_box(self):
        problem = LinearProblem()
        problem.add_variable("x", -4, 4)
        problem.add_constraint({"x": 1}, "<=", 10)
        stats = EngineStatistics()
        engine = IncrementalIlpEngine(problem, stats=stats)
        assert engine.solve() is not None
        assert stats.rows_saved >= 1
        assert stats.tableau_rows == 1  # just the constraint; no bound rows
