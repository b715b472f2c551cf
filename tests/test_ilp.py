"""Unit and property tests for the ILP substrate (problem, simplex, B&B, backends)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import (
    ConstraintSense,
    IncrementalIlpEngine,
    LinearProblem,
    LpStatus,
    SolverOptions,
)
from repro.ilp.backend import ExactSimplexBackend, ScipyHighsBackend
from repro.ilp.branch_bound import solve_lexicographic, solve_milp
from repro.ilp.simplex import StandardFormRow, solve_standard_form


class TestLinearProblem:
    def test_variable_declaration_and_bounds(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        assert problem.variables["x"].lower == 0
        assert problem.variables["x"].upper == 5

    def test_inconsistent_redeclaration_rejected(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        with pytest.raises(ValueError):
            problem.add_variable("x", 0, 6)

    def test_redeclaration_consistent_ok(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        problem.add_variable("x", 0, 5)
        assert len(problem.variables) == 1

    def test_invalid_bounds(self):
        problem = LinearProblem()
        with pytest.raises(ValueError):
            problem.add_variable("x", 5, 0)

    def test_constraint_unknown_variable(self):
        problem = LinearProblem()
        problem.add_variable("x")
        with pytest.raises(KeyError):
            problem.add_constraint({"y": 1}, ">=", 0)

    def test_objective_unknown_variable(self):
        problem = LinearProblem()
        with pytest.raises(KeyError):
            problem.add_objective({"x": 1})

    def test_feasibility_check(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_constraint({"x": 1}, ">=", 3)
        assert problem.is_feasible_assignment({"x": 4})
        assert not problem.is_feasible_assignment({"x": 2})
        assert not problem.is_feasible_assignment({"x": Fraction(7, 2)})

    _numbers = st.one_of(
        st.integers(-6, 6),
        st.fractions(-6, 6, max_denominator=4),
        st.integers(-6, 6).map(Fraction),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_numbers, _numbers, _numbers), min_size=1, max_size=4),
        st.lists(st.sampled_from(list(ConstraintSense)), min_size=1, max_size=4),
        st.lists(_numbers, min_size=3, max_size=3),
    )
    def test_integer_evaluation_agrees_with_fraction_arithmetic(self, rows, senses, values):
        """``evaluate`` in ints where it can: the verdicts of term-by-term Fractions."""
        from repro.ilp.problem import LinearConstraint

        names = ("x", "y", "z")
        assignment = dict(zip(names, values))
        problem = LinearProblem()
        for name in names:
            problem.add_variable(name, -4, 4)
        expected = all(
            -4 <= Fraction(value) <= 4 and Fraction(value).denominator == 1
            for value in values
        )
        for (a, b, rhs), sense in zip(rows, itertools.cycle(senses)):
            # Built directly: plain ints stay ints, as the emptiness probes' rows do.
            constraint = LinearConstraint({"x": a, "y": b}, sense, rhs)
            problem.constraints.append(constraint)
            total = Fraction(a) * Fraction(values[0]) + Fraction(b) * Fraction(values[1])
            holds = {
                ConstraintSense.LE: total <= rhs,
                ConstraintSense.GE: total >= rhs,
                ConstraintSense.EQ: total == rhs,
            }[sense]
            assert constraint.evaluate(assignment) is holds
            expected = expected and holds
        assert problem.is_feasible_assignment(assignment) is expected

    def test_copy_is_independent(self):
        problem = LinearProblem()
        problem.add_variable("x")
        clone = problem.copy()
        clone.add_constraint({"x": 1}, ">=", 1)
        assert not problem.constraints

    def test_equal_int_and_fraction_rows_are_equal_and_hash_equal(self):
        from repro.ilp.problem import LinearConstraint

        ints = LinearConstraint({"x": 2, "y": -1, "z": 0}, ConstraintSense.GE, 3)
        fractions = LinearConstraint(
            {"y": Fraction(-1), "x": Fraction(2)}, ConstraintSense.GE, Fraction(3)
        )
        assert ints == fractions and hash(ints) == hash(fractions)
        assert dict(ints.coefficients) == {"x": 2, "y": -1}  # the zero is dropped
        assert len({ints, fractions}) == 1
        assert ints != LinearConstraint({"x": 2, "y": -1}, ConstraintSense.EQ, 3)
        assert ints != LinearConstraint({"x": 2, "y": -1}, ConstraintSense.GE, 4)
        assert ints != LinearConstraint({"x": 2}, ConstraintSense.GE, 3)
        with pytest.raises(TypeError):
            ints.coefficients["x"] = 5
        assert pickle.loads(pickle.dumps(ints)) == ints


class TestSimplex:
    def test_simple_minimisation(self):
        rows = [StandardFormRow.build([1, 2], ">=", 3)]
        result = solve_standard_form(2, rows, [1, 1])
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == Fraction(3, 2)

    def test_equality_constraints(self):
        rows = [StandardFormRow.build([1, 1], "==", 4), StandardFormRow.build([1, -1], "==", 2)]
        result = solve_standard_form(2, rows, [0, 0])
        assert result.status is LpStatus.OPTIMAL
        assert result.values[0] == 3 and result.values[1] == 1

    def test_infeasible(self):
        rows = [
            StandardFormRow.build([1], "<=", 1),
            StandardFormRow.build([1], ">=", 2),
        ]
        assert solve_standard_form(1, rows, [1]).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        result = solve_standard_form(1, [], [-1])
        assert result.status is LpStatus.UNBOUNDED

    def test_negative_rhs_normalisation(self):
        rows = [StandardFormRow.build([-1], "<=", -2)]  # i.e. x >= 2
        result = solve_standard_form(1, rows, [1])
        assert result.status is LpStatus.OPTIMAL
        assert result.values[0] == 2

    def test_degenerate_problem_terminates(self):
        rows = [
            StandardFormRow.build([1, 1], "<=", 0),
            StandardFormRow.build([1, -1], "<=", 0),
            StandardFormRow.build([1, 0], ">=", 0),
        ]
        result = solve_standard_form(2, rows, [-1, 0])
        assert result.status is LpStatus.OPTIMAL
        assert result.values[0] == 0


def _brute_force(problem: LinearProblem, objective):
    """Exhaustively enumerate bounded integer assignments (tests only)."""
    names = list(problem.variables)
    ranges = []
    for name in names:
        variable = problem.variables[name]
        ranges.append(range(int(variable.lower), int(variable.upper) + 1))
    best = None
    for values in itertools.product(*ranges):
        assignment = dict(zip(names, values))
        if not problem.is_feasible_assignment(assignment):
            continue
        value = sum(Fraction(objective.get(n, 0)) * v for n, v in assignment.items())
        if best is None or value < best:
            best = value
    return best


class TestBranchAndBound:
    def test_integer_optimum_differs_from_lp(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_constraint({"x": 2}, ">=", 3)  # x >= 1.5 -> integer x >= 2
        result = solve_milp(problem, {"x": Fraction(1)})
        assert result.status is LpStatus.OPTIMAL
        assert result.assignment["x"] == 2

    def test_feasibility_only(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 3)
        problem.add_variable("y", 0, 3)
        problem.add_constraint({"x": 1, "y": 1}, "==", 5)
        result = solve_milp(problem)
        assert result.status is LpStatus.OPTIMAL
        assert problem.is_feasible_assignment(result.assignment)

    def test_infeasible_problem(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 1)
        problem.add_constraint({"x": 1}, ">=", 2)
        assert solve_milp(problem).status is LpStatus.INFEASIBLE

    def test_no_integer_point_in_fractional_region(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_constraint({"x": 2}, "==", 5)  # x = 2.5 has no integer solution
        assert solve_milp(problem).status is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", [ExactSimplexBackend(), ScipyHighsBackend()])
    def test_backends_agree_on_small_problem(self, backend):
        problem = LinearProblem()
        problem.add_variable("x", 0, 4)
        problem.add_variable("y", 0, 4)
        problem.add_constraint({"x": 1, "y": 2}, ">=", 5)
        problem.add_constraint({"x": 1, "y": -1}, "<=", 1)
        result = solve_milp(problem, {"x": 3, "y": 1}, backend=backend)
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == 3  # x=0, y=3 minimises 3x + y
        assert problem.is_feasible_assignment(result.assignment)

    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 6)
            ),
            min_size=1,
            max_size=4,
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, constraint_rows, objective_coeffs):
        problem = LinearProblem()
        problem.add_variable("x", 0, 4)
        problem.add_variable("y", 0, 4)
        for a, b, rhs in constraint_rows:
            problem.add_constraint({"x": a, "y": b}, ">=", rhs)
        objective = {"x": Fraction(objective_coeffs[0]), "y": Fraction(objective_coeffs[1])}
        expected = _brute_force(problem, objective)
        result = solve_milp(problem, objective)
        if expected is None:
            assert result.status is LpStatus.INFEASIBLE
        else:
            assert result.status is LpStatus.OPTIMAL
            assert result.objective == expected


class TestLexicographicSolver:
    def test_two_stage_minimisation(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        problem.add_variable("y", 0, 5)
        problem.add_constraint({"x": 1, "y": 1}, ">=", 4)
        problem.add_objective({"x": 1})      # first minimise x
        problem.add_objective({"y": 1})      # then y
        solution = IncrementalIlpEngine(problem).solve()
        assert solution is not None
        assert solution.value("x") == 0
        assert solution.value("y") == 4
        assert solution.objective_values == [Fraction(0), Fraction(4)]

    def test_priority_order_matters(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        problem.add_variable("y", 0, 5)
        problem.add_constraint({"x": 1, "y": 1}, ">=", 4)
        problem.add_objective({"y": 1})
        problem.add_objective({"x": 1})
        solution = IncrementalIlpEngine(problem).solve()
        assert solution.value("y") == 0
        assert solution.value("x") == 4

    def test_no_objectives_feasibility(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 3)
        problem.add_constraint({"x": 1}, ">=", 2)
        solution = IncrementalIlpEngine(problem).solve()
        assert solution is not None
        assert solution.value("x") >= 2

    def test_infeasible_returns_none(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 1)
        problem.add_constraint({"x": 1}, ">=", 5)
        problem.add_objective({"x": 1})
        assert IncrementalIlpEngine(problem).solve() is None

    def test_exact_backend_end_to_end(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 6)
        problem.add_constraint({"x": 3}, ">=", 7)
        problem.add_objective({"x": 1})
        solution = solve_lexicographic(problem, backend=ExactSimplexBackend())
        assert solution.value("x") == 3


class TestBackends:
    def test_highs_available(self):
        assert ScipyHighsBackend.is_available()

    def test_highs_matches_exact_simplex_lp(self):
        rows = [
            StandardFormRow.build([1, 2], ">=", 3),
            StandardFormRow.build([2, 1], ">=", 3),
        ]
        exact = ExactSimplexBackend().solve(2, rows, [Fraction(1), Fraction(1)])
        fast = ScipyHighsBackend().solve(2, rows, [Fraction(1), Fraction(1)])
        assert exact.status is LpStatus.OPTIMAL and fast.status is LpStatus.OPTIMAL
        assert exact.objective == fast.objective == Fraction(2)

    def test_highs_detects_infeasible(self):
        rows = [
            StandardFormRow.build([1], "<=", 1),
            StandardFormRow.build([1], ">=", 3),
        ]
        assert ScipyHighsBackend().solve(1, rows, [Fraction(0)]).status is LpStatus.INFEASIBLE

    def test_highs_detects_unbounded(self):
        assert ScipyHighsBackend().solve(1, [], [Fraction(-1)]).status is LpStatus.UNBOUNDED


# --------------------------------------------------------------------------- #
# SolverOptions: the single front door
# --------------------------------------------------------------------------- #
def test_solver_options_are_exactly_one_field():
    assert [field.name for field in dataclasses.fields(SolverOptions)] == ["node_limit"]
    assert SolverOptions().node_limit == 20000
    # No environment front door, no layering helpers: construct it.
    for removed in ("from_env", "resolve", "with_overrides"):
        assert not hasattr(SolverOptions, removed)


@pytest.mark.parametrize(
    "value", [0, -3, 1.7, True, False, None, "many", "1.7", float("inf")], ids=repr
)
def test_node_limit_must_be_a_positive_integer(value):
    with pytest.raises(ValueError, match="node_limit"):
        SolverOptions(node_limit=value)
    with pytest.raises(ValueError, match="node_limit"):
        SolverOptions.from_dict({"node_limit": value})


def test_node_limit_decodes_integral_spellings():
    assert SolverOptions(node_limit=1).node_limit == 1
    assert SolverOptions.from_dict({"node_limit": "12"}).node_limit == 12
    assert SolverOptions(node_limit=12.0).node_limit == 12
    assert type(SolverOptions(node_limit=12.0).node_limit) is int


def test_solver_options_round_trip_through_config_json():
    from repro.scheduler.config import SchedulerConfig
    from repro.scheduler.errors import ConfigurationError

    options = SolverOptions(node_limit=500)
    config = SchedulerConfig(name="rt", solver_options=options)
    document = json.loads(config.to_json())
    encoded = document["scheduling_strategy"]["options"]["solver_options"]
    assert encoded == {"node_limit": 500}
    decoded = SchedulerConfig.from_json(config.to_json())
    assert decoded.solver_options == options

    # Stored documents written before the warm-start / irredundancy knobs,
    # the engine / core switches, the parallel branch & bound knobs and the
    # per-field aliases were removed fail as configuration errors; so does a
    # node_limit that is not a positive integer.
    for removed, value in (
        ("warm_start", True),
        ("engine", "oracle"),
        ("core", "tableau"),
        ("workers", 4),
        ("processes", False),
    ):
        encoded[removed] = value
        with pytest.raises(ConfigurationError, match=removed):
            SchedulerConfig.from_json(document)
        del encoded[removed]
    for invalid in (0, -3, 1.7, True):
        encoded["node_limit"] = invalid
        with pytest.raises(ConfigurationError, match="node_limit"):
            SchedulerConfig.from_json(document)
    encoded["node_limit"] = 500
    document["scheduling_strategy"]["options"]["solver_workers"] = 4
    with pytest.raises(ConfigurationError, match="solver_workers"):
        SchedulerConfig.from_json(document)
