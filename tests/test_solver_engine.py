"""Differential and unit tests for the incremental warm-started ILP engine.

The engine (:mod:`repro.ilp.engine`) must return exactly what the reference
``solve_lexicographic`` (cold dense branch & bound) returns: same feasibility
verdicts, same lexicographic objective values, and — on the scheduler's
problems — the same schedules.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import repro.ilp
from repro.ilp import (
    EngineStatistics,
    IncrementalIlpEngine,
    LinearProblem,
    SolverOptions,
)
from repro.ilp.branch_bound import solve_lexicographic
from repro.linalg.rational import normalize_integer_row, scale_to_integers
from repro.linalg.varspace import VariableSpace


# --------------------------------------------------------------------------- #
# Indexed-core units
# --------------------------------------------------------------------------- #
class TestVariableSpace:
    def test_interning_is_stable_and_dense(self):
        space = VariableSpace()
        assert space.intern("a") == 0
        assert space.intern("b") == 1
        assert space.intern("a") == 0
        assert space.names == ("a", "b")
        assert len(space) == 2
        assert "a" in space and "c" not in space

    def test_encode_is_dense_in_interning_order(self):
        space = VariableSpace(["a", "b", "c"])
        row = space.encode({"c": Fraction(2), "a": Fraction(-1)})
        assert row == [Fraction(-1), Fraction(0), Fraction(2)]

    def test_encode_interns_unknown_names(self):
        space = VariableSpace(["a"])
        row = space.encode({"b": 3})
        assert space.names == ("a", "b")
        assert row == [Fraction(0), Fraction(3)]

    def test_integer_row_helpers(self):
        # One name each: the indexed core calls linalg.rational's helpers.
        assert scale_to_integers([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
        assert normalize_integer_row([4, -6, 8]) == [2, -3, 4]
        assert normalize_integer_row([0, 0]) == [0, 0]

    def test_eliminating_absent_variables_is_a_no_op(self):
        # Regression: interning a never-seen name used to alias the constant
        # column of already-built rows, silently corrupting the system.
        from repro.polyhedra.affine import AffineExpr
        from repro.polyhedra.constraint import AffineConstraint
        from repro.polyhedra.fourier_motzkin import eliminate_variables

        i = AffineExpr.variable("i")
        constraints = [
            AffineConstraint.equals(i, 5),
            AffineConstraint.less_equal(i, 10),
        ]
        projected = eliminate_variables(constraints, ["j", "k"])
        survivors = {str(c) for c in projected}
        assert any("i" in text and "==" in text for text in survivors), survivors


# --------------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------------- #
class TestEngineBasics:
    def test_simple_lexicographic_solve(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        problem.add_variable("y", 0, 5)
        problem.add_constraint({"x": 1, "y": 1}, ">=", 4)
        problem.add_objective({"x": 1})
        problem.add_objective({"y": 1})
        solution = IncrementalIlpEngine(problem).solve()
        assert solution is not None
        assert solution.value("x") == 0 and solution.value("y") == 4
        assert solution.objective_values == [Fraction(0), Fraction(4)]

    def test_infeasible_returns_none(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 1)
        problem.add_constraint({"x": 1}, ">=", 5)
        assert IncrementalIlpEngine(problem).solve() is None

    def test_unbounded_raises_like_the_solver(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, None)
        problem.add_objective({"x": -1})
        with pytest.raises(ValueError, match="unbounded"):
            IncrementalIlpEngine(problem).solve()

    def test_integer_branching(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_constraint({"x": 2}, ">=", 3)  # x >= 1.5 -> integer x >= 2
        problem.add_objective({"x": 1})
        solution = IncrementalIlpEngine(problem).solve()
        assert solution.value("x") == 2

    def test_no_integer_point_in_fractional_region(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_constraint({"x": 2}, "==", 5)  # x = 2.5
        assert IncrementalIlpEngine(problem).solve() is None

    def test_free_and_shifted_variables(self):
        problem = LinearProblem()
        problem.add_variable("x", None, 5)
        problem.add_variable("y", -3, 5)
        problem.add_constraint({"x": 1, "y": 1}, "==", -4)
        problem.add_objective({"x": -1})
        solution = IncrementalIlpEngine(problem).solve()
        assert solution is not None
        assert solution.value("x") + solution.value("y") == -4
        assert solution.value("x") == -1  # maximal x given y <= 5... y = -3 -> x = -1

    def test_degenerate_problem_terminates(self):
        # The degenerate vertex forces ties in the ratio test; the Bland-style
        # tie-breaks must still terminate and find the optimum.
        problem = LinearProblem()
        problem.add_variable("x", 0, 10)
        problem.add_variable("y", 0, 10)
        problem.add_constraint({"x": 1, "y": 1}, "<=", 0)
        problem.add_constraint({"x": 1, "y": -1}, "<=", 0)
        problem.add_constraint({"x": 1}, ">=", 0)
        problem.add_objective({"x": -1})
        solution = IncrementalIlpEngine(problem).solve()
        assert solution is not None
        assert solution.value("x") == 0

    def test_statistics_are_recorded(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 9)
        problem.add_constraint({"x": 3}, ">=", 7)
        problem.add_objective({"x": 1})
        stats = EngineStatistics()
        engine = IncrementalIlpEngine(problem, stats=stats)
        engine.solve()
        assert stats.solves == 1
        assert stats.stages == 1
        assert stats.nodes >= 1
        assert stats.encode_seconds >= 0.0
        assert stats.solve_seconds > 0.0

    def test_warm_start_hits_on_branching(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 9)
        problem.add_variable("y", 0, 9)
        problem.add_constraint({"x": 2, "y": 2}, "==", 5)  # forces branching
        stats = EngineStatistics()
        assert IncrementalIlpEngine(problem, stats=stats).solve() is None
        assert stats.warm_start_hits > 0


class TestSolverDispatch:
    """One path: nothing selects an engine, a backend or a fallback."""

    def test_unknown_engine_rejected(self):
        import repro.scheduler
        from repro.ilp.backend import ExactSimplexBackend

        with pytest.raises(TypeError, match="engine"):
            SolverOptions(engine="incremental")
        with pytest.raises(ValueError, match="unknown solver option.*engine"):
            SolverOptions.from_dict({"engine": "oracle"})
        problem = LinearProblem()
        with pytest.raises(TypeError, match="backend"):
            IncrementalIlpEngine(problem, backend=ExactSimplexBackend())
        with pytest.raises(TypeError, match="workers"):
            IncrementalIlpEngine(problem, workers=4)
        # Nothing to release: the engine owns no pool, and there is no
        # wrapper or context object between it and the scheduler any more.
        assert not hasattr(IncrementalIlpEngine, "close")
        assert not hasattr(repro.ilp, "IlpSolver")
        assert not hasattr(repro.scheduler, "SolverContext")

    def test_statistics_summary_keys(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 3)
        problem.add_constraint({"x": 1}, ">=", 1)
        problem.add_objective({"x": 1})
        engine = IncrementalIlpEngine(problem)
        assert engine.solve() is not None
        summary = engine.stats.as_dict()
        for key in (
            "pivots",
            "nodes",
            "warm_start_hits",
            "encode_seconds",
            "solve_seconds",
            "solves",
        ):
            assert key in summary
        assert summary["solves"] == 1
        # One path: nothing reports a second solver, core or fallback.
        assert not {"oracle_solves", "engine_fallbacks", "simplex_core", "tableau_cells"} & set(summary)


# --------------------------------------------------------------------------- #
# Randomised differential tests: engine vs. the reference solver
# --------------------------------------------------------------------------- #
def _random_problem(rng: random.Random) -> LinearProblem:
    """Scheduler-shaped random ILP: bounded integers, mixed-sense rows."""
    problem = LinearProblem()
    n = rng.randint(2, 5)
    names = [f"x{i}" for i in range(n)]
    for name in names:
        if rng.random() < 0.25:
            problem.add_variable(name, -rng.randint(1, 3), rng.randint(2, 6))
        else:
            problem.add_variable(name, 0, rng.randint(2, 8))
    for _ in range(rng.randint(1, 7)):
        coefficients = {
            name: rng.randint(-3, 3)
            for name in rng.sample(names, rng.randint(1, n))
        }
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients, rng.choice([">=", "<=", "=="]), rng.randint(-5, 9)
        )
    for _ in range(rng.randint(0, 3)):
        objective = {name: rng.randint(-3, 3) for name in names}
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


def _knapsack_problem(rng: random.Random) -> LinearProblem:
    """A feasible knapsack equality under one or two gridded objectives.

    The shape on which rounding the bound decides most prunes: many integer
    leaves, LP bounds strictly between the values the objective can take.
    Coefficients share a denominator 1–4 (non-unit ``scale``) and a common
    factor (step ``> 1``), and boxes start at non-zero lower bounds
    (fractional ``offset``).
    """
    problem = LinearProblem()
    names = [f"x{i}" for i in range(rng.randint(3, 5))]
    point = {}
    for name in names:
        lower = rng.choice([0, 0, -1, 2])
        problem.add_variable(name, lower, lower + 3)
        point[name] = lower + rng.randint(0, 3)
    weights = dict(zip(names, rng.sample([2, 3, 5, 7, 11], len(names))))
    problem.add_constraint(
        weights, "==", sum(weight * point[name] for name, weight in weights.items())
    )
    for _ in range(rng.randint(1, 2)):
        factor, denominator = rng.choice([1, 1, 2, 10]), rng.randint(1, 4)
        objective = {
            name: Fraction(factor * rng.randint(0, 3), denominator) for name in names
        }
        if any(objective.values()):
            problem.add_objective({k: v for k, v in objective.items() if v})
    return problem


def _brute_force(problem: LinearProblem) -> tuple[Fraction, ...]:
    """Lexicographic optimum of an all-integer boxed problem by enumeration."""
    names = list(problem.variables)
    boxes = [
        range(int(variable.lower), int(variable.upper) + 1)
        for variable in problem.variables.values()
    ]
    return min(
        tuple(
            sum(coefficient * assignment[name] for name, coefficient in objective.items())
            for objective in problem.objectives
        )
        for assignment in (dict(zip(names, point)) for point in itertools.product(*boxes))
        if all(constraint.evaluate(assignment) for constraint in problem.constraints)
    )


class TestDifferential:
    def test_engine_matches_oracle_on_random_problems(self):
        rng = random.Random(20260730)
        stats = EngineStatistics()  # shared: it aggregates the corpus
        for _ in range(150):
            problem = _random_problem(rng)
            a = IncrementalIlpEngine(problem, stats=stats).solve()
            b = solve_lexicographic(problem)
            assert (a is None) == (b is None)
            if a is not None and b is not None:
                assert a.objective_values == b.objective_values
                assert problem.is_feasible_assignment(a.assignment)
        # The work of the fixed-seed corpus, exactly (integers of a
        # deterministic run); on an intended change, paste the new numbers.
        pinned = {
            "solves": 150, "pivots": 558, "nodes": 373, "tableau_rows": 607,
            "basis_nnz": 53, "eta_entries": 1911, "refactorizations": 8,
        }
        work = stats.as_dict()
        assert {name: work[name] for name in pinned} == pinned

    def test_grid_pruning_agrees_with_oracle_and_brute_force(self):
        """The reference prunes on the exact bound and brute force prunes
        nothing; the engine rounds the bound onto the stage objective's grid.
        Same values on every stage, over every shape of grid, on a corpus
        where the rounding decides prunes in two problems of five."""
        rng = random.Random(20261004)
        shapes = {"scale": 0, "step": 0, "offset": 0, "pruned": 0}
        for _ in range(200):
            problem = _knapsack_problem(rng)
            solved = IncrementalIlpEngine(problem)
            a = solved.solve()
            b = solve_lexicographic(problem)
            assert a is not None and b is not None
            assert a.objective_values == b.objective_values
            assert problem.is_feasible_assignment(a.assignment)
            engine = IncrementalIlpEngine(problem)
            for objective in problem.objectives:
                costs, scale, offset = engine._encoder.objective_row(objective)
                step = engine._objective_step(costs, scale)
                shapes["scale"] += scale != 1
                shapes["step"] += step.numerator > 1
                shapes["offset"] += offset.denominator != 1
            assert tuple(a.objective_values) == _brute_force(problem)
            shapes["pruned"] += solved.stats.grid_prunes > 0
        assert shapes["pruned"] >= 80 and min(shapes.values()) >= 5, shapes

    def test_engine_matches_oracle_with_fractional_data(self):
        rng = random.Random(7)
        for _ in range(60):
            problem = LinearProblem()
            names = ["a", "b", "c"]
            for name in names:
                problem.add_variable(name, 0, rng.randint(3, 6))
            for _ in range(rng.randint(1, 4)):
                coefficients = {
                    name: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for name in rng.sample(names, rng.randint(1, 3))
                }
                coefficients = {k: v for k, v in coefficients.items() if v}
                if not coefficients:
                    continue
                problem.add_constraint(
                    coefficients,
                    rng.choice([">=", "<=", "=="]),
                    Fraction(rng.randint(-4, 8), rng.randint(1, 2)),
                )
            problem.add_objective({name: rng.randint(-2, 3) for name in names})
            a = IncrementalIlpEngine(problem).solve()
            b = solve_lexicographic(problem)
            assert (a is None) == (b is None)
            if a is not None and b is not None:
                assert a.objective_values == b.objective_values
                assert problem.is_feasible_assignment(a.assignment)

    def test_engine_and_oracle_schedule_identically(self, monkeypatch):
        """Full-path differential: whole kernels scheduled under the reference
        solver (substituted at ``PolyTOPSScheduler._solve``, the one site of the
        run's scheduling ILPs; emptiness probes go to
        ``IncrementalIlpEngine.probe`` and are checked in
        ``tests/test_probe_roots.py``) must produce the engine's schedules."""
        from repro.scheduler.core import PolyTOPSScheduler
        from repro.scheduler.strategies import isl_style, pluto_style
        from repro.suites.polybench.blas import gemm, gemver
        from repro.suites.polybench.stencils import jacobi_2d

        cases = [
            (scop, config)
            for scop in (gemm(6, 6, 6), gemver(8), jacobi_2d(6, 3))
            for config in (pluto_style(), isl_style())
        ]
        engine = [PolyTOPSScheduler(scop, config).schedule() for scop, config in cases]
        monkeypatch.setattr(
            PolyTOPSScheduler,
            "_solve",
            lambda self, problem: solve_lexicographic(problem),
        )
        for (scop, config), incremental in zip(cases, engine):
            oracle = PolyTOPSScheduler(scop, config).schedule()
            assert oracle.statistics["pivots"] == 0  # the engine did not run
            for statement in scop.statements:
                assert (
                    incremental.schedule.statements[statement.name].rows
                    == oracle.schedule.statements[statement.name].rows
                ), f"schedule mismatch on {scop.name}/{config.name}/{statement.name}"


# --------------------------------------------------------------------------- #
# Rounding the bound onto the objective's grid
# --------------------------------------------------------------------------- #
def _force_step(monkeypatch, step: Fraction) -> None:
    """Make every stage round onto ``step * Z`` whatever its objective is."""
    monkeypatch.setattr(
        IncrementalIlpEngine, "_objective_step", lambda self, *stage: step
    )


class TestGridPruning:
    @staticmethod
    def _halves(*objectives) -> LinearProblem:
        """``5x + 5y >= 3`` and ``4x + y >= 2`` over ``[0, 3]^2``: the LP
        minimum of ``(x + y) / 2`` is 3/10, the integer minimum 1/2 at (1, 0)."""
        problem = LinearProblem()
        problem.add_variable("x", 0, 3)
        problem.add_variable("y", 0, 3)
        problem.add_constraint({"x": 5, "y": 5}, ">=", 3)
        problem.add_constraint({"x": 4, "y": 1}, ">=", 2)
        for objective in objectives:
            problem.add_objective(objective)
        return problem

    def test_bound_rounds_to_halves_not_to_integers(self, monkeypatch):
        half = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        problem = self._halves(half)
        engine = IncrementalIlpEngine(problem)
        costs, scale, _ = engine._encoder.objective_row(half)
        assert engine._objective_step(costs, scale) == Fraction(1, 2)
        solution = engine.solve()
        assert solution.objective_values == [Fraction(1, 2)]
        assert solution.objective_values == solve_lexicographic(problem).objective_values
        # The first leaf is worth 1: on the integer grid ceil(3/10) = 1 calls
        # it optimal, and the 1/2 at (1, 0) behind it is lost.
        _force_step(monkeypatch, Fraction(1))
        assert IncrementalIlpEngine(problem).solve().objective_values == [Fraction(1)]

    def test_later_stage_sees_the_exact_frozen_value(self):
        """Stage 1 is pruned on rounded bounds; what stage 2 is solved under
        is ``(x + y) / 2 == 1/2`` exactly, not a rounded bound."""
        problem = self._halves(
            {"x": Fraction(1, 2), "y": Fraction(1, 2)},
            {"x": Fraction(1, 3), "y": Fraction(-1, 3)},
        )
        # Without the second row (0, 1) is feasible too and wins stage 2.
        problem.constraints.pop()
        solution = IncrementalIlpEngine(problem).solve()
        assert solution.objective_values == [Fraction(1, 2), Fraction(-1, 3)]
        assert solution.assignment == {"x": 0, "y": 1}
        assert solution.objective_values == solve_lexicographic(problem).objective_values
        assert tuple(solution.objective_values) == _brute_force(problem)


# --------------------------------------------------------------------------- #
# Scheduling statistics
# --------------------------------------------------------------------------- #
def test_scheduling_statistics_expose_solver_counters():
    from repro.scheduler.core import PolyTOPSScheduler
    from repro.suites.polybench.blas import gemm

    result = PolyTOPSScheduler(gemm(6, 6, 6)).schedule()
    for key in ("solves", "pivots", "nodes", "warm_start_hits", "solve_calls"):
        assert key in result.statistics
    assert result.statistics["solve_calls"] == result.statistics["solves"] >= 1
