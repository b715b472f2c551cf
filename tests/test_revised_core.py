"""Differential and directed tests for the revised-simplex core.

The contract of :mod:`repro.ilp.revised`: ``core="revised"`` is a drop-in
replacement for the dense integer tableau.  Every pivot decision reads the
exact integers the dense tableau would hold, so solutions, objective values
and branch & bound ``node_key`` witnesses are bit-identical across the two
cores — for any worker count and any refactorisation policy.

Three layers of evidence:

* property-based differential runs (revised == tableau == oracle == brute
  force on fully-boxed instances),
* directed :class:`~repro.linalg.sparse_lu.EtaFile` regressions against a
  ``Fraction`` Gauss–Jordan ground truth (pivot, negate, permutation-needing
  refactorisation, singular bases, staleness),
* plumbing checks: ``REPRO_ILP_CORE`` validation, counter flow, pickling for
  process workers, and the sparse ``_encode_integer_row`` fast path.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest

from repro.ilp import IlpSolver, LinearProblem, SolverOptions
from repro.ilp.engine import IncrementalIlpEngine
from repro.ilp.revised import _RevisedTableau
from repro.linalg.sparse_lu import EtaFile, FactorizationError, SingularBasisError

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

settings.register_profile(
    "default",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class _ForcedCore:
    """Temporarily pin ``REPRO_ILP_CORE`` (None = unset)."""

    def __init__(self, value: str | None):
        self.value = value
        self.saved: str | None = None

    def __enter__(self):
        self.saved = os.environ.pop("REPRO_ILP_CORE", None)
        if self.value is not None:
            os.environ["REPRO_ILP_CORE"] = self.value
        return self

    def __exit__(self, *exc):
        os.environ.pop("REPRO_ILP_CORE", None)
        if self.saved is not None:
            os.environ["REPRO_ILP_CORE"] = self.saved


# --------------------------------------------------------------------------- #
# Problem generators
# --------------------------------------------------------------------------- #
@st.composite
def milp_problems(draw) -> LinearProblem:
    """Small fully-boxed ILPs: free of unbounded rays, brute-forceable."""
    n = draw(st.integers(min_value=1, max_value=3))
    problem = LinearProblem()
    for index in range(n):
        lower = draw(st.integers(min_value=-3, max_value=2))
        problem.add_variable(f"x{index}", lower, lower + draw(st.integers(0, 4)))
    names = list(problem.variables)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coefficients = {
            name: draw(st.integers(min_value=-3, max_value=3)) for name in names
        }
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients,
            draw(st.sampled_from([">=", "<=", "=="])),
            draw(st.integers(min_value=-5, max_value=8)),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        objective = {
            name: draw(st.integers(min_value=-2, max_value=2)) for name in names
        }
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


def _brute_force(problem: LinearProblem):
    ranges = []
    for variable in problem.variables.values():
        low = -((-variable.lower.numerator) // variable.lower.denominator)
        high = variable.upper.numerator // variable.upper.denominator
        if low > high:
            return None
        ranges.append([Fraction(v) for v in range(low, high + 1)])
    names = list(problem.variables)
    best = None
    for point in itertools.product(*ranges):
        assignment = dict(zip(names, point))
        if not all(c.evaluate(assignment) for c in problem.constraints):
            continue
        key = tuple(
            sum(
                (c * assignment.get(n, Fraction(0)) for n, c in objective.items()),
                Fraction(0),
            )
            for objective in problem.objectives
        )
        if best is None or key < best:
            best = key
    return best


def _random_problem(rng: random.Random) -> LinearProblem:
    """Scheduler-shaped random MILP (bounded integers, mixed senses)."""
    problem = LinearProblem()
    n = rng.randint(2, 6)
    names = [f"x{i}" for i in range(n)]
    for name in names:
        problem.add_variable(name, 0, rng.randint(2, 8))
    for _ in range(rng.randint(1, 7)):
        coefficients = {
            name: rng.randint(-3, 3) for name in rng.sample(names, rng.randint(1, n))
        }
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients, rng.choice([">=", "<=", "=="]), rng.randint(-5, 9)
        )
    for _ in range(rng.randint(0, 2)):
        objective = {name: rng.randint(-3, 3) for name in names}
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


def _branching_heavy() -> LinearProblem:
    problem = LinearProblem()
    coefficients = [2, 3, 5, 7, 11]
    for index in range(len(coefficients)):
        problem.add_variable(f"x{index}", 0, 3)
    problem.add_constraint(
        {f"x{index}": value for index, value in enumerate(coefficients)}, "==", 23
    )
    problem.add_objective({f"x{index}": 1 for index in range(len(coefficients))})
    return problem


# --------------------------------------------------------------------------- #
# Differential: revised == tableau == oracle == brute force
# --------------------------------------------------------------------------- #
class TestFourWayDifferential:
    @given(problem=milp_problems())
    def test_all_four_solvers_agree(self, problem: LinearProblem):
        expected = _brute_force(problem)
        revised = IlpSolver(options=SolverOptions.resolve(engine="incremental", core="revised"))
        tableau = IlpSolver(options=SolverOptions.resolve(engine="incremental", core="tableau"))
        revised_solution = revised.solve(problem)
        tableau_solution = tableau.solve(problem)
        oracle_solution = IlpSolver(options=SolverOptions.resolve(engine="oracle")).solve(problem)
        assert revised.engine_fallbacks == 0
        assert tableau.engine_fallbacks == 0
        if expected is None:
            assert revised_solution is None
            assert tableau_solution is None
            assert oracle_solution is None
            return
        assert revised_solution is not None
        assert tableau_solution is not None
        assert oracle_solution is not None
        assert tuple(revised_solution.objective_values) == expected
        assert tuple(tableau_solution.objective_values) == expected
        assert tuple(oracle_solution.objective_values) == expected
        # Bit-identity, not just optimality: same incumbent, same B&B path.
        assert revised_solution.assignment == tableau_solution.assignment
        assert revised_solution.node_key == tableau_solution.node_key
        assert problem.is_feasible_assignment(revised_solution.assignment)

    @given(problem=milp_problems())
    def test_pivot_and_node_counters_match_across_cores(
        self, problem: LinearProblem
    ):
        # The revised core must replay the dense pivot sequence exactly, so
        # all work counters shared by the two cores agree — any divergence
        # means a pivot decision read a different number.
        solvers = {
            core: IlpSolver(options=SolverOptions.resolve(engine="incremental", core=core))
            for core in ("revised", "tableau")
        }
        for solver in solvers.values():
            solver.solve(problem)
        revised_stats = solvers["revised"].statistics_summary()
        tableau_stats = solvers["tableau"].statistics_summary()
        for counter in ("pivots", "phase1_pivots", "nodes", "bound_flips"):
            assert revised_stats[counter] == tableau_stats[counter], counter


class TestWorkerAndCoreDeterminism:
    def test_node_key_identical_across_cores_and_worker_counts(self):
        problem = _branching_heavy()
        base = IlpSolver(options=SolverOptions.resolve(core="tableau", workers=1)).solve(problem)
        assert base is not None and base.node_key is not None
        for core in ("revised", "tableau"):
            for workers in (1, 2, 4):
                solver = IlpSolver(options=SolverOptions.resolve(core=core, workers=workers))
                solution = solver.solve(problem)
                assert solution is not None, (core, workers)
                assert solution.node_key == base.node_key, (core, workers)
                assert solution.assignment == base.assignment, (core, workers)
                solver.close()

    def test_randomised_process_and_thread_workers_match(self):
        rng = random.Random(20260808)
        revised = IlpSolver(options=SolverOptions.resolve(core="revised", workers=3))
        tableau = IlpSolver(options=SolverOptions.resolve(core="tableau", workers=3))
        try:
            for _ in range(10):
                problem = _random_problem(rng)
                a = revised.solve(problem)
                b = tableau.solve(problem)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.node_key == b.node_key
                    assert a.assignment == b.assignment
        finally:
            revised.close()
            tableau.close()

    def test_refactor_threshold_does_not_perturb_results(self, monkeypatch):
        # Re-inversion is observably transparent: forcing a refactorisation
        # after every single eta update must not change any pivot decision.
        problem = _branching_heavy()
        base = IlpSolver(options=SolverOptions.resolve(core="revised")).solve(problem)
        monkeypatch.setattr("repro.ilp.revised._MIN_REFRESH_OPS", 0)
        eager_solver = IlpSolver(options=SolverOptions.resolve(core="revised"))
        eager = eager_solver.solve(problem)
        assert eager is not None and base is not None
        assert eager.node_key == base.node_key
        assert eager.assignment == base.assignment
        assert eager_solver.statistics_summary()["refactorizations"] > 0


# --------------------------------------------------------------------------- #
# EtaFile directed regressions (Fraction ground truth)
# --------------------------------------------------------------------------- #
def _dense_inverse_times_den(columns: list[list[int]]) -> tuple[list[list[Fraction]], int]:
    """``(B^{-1}, |det B|)`` of the matrix with the given dense columns."""
    m = len(columns)
    matrix = [[Fraction(columns[k][i]) for k in range(m)] for i in range(m)]
    inverse = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        pivot_row = next(
            (r for r in range(col, m) if matrix[r][col] != 0), None
        )
        assert pivot_row is not None, "singular test matrix"
        if pivot_row != col:
            matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
            inverse[col], inverse[pivot_row] = inverse[pivot_row], inverse[col]
            det = -det
        pivot = matrix[col][col]
        det *= pivot
        matrix[col] = [v / pivot for v in matrix[col]]
        inverse[col] = [v / pivot for v in inverse[col]]
        for r in range(m):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
                inverse[r] = [a - factor * b for a, b in zip(inverse[r], inverse[col])]
    return inverse, abs(det.numerator) // det.denominator if det.denominator == 1 else abs(det)


class TestEtaFile:
    def test_empty_file_is_identity(self):
        file = EtaFile(3)
        assert file.den == 1
        assert file.ftran([1, 2, 3]) == [1, 2, 3]
        assert file.btran([4, 5, 6]) == [4, 5, 6]

    def test_refactor_matches_fraction_inverse(self):
        rng = random.Random(7)
        for _ in range(25):
            m = rng.randint(1, 5)
            while True:
                dense = [
                    [rng.randint(-3, 3) for _ in range(m)] for _ in range(m)
                ]
                columns = [list(col) for col in zip(*dense)]
                try:
                    inverse, det = _dense_inverse_times_den(columns)
                except AssertionError:
                    continue
                break
            file = EtaFile(m)
            file.den = int(det)
            sparse = [
                [(i, column[i]) for i in range(m) if column[i]]
                for column in columns
            ]
            file.refactor(sparse)
            assert file.den == int(det)
            for k in range(m):
                seed = [int(i == k) for i in range(m)]
                got = file.ftran(list(seed))
                want = [inverse[i][k] * det for i in range(m)]
                assert [Fraction(x) for x in got] == want
                got_t = file.btran([int(i == k) for i in range(m)])
                want_t = [inverse[k][i] * det for i in range(m)]
                assert [Fraction(x) for x in got_t] == want_t

    def test_refactor_emits_permutation_when_elimination_reorders(self):
        # A permuted basis (B = anti-diagonal) forces every column onto a
        # row different from its basis position — elimination still succeeds
        # thanks to the free row choice, and the trailing permutation op maps
        # the chosen rows back.
        columns = [[(2, 1)], [(1, 1)], [(0, 1)]]
        file = EtaFile(3)
        file.refactor(columns)
        assert any(op[0] == 2 for op in file.ops)
        assert file.den == 1
        # Represented matrix is den * B^{-1} = the same anti-diagonal.
        assert file.ftran([1, 0, 0]) == [0, 0, 1]
        assert file.ftran([0, 1, 0]) == [0, 1, 0]
        assert file.btran([0, 0, 1]) == [1, 0, 0]

    def test_singular_basis_raises(self):
        columns = [[(0, 1), (1, 2)], [(0, 2), (1, 4)]]
        file = EtaFile(2)
        with pytest.raises(SingularBasisError):
            file.refactor(columns)

    def test_den_mismatch_raises(self):
        file = EtaFile(2)
        file.den = 7  # drifted caller state: true det of I is 1
        with pytest.raises(FactorizationError, match="denominator"):
            file.refactor([[(0, 1)], [(1, 1)]])

    def test_stale_file_refuses_solves(self):
        file = EtaFile(2)
        file.mark_stale(3)
        with pytest.raises(FactorizationError, match="stale"):
            file.ftran([1, 0, 0])
        with pytest.raises(FactorizationError, match="stale"):
            file.btran([1, 0, 0])

    def test_pivot_update_tracks_ground_truth(self):
        # Start from I, pivot column (2, 3) into row 0: B = [[2, 0], [3, 1]].
        file = EtaFile(2)
        file.append_pivot(0, [2, 3])
        assert file.den == 2
        inverse, det = _dense_inverse_times_den([[2, 3], [0, 1]])
        for k in range(2):
            got = file.ftran([int(i == k) for i in range(2)])
            want = [inverse[i][k] * det for i in range(2)]
            assert [Fraction(x) for x in got] == want

    def test_negate_is_self_transpose(self):
        file = EtaFile(2)
        file.append_pivot(0, [2, 3])
        file.append_negate(1)
        ftran_image = [file.ftran([int(i == k) for i in range(2)]) for k in range(2)]
        btran_image = [file.btran([int(i == k) for i in range(2)]) for k in range(2)]
        for i in range(2):
            for j in range(2):
                assert ftran_image[j][i] == btran_image[i][j]

    def test_copy_shares_history_but_not_future(self):
        file = EtaFile(2)
        file.append_pivot(0, [2, 3])
        clone = file.copy()
        clone.append_negate(0)
        assert len(file.ops) == 1
        assert len(clone.ops) == 2
        assert clone.update_ops == file.update_ops + 1

    def test_pickle_round_trip(self):
        file = EtaFile(3)
        file.append_pivot(1, [0, 2, -1])
        file.append_negate(0)
        restored = pickle.loads(pickle.dumps(file))
        assert restored.den == file.den
        assert restored.ops == file.ops
        assert restored.ftran([1, 1, 1]) == file.ftran([1, 1, 1])


# --------------------------------------------------------------------------- #
# Plumbing: env var, statistics flow, sparse encoding fast path
# --------------------------------------------------------------------------- #
class TestCoreSelection:
    def test_env_default_and_override(self):
        with _ForcedCore(None):
            assert SolverOptions.from_env().core == "revised"
            # One env resolution point: the engine itself never reads it.
            assert IncrementalIlpEngine(LinearProblem()).core == "revised"
        with _ForcedCore("tableau"):
            assert SolverOptions.from_env().core == "tableau"
            assert IlpSolver().core == "tableau"
            assert IncrementalIlpEngine(LinearProblem()).core == "revised"
        with _ForcedCore("Revised"):
            assert SolverOptions.from_env().core == "revised"

    def test_env_typo_fails_loudly(self):
        with _ForcedCore("revsied"):
            with pytest.raises(ValueError, match="REPRO_ILP_CORE"):
                SolverOptions.from_env()
            with pytest.raises(ValueError, match="REPRO_ILP_CORE"):
                IlpSolver()

    def test_explicit_core_beats_environment(self):
        with _ForcedCore("tableau"):
            assert IlpSolver(options=SolverOptions.resolve(core="revised")).core == "revised"

    def test_unknown_core_argument_rejected(self):
        with pytest.raises(ValueError, match="unknown simplex core"):
            IlpSolver(options=SolverOptions.resolve(core="dense"))
        with pytest.raises(ValueError, match="unknown simplex core"):
            IncrementalIlpEngine(LinearProblem(), core="dense")

    def test_revised_statistics_flow(self):
        # A second lexicographic stage appends an objective-fixing row, which
        # marks the eta file stale and forces at least one refactorisation.
        problem = _branching_heavy()
        problem.add_objective({"x0": -1, "x4": 1})
        solver = IlpSolver(options=SolverOptions.resolve(core="revised"))
        assert solver.solve(problem) is not None
        stats = solver.statistics_summary()
        assert stats["simplex_core"] == "revised"
        assert stats["refactorizations"] >= 1
        assert stats["eta_entries"] > 0
        assert stats["basis_nnz"] > 0
        assert stats["tableau_cells"] > 0
        # The whole point: the factored basis stores far fewer non-zeros
        # than the dense tableau stores cells.
        assert stats["basis_nnz"] < stats["tableau_cells"]

    def test_sparse_rows_save_cells_on_wide_problems(self):
        # Disjoint sparse constraints over many columns: the dense tableau
        # materialises every zero, the revised core only the entries.
        problem = LinearProblem()
        for index in range(12):
            problem.add_variable(f"x{index}", 0, 4)
        for index in range(0, 12, 2):
            problem.add_constraint(
                {f"x{index}": 1, f"x{index + 1}": 2}, ">=", 3
            )
        problem.add_objective({f"x{index}": 1 for index in range(12)})
        solver = IlpSolver(options=SolverOptions.resolve(core="revised"))
        assert solver.solve(problem) is not None
        stats = solver.statistics_summary()
        assert 0 < stats["tableau_cells_saved"] < stats["tableau_cells"]

    def test_tableau_core_reports_no_revised_work(self):
        solver = IlpSolver(options=SolverOptions.resolve(core="tableau"))
        assert solver.solve(_branching_heavy()) is not None
        stats = solver.statistics_summary()
        assert stats["simplex_core"] == "tableau"
        assert stats["refactorizations"] == 0
        assert stats["eta_entries"] == 0
        assert stats["basis_nnz"] == 0
        assert stats["tableau_cells_saved"] == 0

    def test_integer_rows_never_take_the_dense_detour(self):
        # The all-integer fast path of _encode_integer_row must keep sparse
        # inputs sparse: scheduler-shaped integer problems encode every row
        # sparsely and the dense re-encode counter stays at zero.
        rng = random.Random(4)
        solver = IlpSolver(options=SolverOptions.resolve(core="revised"))
        for _ in range(5):
            solver.solve(_random_problem(rng))
        stats = solver.statistics_summary()
        assert stats["sparse_encoded_rows"] > 0
        assert stats["dense_encode_rows"] == 0

    def test_fractional_rows_fall_back_to_dense_encode(self):
        problem = LinearProblem()
        problem.add_variable("x", 0, 5)
        problem.add_constraint({"x": Fraction(1, 3)}, "<=", Fraction(4, 3))
        problem.add_objective({"x": -1})
        solver = IlpSolver(options=SolverOptions.resolve(core="revised"))
        solution = solver.solve(problem)
        assert solution is not None
        assert solution.assignment["x"] == 4
        assert solver.statistics_summary()["dense_encode_rows"] > 0


class TestRevisedTableauMechanics:
    def test_copy_is_shallow_and_independent(self):
        stats = __import__(
            "repro.ilp.engine", fromlist=["EngineStatistics"]
        ).EngineStatistics()
        tableau = _RevisedTableau(
            [(((0, 1), (2, 1)), 4), (((1, 1), (3, 1)), 5)],
            basis=[2, 3],
            n_columns=4,
            stats=stats,
            spans=[7, 7, None, None],
        )
        clone = tableau.copy()
        clone.add_le_row([1, 1], 6)
        assert len(tableau.rows) == 2
        assert len(clone.rows) == 3
        assert tableau.file.stale is False
        assert clone.file.stale is True
        # Copy-on-write column index: the parent's entry lists are untouched.
        assert all(len(entries) <= 2 for entries in tableau.cols)

    def test_stored_cells_counts_sparse_entries_only(self):
        stats = __import__(
            "repro.ilp.engine", fromlist=["EngineStatistics"]
        ).EngineStatistics()
        tableau = _RevisedTableau(
            [(((0, 1), (2, 1)), 4), (((1, 1), (3, 1)), 5)],
            basis=[2, 3],
            n_columns=4,
            stats=stats,
        )
        # 4 row entries + 2 rhs << the 2 * (4 + 1) cells of the dense block.
        assert tableau.stored_cells() == 4 + 2

    def test_free_variables_and_cuts_through_the_revised_core(self):
        # Free variables split into column pairs and branch & bound adds GE
        # cuts as add_le_row on negated coefficients: both paths must agree
        # with the oracle.
        problem = LinearProblem()
        problem.add_variable("x", None, None)
        problem.add_variable("y", 0, 6)
        problem.add_constraint({"x": 2, "y": 3}, ">=", 7)
        problem.add_constraint({"x": 1, "y": -1}, "<=", 2)
        problem.add_objective({"x": 1, "y": 2})
        revised = IlpSolver(options=SolverOptions.resolve(engine="incremental", core="revised"))
        solution = revised.solve(problem)
        oracle = IlpSolver(options=SolverOptions.resolve(engine="oracle")).solve(problem)
        assert revised.engine_fallbacks == 0
        assert solution is not None and oracle is not None
        assert solution.objective_values == oracle.objective_values
        assert problem.is_feasible_assignment(solution.assignment)
