"""Differential and directed tests for the revised-simplex core.

The contract of :mod:`repro.ilp.revised`: every pivot decision reads the exact
integers the full tableau would hold, so solutions, objective values and
branch & bound ``node_key`` witnesses are the same for any refactorisation
policy.

Four layers of evidence:

* property-based differential runs (engine == ``solve_lexicographic`` ==
  brute force on fully-boxed instances),
* directed :class:`~repro.linalg.sparse_lu.EtaFile` regressions against a
  ``Fraction`` Gauss–Jordan ground truth (pivot, negate, permutation-needing
  refactorisation, singular bases, staleness),
* random basis walks (pivots of both signs, negations, bordered rows,
  mid-walk re-inversions, ``m`` up to 14 and growing) holding the
  lazily-scaled FTRAN and the support-tracked BTRAN to that ground truth, to
  a file refactored from the same basis *and* to the textbook dense-pass
  ``ftran_reference`` / ``btran_reference`` kept in this file, with the
  regimes the walk must visit asserted,
* plumbing checks: the removed switches are rejected, counter flow, and the
  one sparse all-integer base-row encoding (fractional data included).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from repro.ilp import LinearProblem, SolverOptions
from repro.ilp.branch_bound import solve_lexicographic
from repro.ilp.engine import EngineStatistics, IncrementalIlpEngine
from repro.ilp.revised import _RevisedTableau
from repro.linalg.sparse_lu import EtaFile, FactorizationError, SingularBasisError

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st


# --------------------------------------------------------------------------- #
# Problem generators
# --------------------------------------------------------------------------- #
def _number(draw, low: int, high: int, denominators: tuple[int, ...]):
    value = draw(st.integers(min_value=low, max_value=high))
    if not denominators:
        return value
    return Fraction(value, draw(st.sampled_from(denominators)))


@st.composite
def milp_problems(draw, denominators: tuple[int, ...] = ()) -> LinearProblem:
    """Small fully-boxed ILPs: free of unbounded rays, brute-forceable.

    With *denominators*, every coefficient, bound and right-hand side is
    divided by one of them (integer variables: the box is its integral hull).
    Objectives share a common factor (grid step ``> 1``, the scheduler's
    step-10 case) and, with *denominators*, have fractional coefficients over
    variables with non-zero lower bounds: a non-unit ``scale`` and a fractional
    ``offset`` in the grid the engine rounds its bounds onto.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    problem = LinearProblem()
    for index in range(n):
        lower = _number(draw, -3, 2, denominators)
        problem.add_variable(f"x{index}", lower, lower + _number(draw, 0, 4, denominators))
    names = list(problem.variables)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coefficients = {name: _number(draw, -3, 3, denominators) for name in names}
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients,
            draw(st.sampled_from([">=", "<=", "=="])),
            _number(draw, -5, 8, denominators),
        )
    factor = draw(st.sampled_from([1, 1, 2, 10]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        objective = {name: factor * _number(draw, -2, 2, denominators) for name in names}
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
    """Scheduler-shaped random ILP (bounded integers, mixed senses)."""
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


def _multi_stage_branching() -> LinearProblem:
    """Three stages over :func:`_branching_heavy`, the last over a free
    variable whose branching bounds are cut rows (it is split in two)."""
    problem = _branching_heavy()
    problem.add_variable("z", None, None)
    problem.add_constraint({"z": 2, "x0": -1, "x4": -1}, "==", -1)
    problem.add_objective({"x0": -1, "x4": 1})
    problem.add_objective({"z": -1})
    return problem


def _fractional_coefficients() -> LinearProblem:
    problem = LinearProblem()
    problem.add_variable("x", None, 4)  # free below: split into x+ - x-
    problem.add_variable("y", 0, 5)
    problem.add_constraint({"x": Fraction(1, 2), "y": Fraction(1, 3)}, "<=", Fraction(7, 3))
    problem.add_constraint({"x": Fraction(3, 4), "y": Fraction(-1, 2)}, ">=", -2)
    problem.add_constraint({"x": 1}, ">=", -3)
    problem.add_objective({"x": -1, "y": -1})
    problem.add_objective({"x": 1})
    return problem


def _fractional_right_hand_sides() -> LinearProblem:
    problem = LinearProblem()
    problem.add_variable("a", -2, 5)
    problem.add_variable("b", 0, 5)
    problem.add_constraint({"a": 2, "b": 3}, "<=", Fraction(31, 4))
    problem.add_constraint({"a": 1, "b": -1}, ">=", Fraction(-5, 2))
    problem.add_constraint({"a": 4, "b": 6}, "<=", Fraction(62, 3))
    problem.add_objective({"a": -1, "b": -2})
    return problem


#: (problem, the engine's ``_base_rows()`` as captured at 34641b6 — where each
#: row with a fractional datum took a dense ``Fraction`` detour —, every point
#: a brute force has to look at: the equalities of the second pin y and z to x).
_FRACTIONAL_FIXTURES = [
    (
        _fractional_coefficients,
        [
            (((0, 3), (1, -3), (2, 2)), "<=", 14),
            (((0, 3), (1, -3), (2, -2)), ">=", -8),
            (((0, 1), (1, -1)), ">=", -3),
            (((0, 1), (1, -1)), "<=", 4),
        ],
        [{"x": Fraction(x), "y": Fraction(y)} for x in range(-3, 5) for y in range(6)],
    ),
    (
        _fractional_right_hand_sides,
        [
            (((0, 8), (1, 12)), "<=", 47),
            (((0, 2), (1, -2)), ">=", -1),
            (((0, 6), (1, 9)), "<=", 43),
        ],
        [{"a": Fraction(a), "b": Fraction(b)} for a in range(-2, 6) for b in range(6)],
    ),
]


# --------------------------------------------------------------------------- #
# Differential: engine == reference solver == brute force
# --------------------------------------------------------------------------- #
class TestThreeWayDifferential:
    @given(problem=milp_problems())
    def test_engine_reference_and_brute_force_agree(self, problem: LinearProblem):
        self._agree(problem)

    @given(problem=milp_problems(denominators=(2, 3, 4)))
    def test_engine_reference_and_brute_force_agree_on_fractional_data(
        self, problem: LinearProblem
    ):
        self._agree(problem)

    @staticmethod
    def _agree(problem: LinearProblem) -> None:
        expected = _brute_force(problem)
        engine_solution = IncrementalIlpEngine(problem).solve()
        reference_solution = solve_lexicographic(problem)
        if expected is None:
            assert engine_solution is None
            assert reference_solution is None
            return
        assert engine_solution is not None
        assert reference_solution is not None
        assert tuple(engine_solution.objective_values) == expected
        assert tuple(reference_solution.objective_values) == expected
        assert problem.is_feasible_assignment(engine_solution.assignment)
        assert problem.is_feasible_assignment(reference_solution.assignment)


class TestWorkerAndCoreDeterminism:
    def test_refactor_threshold_does_not_perturb_results(self, monkeypatch):
        # Re-inversion is observably transparent: forcing a refactorisation
        # after every single eta update must not change any pivot decision.
        problem = _branching_heavy()
        base = IncrementalIlpEngine(problem).solve()
        monkeypatch.setattr("repro.ilp.revised._MIN_REFRESH_OPS", 0)
        eager_engine = IncrementalIlpEngine(problem)
        eager = eager_engine.solve()
        assert eager is not None and base is not None
        assert eager.node_key == base.node_key
        assert eager.assignment == base.assignment
        assert eager_engine.stats.refactorizations > 0

    def test_bordered_rows_answer_as_a_refactored_basis(self, monkeypatch):
        # Freeze rows between stages and cut rows on the split variable grow
        # the eta file by a border each; a forced threshold re-inverts the
        # bordered basis instead.  Same search, to the node key.
        problem = _multi_stage_branching()
        borders: list[int] = []
        append_border = EtaFile.append_border

        def counted_border(file, m, entries):
            borders.append(m)
            append_border(file, m, entries)

        monkeypatch.setattr(EtaFile, "append_border", counted_border)
        bordered_engine = IncrementalIlpEngine(problem)
        bordered = bordered_engine.solve()
        bordered_rows = len(borders)
        monkeypatch.setattr("repro.ilp.revised._MIN_REFRESH_OPS", 0)
        eager_engine = IncrementalIlpEngine(problem)
        eager = eager_engine.solve()
        assert bordered is not None and eager is not None
        assert bordered.node_key == eager.node_key
        assert bordered.assignment == eager.assignment
        assert bordered.objective_values == eager.objective_values
        counted = ("pivots", "nodes", "eta_entries", "tableau_rows")
        assert {name: getattr(bordered_engine.stats, name) for name in counted} == {
            name: getattr(eager_engine.stats, name) for name in counted
        }
        assert bordered_engine.stats.nodes > 1
        assert bordered_rows > 4  # two freeze rows per later stage, and cuts
        assert bordered_engine.stats.refactorizations < eager_engine.stats.refactorizations


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
        file = EtaFile()
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
            file = EtaFile()
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
        file = EtaFile()
        file.refactor(columns)
        assert any(op[0] == 2 for op in file.ops)
        assert file.den == 1
        # Represented matrix is den * B^{-1} = the same anti-diagonal.
        assert file.ftran([1, 0, 0]) == [0, 0, 1]
        assert file.ftran([0, 1, 0]) == [0, 1, 0]
        assert file.btran([0, 0, 1]) == [1, 0, 0]

    def test_singular_basis_raises(self):
        columns = [[(0, 1), (1, 2)], [(0, 2), (1, 4)]]
        file = EtaFile()
        with pytest.raises(SingularBasisError):
            file.refactor(columns)

    def test_den_mismatch_raises(self):
        file = EtaFile()
        file.den = 7  # drifted caller state: true det of I is 1
        with pytest.raises(FactorizationError, match="denominator"):
            file.refactor([[(0, 1)], [(1, 1)]])

    def test_stale_file_refuses_solves(self):
        file = EtaFile()
        file.mark_stale()
        with pytest.raises(FactorizationError, match="stale"):
            file.ftran([1, 0, 0])
        with pytest.raises(FactorizationError, match="stale"):
            file.btran([1, 0, 0])

    def test_pivot_update_tracks_ground_truth(self):
        # Start from I, pivot column (2, 3) into row 0: B = [[2, 0], [3, 1]].
        file = EtaFile()
        file.append_pivot(0, [2, 3])
        assert file.den == 2
        inverse, det = _dense_inverse_times_den([[2, 3], [0, 1]])
        for k in range(2):
            got = file.ftran([int(i == k) for i in range(2)])
            want = [inverse[i][k] * det for i in range(2)]
            assert [Fraction(x) for x in got] == want

    def test_negate_is_self_transpose(self):
        file = EtaFile()
        file.append_pivot(0, [2, 3])
        file.append_negate(1)
        ftran_image = [file.ftran([int(i == k) for i in range(2)]) for k in range(2)]
        btran_image = [file.btran([int(i == k) for i in range(2)]) for k in range(2)]
        for i in range(2):
            for j in range(2):
                assert ftran_image[j][i] == btran_image[i][j]

    def test_copy_shares_history_but_not_future(self):
        file = EtaFile()
        file.append_pivot(0, [2, 3])
        clone = file.copy()
        clone.append_negate(0)
        assert len(file.ops) == 1
        assert len(clone.ops) == 2
        assert clone.update_ops == file.update_ops + 1


# --------------------------------------------------------------------------- #
# EtaFile walks: the lazily-scaled kernel against the textbook dense passes
# --------------------------------------------------------------------------- #
def ftran_reference(ops, v: list[int], m: int) -> list[int]:
    """Textbook fraction-free FTRAN: dense length-``m`` passes per applied op."""
    for op in ops:
        if op[0] == 0:  # pivot
            _, r, p, den_b, entries = op
            vr = v[r]
            if vr == 0:
                q = p if p > 0 else -p
                if q != den_b:
                    for i in range(m):
                        v[i] = (q * v[i]) // den_b
                continue
            sign = 1 if p > 0 else -1
            for i in range(m):
                v[i] = sign * p * v[i]
            for i, e in entries.items():
                v[i] -= sign * e * vr
            if den_b != 1:
                for i in range(m):
                    v[i] //= den_b
            v[r] = sign * vr
        elif op[0] == 1:  # negate
            v[op[1]] = -v[op[1]]
        elif op[0] == 3:  # border: v[m'] already holds cur * seed[m']
            _, row, entries = op
            v[row] -= sum(e * v[i] for i, e in entries.items())
        else:  # permute, the identity past its length
            v = [v[k] for k in op[1]] + v[len(op[1]):]
    return v


def btran_reference(ops, den: int, vector: list[int], m: int) -> list[int]:
    """Textbook BTRAN: every stored entry of every op multiplied through."""
    u = [den * value for value in vector]
    for op in reversed(ops):
        if op[0] == 0:  # pivot
            _, r, p, den_b, entries = op
            acc = den_b * u[r]
            for i, e in entries.items():
                acc -= e * u[i]
            u[r] = acc // p
        elif op[0] == 1:  # negate
            u[op[1]] = -u[op[1]]
        elif op[0] == 3:  # border
            _, row, entries = op
            for i, e in entries.items():
                u[i] -= e * u[row]
        else:  # permute, the identity past its length
            rows = op[1]
            permuted = [0] * m
            for k in range(m):
                permuted[rows[k] if k < len(rows) else k] = u[k]
            u = permuted
    return u


def _lazy_scale_events(ops, seed: list[int], m: int) -> set[str]:
    """Which regimes of the lazily-scaled FTRAN the pair (*ops*, *seed*) visits.

    Replays the reference one op at a time and tracks, per entry, the
    denominator an applied op last wrote it under — the quantity the kernel
    carries as ``s[i]`` — without looking at the kernel.
    """
    events: set[str] = set()
    v = list(seed)
    written = [1] * m
    cur = 1
    for op in ops:
        if op[0] == 0:
            _, r, p, den_b, entries = op
            q = cur = abs(p)
            if v[r] == 0:
                if q != den_b:
                    events.add("rescale_only")
            else:
                if any(value != den_b for value in written):
                    events.add("applied_in_flight")
                for i in (r, *entries):
                    if written[i] not in (den_b, q) and written[i] != 1:
                        events.add("rewritten_under_new_denominator")
                    written[i] = q
        elif op[0] == 3:
            _, row, entries = op
            if any(v[i] and written[i] != cur for i in (row, *entries)):
                events.add("bordered_in_flight")
            written[row] = cur
        elif op[0] == 2:
            written = [written[k] for k in op[1]] + written[len(op[1]):]
        v = ftran_reference([op], v, m)
    return events


class _BasisWalk:
    """An :class:`EtaFile` and the dense integer basis it must represent."""

    def __init__(self, rng: random.Random, m: int):
        self.rng = rng
        self.m = m
        while True:
            self.columns = [
                [rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(m)]
                for _ in range(m)
            ]
            try:
                _, det = _dense_inverse_times_den(self.columns)
            except AssertionError:
                continue
            break
        self.file = EtaFile()
        self.file.den = int(det)
        self.events: set[str] = set()
        self.pivot_signs: set[int] = set()
        self.refactor()

    def refactor(self) -> None:
        self.file.refactor(
            [[(i, x) for i, x in enumerate(column) if x] for column in self.columns]
        )

    def pivot(self) -> None:
        """Replace one basis column by a random column, through a real FTRAN."""
        rng, m = self.rng, self.m
        while True:
            column = [rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(m)]
            xhat = self.file.ftran(list(column))
            rows = [r for r in range(m) if xhat[r]]
            if rows:
                break
        row = rng.choice(rows)
        self.pivot_signs.add(1 if xhat[row] > 0 else -1)
        self.file.append_pivot(row, xhat)
        self.columns[row] = column

    def negate(self) -> None:
        row = self.rng.randrange(self.m)
        self.file.append_negate(row)
        self.columns[row] = [-x for x in self.columns[row]]

    def border(self) -> None:
        """Append a random row to the basis with a unit slack column basic in it."""
        rng, m = self.rng, self.m
        row = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(m)]
        for column, value in zip(self.columns, row):
            column.append(value)
        self.columns.append([0] * m + [1])
        self.file.append_border(m, {k: value for k, value in enumerate(row) if value})
        self.m = m + 1

    def step(self) -> None:
        choice = self.rng.random()
        if choice < 0.6:
            self.pivot()
        elif choice < 0.78:
            self.negate()
        elif choice < 0.9:
            self.border()
        else:
            self.refactor()

    def seeds(self) -> list[list[int]]:
        rng, m = self.rng, self.m
        sparse = [0] * m
        sparse[rng.randrange(m)] = rng.choice((-2, -1, 1, 3))
        return [[rng.randint(-4, 4) for _ in range(m)], sparse, [0] * m]

    def answers(self, seeds: list[list[int]]) -> list[list[int]]:
        return [
            solve(list(seed))
            for seed in seeds
            for solve in (self.file.ftran, self.file.btran)
        ]

    def check(self) -> None:
        """FTRAN/BTRAN == Fraction inverse == a file refactored from the same
        basis == textbook passes, on three seeds."""
        m, file = self.m, self.file
        inverse, det = _dense_inverse_times_den(self.columns)
        assert file.den == det
        refactored = file.copy()
        refactored.refactor(
            [[(i, x) for i, x in enumerate(column) if x] for column in self.columns]
        )
        for seed in self.seeds():
            forward = file.ftran(list(seed))
            assert forward == [
                det * sum(inverse[i][k] * seed[k] for k in range(m)) for i in range(m)
            ]
            assert forward == ftran_reference(file.ops, list(seed), m)
            assert forward == refactored.ftran(list(seed))
            backward = file.btran(list(seed))
            assert backward == [
                det * sum(inverse[k][i] * seed[k] for k in range(m)) for i in range(m)
            ]
            assert backward == btran_reference(file.ops, file.den, list(seed), m)
            assert backward == refactored.btran(list(seed))
            self.events |= _lazy_scale_events(file.ops, seed, m)


class TestEtaFileWalk:
    def test_seeded_walks_track_ground_truth_through_every_regime(self):
        rng = random.Random(18)
        events: set[str] = set()
        pivot_signs: set[int] = set()
        dets: list[int] = []
        permute_inside = border_behind_permute = False
        for m in (2, 5, 9, 14):
            walk = _BasisWalk(rng, m)
            walk.check()
            for _ in range(45):
                walk.step()
                walk.check()
                kinds = [op[0] for op in walk.file.ops]
                permute_inside |= 2 in kinds[:-1]
                border_behind_permute |= 2 in kinds and 3 in kinds[kinds.index(2):]
            events |= walk.events
            pivot_signs |= walk.pivot_signs
            dets.append(walk.file.den)
        assert pivot_signs == {1, -1}
        assert permute_inside, "no op was ever appended behind a permutation"
        assert border_behind_permute, "no border was ever appended behind a permutation"
        assert max(dets) > 1
        assert events == {
            "rescale_only",
            "applied_in_flight",
            "rewritten_under_new_denominator",
            "bordered_in_flight",
        }

    def test_copy_leaves_the_parent_answering_identically(self):
        rng = random.Random(4)
        walk = _BasisWalk(rng, 7)
        for _ in range(12):
            walk.pivot()
        parent = walk.file
        seeds = walk.seeds()
        before = walk.answers(seeds)
        payloads = [
            (op[:4], dict(op[4])) if op[0] == 0 else op for op in parent.ops
        ]
        walk.file = parent.copy()
        for index in range(10):
            walk.negate() if index == 4 else walk.pivot()
            walk.check()
        assert len(walk.file.ops) == len(parent.ops) + 10
        assert [
            (op[:4], dict(op[4])) if op[0] == 0 else op for op in parent.ops
        ] == payloads
        walk.file = parent
        assert walk.answers(seeds) == before

    @given(seed=st.integers(min_value=0, max_value=2**32), m=st.integers(2, 8))
    @settings(max_examples=25)
    def test_random_walks_track_ground_truth(self, seed, m):
        walk = _BasisWalk(random.Random(seed), m)
        walk.check()
        for _ in range(10):
            walk.step()
            walk.check()


# --------------------------------------------------------------------------- #
# Plumbing: the removed core switch, statistics flow, sparse encoding fast path
# --------------------------------------------------------------------------- #
class TestCoreSelection:
    """There is no core to select: every spelling of the switch is rejected."""

    def test_unknown_core_argument_rejected(self):
        for removed in ({"core": "revised"}, {"workers": 4}, {"processes": True}):
            (name,) = removed
            with pytest.raises(TypeError, match=name):
                SolverOptions(**removed)
            with pytest.raises(ValueError, match=f"unknown solver option.*{name}"):
                SolverOptions.from_dict(removed)
        for removed in ({"core": "revised"}, {"workers": 4}, {"pool": None},
                        {"use_processes": True}):
            (name,) = removed
            with pytest.raises(TypeError, match=name):
                IncrementalIlpEngine(LinearProblem(), **removed)
        for removed in ("pool", "workers", "processes"):
            assert not hasattr(IncrementalIlpEngine(LinearProblem()), removed)

    def test_revised_statistics_flow(self, monkeypatch):
        # A second lexicographic stage appends objective-fixing rows, which
        # border the eta file: the whole solve re-inverts nothing.
        problem = _branching_heavy()
        problem.add_objective({"x0": -1, "x4": 1})
        engine = IncrementalIlpEngine(problem)
        assert engine.solve() is not None
        stats = engine.stats.as_dict()
        assert stats["refactorizations"] == 0
        assert stats["basis_nnz"] == 0
        assert stats["refactor_seconds"] == 0.0
        assert stats["eta_entries"] > 0
        # Under a forced threshold the refactorisation counters flow.
        monkeypatch.setattr("repro.ilp.revised._MIN_REFRESH_OPS", 0)
        engine = IncrementalIlpEngine(problem)
        assert engine.solve() is not None
        forced = engine.stats.as_dict()
        assert forced["refactorizations"] >= 1
        assert forced["basis_nnz"] > 0
        assert forced["refactor_seconds"] > 0.0
        assert forced["eta_entries"] == stats["eta_entries"]

    def test_integer_rows_never_take_the_dense_detour(self):
        # Base rows are encoded by walking their non-zero terms, as every
        # other row is: no dense encoding exists in the production modules
        # (CI's "One integer ILP" lint), and no upper bound becomes a row.
        rng = random.Random(4)
        problems = [_random_problem(rng) for _ in range(5)]
        engines = [IncrementalIlpEngine(problem) for problem in problems]
        for engine, problem in zip(engines, problems):
            assert len(engine._base_rows()) == len(problem.constraints)
            engine.solve()
            assert engine.stats.tableau_rows == len(problem.constraints)
            assert not {"sparse_encoded_rows", "dense_encode_rows"} & set(engine.stats.as_dict())

    def test_fractional_rows_take_the_integer_path(self):
        from repro.ilp.backend import ExactSimplexBackend

        for build, base_rows, points in _FRACTIONAL_FIXTURES:
            problem = build()
            engine = IncrementalIlpEngine(problem)
            # Scaled by the common denominator, then the same walk over the
            # non-zero terms: the primitive rows the dense Fraction encoding
            # produced at 34641b6, to the bit.
            assert [
                (pairs, sense.value, rhs) for pairs, sense, rhs in engine._base_rows()
            ] == base_rows, build.__name__
            expected = min(
                tuple(
                    sum(value * point[name] for name, value in objective.items())
                    for objective in problem.objectives
                )
                for point in points
                if problem.is_feasible_assignment(point)
            )
            solution = engine.solve()
            reference = solve_lexicographic(problem, backend=ExactSimplexBackend())
            assert tuple(solution.objective_values) == expected, build.__name__
            assert tuple(reference.objective_values) == expected, build.__name__
            assert problem.is_feasible_assignment(solution.assignment)
            assert solution.objective_values == IncrementalIlpEngine(problem).solve().objective_values


class TestRevisedTableauMechanics:
    def test_copy_is_shallow_and_independent(self):
        tableau = _RevisedTableau(
            [(((0, 1), (2, 1)), 4), (((1, 1), (3, 1)), 5)],
            basis=[2, 3],
            n_columns=4,
            stats=EngineStatistics(),
            spans=[7, 7, None, None],
        )
        tableau.add_le_row(((0, 1), (2, 1)), 9)
        parent_ops = list(tableau.file.ops)
        payloads = [dict(op[2]) for op in parent_ops]
        clone = tableau.copy()
        clone.add_le_row(((0, 1), (1, 1), (4, 2)), 6)
        assert len(tableau.rows) == 3
        assert len(clone.rows) == 4
        # The clone grows its own file by one border (over basis positions:
        # the basic slacks 2 and 4 sit in rows 0 and 2); the parent's file is
        # untouched, operations and payloads alike.
        assert tableau.file.stale is False
        assert clone.file.stale is False
        assert clone.file.ops == [*parent_ops, (3, 3, {2: 2})]
        assert tableau.file.ops == parent_ops
        assert [dict(op[2]) for op in tableau.file.ops] == payloads
        # Copy-on-write column index: the parent's entry lists are untouched.
        assert all(len(entries) <= 2 for entries in tableau.cols)

    def test_free_variables_and_cuts_through_the_revised_core(self):
        # Free variables split into column pairs and branch & bound adds GE
        # cuts as add_le_row on negated coefficients: both paths must agree
        # with the reference solver.
        problem = LinearProblem()
        problem.add_variable("x", None, None)
        problem.add_variable("y", 0, 6)
        problem.add_constraint({"x": 2, "y": 3}, ">=", 7)
        problem.add_constraint({"x": 1, "y": -1}, "<=", 2)
        problem.add_objective({"x": 1, "y": 2})
        solution = IncrementalIlpEngine(problem).solve()
        oracle = solve_lexicographic(problem)
        assert solution is not None and oracle is not None
        assert solution.objective_values == oracle.objective_values
        assert problem.is_feasible_assignment(solution.assignment)
