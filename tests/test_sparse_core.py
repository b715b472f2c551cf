"""Differential suite for the sparse polyhedral core.

Three layers of defence:

* a **hypothesis differential**: on random constraint systems the sparse
  pruning Fourier–Motzkin core and the textbook dense reference (called
  directly: ``constraints_to_rows`` / ``eliminate_columns`` /
  ``rows_to_constraints``, ``farkas_nonnegative_reference``) must describe
  the *same feasible set* — every row of one result is implied by the other
  system, certified by integer emptiness checks through the ILP engine.
  Because the dense reference performs no subsumption/Imbert pruning,
  ``sparse ⊨ dense`` simultaneously proves every pruned row redundant;
* a **golden drift check** on the new deep-nest kernels
  (``tests/golden/deepnest_schedules.json``; regenerate with
  ``PYTHONPATH=src python tests/golden/regenerate_deepnest.py`` only for an
  intended change);
* **regression pins**: the incremental dense simplification must only scan
  rows an elimination step touched (the historical full rescan is the bug
  the pin guards against), and dependence analysis must share one root per
  distinct base and remember the verdicts asked of it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.analysis import compute_dependences
from repro.ilp.problem import ConstraintSense, LinearProblem
from repro.ilp.engine import IncrementalIlpEngine
from repro.linalg.sparse import SparseRow
from repro.model import ScopBuilder
from repro.obs import ledger
from repro.polyhedra.affine import AffineExpr
from repro.polyhedra.constraint import AffineConstraint, ConstraintKind
from repro.polyhedra.farkas import farkas_nonnegative, farkas_nonnegative_reference
from repro.polyhedra.fourier_motzkin import (
    constraints_to_rows,
    eliminate_columns,
    eliminate_variables,
    rows_to_constraints,
    simplify_rows,
)
from repro.polyhedra.polyhedron import Polyhedron
from repro.polyhedra.space import Space
from repro.polyhedra.sparse_fm import FmStatistics, SparseSystem
from repro.linalg.varspace import VariableSpace
from repro.suites.polybench import build_kernel

from test_golden_schedules import pinned_solver_counters, scheduling_outcome  # tests/ is on sys.path

DEEPNEST_GOLDEN_PATH = Path(__file__).parent / "golden" / "deepnest_schedules.json"

VARIABLES = ("x0", "x1", "x2", "x3", "x4")
#: What dependence analysis counts per level asked: the level, and how it was answered.
_LEVEL_COUNTERS = ("emptiness_probes", "probe_solves", "probe_roots", "probe_verdicts_reused")


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _eliminate_variables_dense(
    constraints: list[AffineConstraint], names: list[str]
) -> list[AffineConstraint]:
    """``eliminate_variables`` through the textbook dense reference."""
    space = VariableSpace()
    rows, kinds = constraints_to_rows(constraints, space)
    # Names absent from every constraint are already eliminated; interning
    # them would alias the constant column of the rows built above.
    columns = [
        column
        for column in (space.get(name) for name in names)
        if column is not None
    ]
    if columns:
        rows, kinds = eliminate_columns(rows, kinds, columns)
    else:
        rows, kinds = simplify_rows(rows, kinds)
    return rows_to_constraints(rows, kinds, space)


def _constraints_from_spec(spec) -> list[AffineConstraint]:
    constraints = []
    for coefficients, constant, is_equality in spec:
        cleaned = {
            name: Fraction(value) for name, value in coefficients.items() if value
        }
        if not cleaned:
            continue
        constraints.append(
            AffineConstraint(
                AffineExpr(cleaned, Fraction(constant)),
                ConstraintKind.EQUALITY if is_equality else ConstraintKind.INEQUALITY,
            )
        )
    return constraints


def _system_with_extra_is_empty(
    constraints: list[AffineConstraint], extra: list[AffineConstraint]
) -> bool:
    """Integer emptiness of ``constraints ∧ extra`` through the ILP engine."""
    names = sorted(
        {
            name
            for constraint in constraints + extra
            for name in constraint.expression.coefficients
        }
    )
    if not names:
        # Constant-only system: decide by inspection (the ILP layer needs at
        # least one variable).
        for constraint in constraints + extra:
            constant = constraint.expression.constant
            satisfied = (constant == 0) if constraint.is_equality else (constant >= 0)
            if not satisfied:
                return True
        return False
    problem = LinearProblem()
    for name in names:
        problem.add_variable(name, lower=None, upper=None)
    for constraint in constraints + extra:
        problem.add_constraint(
            dict(constraint.expression.coefficients),
            ConstraintSense.EQ if constraint.is_equality else ConstraintSense.GE,
            -constraint.expression.constant,
        )
    return IncrementalIlpEngine(problem).solve() is None


def _implies(system: list[AffineConstraint], row: AffineConstraint) -> bool:
    """True when every integer point of *system* satisfies *row*."""
    expression = row.expression
    negations = [
        AffineConstraint(
            AffineExpr(
                {name: -value for name, value in expression.coefficients.items()},
                -expression.constant - 1,
            ),
            ConstraintKind.INEQUALITY,
        )
    ]
    if row.is_equality:
        negations.append(
            AffineConstraint(
                AffineExpr(dict(expression.coefficients), expression.constant - 1),
                ConstraintKind.INEQUALITY,
            )
        )
    return all(
        _system_with_extra_is_empty(system, [negation]) for negation in negations
    )


def _mutually_imply(
    first: list[AffineConstraint], second: list[AffineConstraint]
) -> bool:
    return all(_implies(first, row) for row in second) and all(
        _implies(second, row) for row in first
    )


# --------------------------------------------------------------------------- #
# Hypothesis differential: sparse FM == dense FM
# --------------------------------------------------------------------------- #
constraint_spec = st.tuples(
    st.dictionaries(
        st.sampled_from(VARIABLES),
        st.integers(min_value=-3, max_value=3),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
)

system_spec = st.lists(constraint_spec, min_size=2, max_size=8)


@settings(max_examples=40, deadline=None)
@given(
    spec=system_spec,
    eliminate=st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True),
)
def test_sparse_elimination_matches_dense(spec, eliminate):
    constraints = _constraints_from_spec(spec)
    sparse_result = eliminate_variables(constraints, eliminate)
    dense_result = _eliminate_variables_dense(constraints, eliminate)
    # Both cores compute the rational shadow of the same projection; their
    # outputs must describe the same set of integer points.  sparse ⊨ dense
    # also certifies that every row the sparse core pruned (duplicates,
    # subsumed rows, Imbert drops) was redundant.
    assert _mutually_imply(sparse_result, dense_result)


@settings(max_examples=25, deadline=None)
@given(
    spec=st.lists(  # pure inequalities: the Fourier–Motzkin fan-out case
        st.tuples(
            st.dictionaries(
                st.sampled_from(VARIABLES),
                st.integers(min_value=-3, max_value=3),
                min_size=2,
                max_size=4,
            ),
            st.integers(min_value=-5, max_value=5),
            st.just(False),
        ),
        min_size=3,
        max_size=9,
    ),
    eliminate=st.lists(st.sampled_from(VARIABLES), min_size=2, max_size=3, unique=True),
)
def test_sparse_elimination_matches_dense_on_inequality_systems(spec, eliminate):
    constraints = _constraints_from_spec(spec)
    sparse_result = eliminate_variables(constraints, eliminate)
    dense_result = _eliminate_variables_dense(constraints, eliminate)
    assert _mutually_imply(sparse_result, dense_result)


@settings(max_examples=20, deadline=None)
@given(
    spec=st.lists(constraint_spec, min_size=1, max_size=5),
    data=st.data(),
)
def test_sparse_farkas_matches_dense(spec, data):
    constraints = _constraints_from_spec(spec)
    space = Space(("i", "j"), ("N",))
    renames = dict(zip(VARIABLES, ("i", "j", "N", "i", "j")))
    renamed = []
    for constraint in constraints:
        coefficients: dict[str, Fraction] = {}
        for name, value in constraint.expression.coefficients.items():
            target = renames[name]
            coefficients[target] = coefficients.get(target, Fraction(0)) + value
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        renamed.append(
            AffineConstraint(
                AffineExpr(coefficients, constraint.expression.constant),
                constraint.kind,
            )
        )
    polyhedron = Polyhedron(space, tuple(renamed))
    templates = {
        "i": {"a": Fraction(data.draw(st.integers(-2, 2), label="ti"))},
        "j": {"a": Fraction(1), "b": Fraction(data.draw(st.integers(-2, 2), label="tj"))},
    }
    constant = {"c": Fraction(1)}
    sparse_rows = farkas_nonnegative(polyhedron, templates, constant)
    dense_rows = farkas_nonnegative_reference(polyhedron, templates, constant)

    def as_constraints(rows):
        return [
            AffineConstraint(
                AffineExpr(dict(row.coefficients), -row.rhs),
                ConstraintKind.EQUALITY
                if row.sense is ConstraintSense.EQ
                else ConstraintKind.INEQUALITY,
            )
            for row in rows
        ]

    assert _mutually_imply(as_constraints(sparse_rows), as_constraints(dense_rows))


# --------------------------------------------------------------------------- #
# SparseRow / SparseSystem units
# --------------------------------------------------------------------------- #
class TestSparseRow:
    def test_dense_roundtrip_reduces_gcd(self):
        row = SparseRow.from_dense([4, 0, -6, 10])
        assert row.terms == ((0, 2), (2, -3))
        assert row.constant == 5
        assert row.to_dense(3) == [2, 0, -3, 5]

    def test_combine_merges_and_cancels(self):
        first = SparseRow.from_pairs([(0, 1), (2, 3)], 1)
        second = SparseRow.from_pairs([(0, -1), (1, 2)], 1)
        combined = SparseRow.combine(1, first, 1, second)
        assert combined.terms == ((1, 2), (2, 3))
        assert combined.constant == 2

    def test_scalar_multiples_are_identical(self):
        assert SparseRow.from_dense([2, 4, 6]) == SparseRow.from_dense([1, 2, 3])

    def test_rational_terms_clear_denominators(self):
        row = SparseRow.from_rational_terms({0: Fraction(1, 2), 1: Fraction(1, 3)}, 1)
        assert row.terms == ((0, 3), (1, 2))
        assert row.constant == 6


class TestSparseSystemPruning:
    def test_subsumed_inequality_is_dropped(self):
        system = SparseSystem.from_rows(
            [
                SparseRow.from_pairs([(0, 1)], 0),  # x >= 0 (stronger)
                SparseRow.from_pairs([(0, 1)], 5),  # x >= -5 (weaker)
            ],
            [False, False],
        )
        live = system.rows()
        assert len(live) == 1
        assert live[0][0].constant == 0

    def test_stronger_late_arrival_replaces_weaker(self):
        system = SparseSystem.from_rows(
            [
                SparseRow.from_pairs([(0, 1)], 5),
                SparseRow.from_pairs([(0, 1)], 0),
            ],
            [False, False],
        )
        live = system.rows()
        assert len(live) == 1
        assert live[0][0].constant == 0

    def test_duplicate_equalities_collapse_either_sign(self):
        system = SparseSystem.from_rows(
            [
                SparseRow.from_pairs([(0, 1), (1, -1)], 0),
                SparseRow.from_pairs([(0, -1), (1, 1)], 0),
            ],
            [True, True],
        )
        assert len(system.rows()) == 1

    def test_imbert_prunes_on_fanout_projection(self):
        # A dense octagon-style system in 3 variables: eliminating two of
        # them fans out enough combinations that Imbert's bound must fire.
        stats = FmStatistics()
        rows = []
        values = [1, -1, 2, -2, 3, -3]
        for a in values:
            for b in values:
                rows.append(SparseRow.from_pairs([(0, a), (1, b), (2, 1)], 7))
                rows.append(SparseRow.from_pairs([(0, b), (1, a), (2, -1)], 9))
        system = SparseSystem.from_rows(rows, [False] * len(rows), stats=stats)
        system.eliminate_columns([0, 1])
        assert stats.rows_pruned_imbert > 0


# --------------------------------------------------------------------------- #
# Incremental simplification (satellite fix regression pin)
# --------------------------------------------------------------------------- #
def _box_rows(n_vars: int, width: int) -> tuple[list[list[int]], list[bool]]:
    constraints = []
    names = [f"x{i}" for i in range(n_vars)]
    for index, name in enumerate(names):
        constraints.append(
            AffineConstraint(
                AffineExpr({name: Fraction(1)}, Fraction(0)), ConstraintKind.INEQUALITY
            )
        )
        constraints.append(
            AffineConstraint(
                AffineExpr({name: Fraction(-1)}, Fraction(width + index)),
                ConstraintKind.INEQUALITY,
            )
        )
    space = VariableSpace()
    return constraints_to_rows(constraints, space)


def test_dense_simplify_is_incremental_over_touched_rows():
    """Eliminating k columns must not re-scan the rows a step left untouched.

    With 8 box variables (16 rows), each eliminated column touches its 2
    bound rows and produces 1 combination (a trivially-true constant row,
    dropped on sight).  The historical implementation re-scanned every
    surviving row after every step (15 + 13 + 11 = 39 scans here); the
    incremental path scans each row once on first sight (15 at the first
    step) plus each newly combined row once (1 per later step).
    """
    rows, kinds = _box_rows(8, 10)
    stats = FmStatistics()
    out_rows, out_kinds = eliminate_columns(rows, kinds, [0, 1, 2], stats=stats)
    assert stats.simplify_row_scans == 17, stats
    assert len(out_rows) == 10  # the bounds of the 5 surviving variables
    assert all(not kind for kind in out_kinds)


def test_dense_incremental_matches_one_shot_simplify():
    rows, kinds = _box_rows(5, 4)
    incremental = eliminate_columns(
        [list(row) for row in rows], list(kinds), [0, 2]
    )
    # The one-column public path simplifies from scratch every call; chaining
    # it must agree with the incremental multi-column path.
    from repro.polyhedra.fourier_motzkin import eliminate_column

    step_rows, step_kinds = eliminate_column(
        [list(row) for row in rows], list(kinds), 0
    )
    step_rows, step_kinds = eliminate_column(step_rows, step_kinds, 2)
    assert incremental == (step_rows, step_kinds)


# --------------------------------------------------------------------------- #
# Dependence analysis: one root per distinct base, verdicts remembered
# --------------------------------------------------------------------------- #
def test_access_pairs_with_one_base_share_its_root_and_verdicts():
    """``A[i] += 1`` inside ``for i, for j``: the output, flow and anti pairs of
    the statement with itself have one base (``i__src == i__tgt``), so its two
    open levels are solved once, on one root, and remembered for the others."""
    builder = ScopBuilder("accumulate", parameters={"N": 4})
    n = builder.parameter("N")
    builder.array("A", n)
    with builder.loop("i", 0, n) as i, builder.loop("j", 0, n):
        builder.statement(writes=[("A", [i])], reads=[("A", [i])])
    with ledger() as work:
        dependences = compute_dependences(builder.build())
    # Level i (``i__tgt - i__src >= 1``) is empty under the base; level j is not.
    assert sorted((d.kind.value, d.depth) for d in dependences) == [
        ("RAW", 3), ("WAR", 3), ("WAW", 3)
    ]
    counters = {k: v for k, v in work.items() if k in _LEVEL_COUNTERS}
    assert counters == {
        "emptiness_probes": 6,
        "probe_solves": 2,
        "probe_roots": 1,
        "probe_verdicts_reused": 4,
    }


def test_dependence_analysis_shares_roots_by_base():
    statistics: dict = {}
    assert compute_dependences(build_kernel("jacobi-1d"), probe_statistics=statistics)
    # 22 levels the constant schedule rows leave open, over 8 distinct bases:
    # 13 solved on those 8 roots, 9 remembered.  Exact (a deterministic run);
    # on an intended change, paste the new numbers.
    counters = {k: v for k, v in statistics.items() if k in _LEVEL_COUNTERS}
    assert counters == {
        "emptiness_probes": 22,
        "probe_solves": 13,
        "probe_roots": 8,
        "probe_verdicts_reused": 9,
    }
    # ... and what the 13 cost is reported beside them.
    assert statistics["probe_pivots"] > 0


# --------------------------------------------------------------------------- #
# Golden drift check on the deep-nest kernels
# --------------------------------------------------------------------------- #
def capture_deepnest_corpus() -> dict:
    """Schedule rows and outcome of the deep-nest kernels under the paper's strategies."""
    from repro.scheduler.core import PolyTOPSScheduler
    from repro.scheduler.strategies import isl_style, pluto_style
    from repro.suites.deepnest import DEEPNEST_KERNELS, build_deepnest
    from repro.suites.polymage import build_pipeline

    cases = {
        "heat-4d": (pluto_style(), isl_style()),
        "tc-4d": (pluto_style(), isl_style()),
        "tc-5d": (pluto_style(), isl_style()),
        "tc-6d": (pluto_style(), isl_style()),
        "sumred-4d": (pluto_style(),),
        "jacobi-4d": (pluto_style(),),
        "polymage-deep": (pluto_style(), isl_style()),
        "harris": (pluto_style(),),
        # The deep B&B tree: 568 nodes on the exact bound, 8 on the rounded one.
        "pyramid-blending": (pluto_style(),),
    }
    corpus: dict[str, dict] = {}
    for kernel, configs in cases.items():
        for config in configs:
            scop = (
                build_deepnest(kernel) if kernel in DEEPNEST_KERNELS else build_pipeline(kernel)
            )
            result = PolyTOPSScheduler(scop, config).schedule()
            corpus[f"{kernel}/{config.name}"] = {
                **scheduling_outcome(result),
                "statements": {
                    name: [str(row) for row in statement.rows]
                    for name, statement in result.schedule.statements.items()
                },
                # Exact work counters (harris: bases up to 186 rows).
                "solver": pinned_solver_counters(result),
            }
    return corpus


def test_deepnest_schedules_match_golden_corpus():
    assert DEEPNEST_GOLDEN_PATH.exists(), (
        f"missing golden corpus at {DEEPNEST_GOLDEN_PATH}; generate it with "
        "`PYTHONPATH=src python tests/golden/regenerate_deepnest.py`"
    )
    golden = json.loads(DEEPNEST_GOLDEN_PATH.read_text())
    current = capture_deepnest_corpus()
    assert sorted(current) == sorted(golden), "deep-nest golden case list drifted"
    for case, expected in golden.items():
        assert current[case] == expected, (
            f"schedule drift on {case}: if intended, regenerate with "
            "`PYTHONPATH=src python tests/golden/regenerate_deepnest.py` and "
            "review the diff"
        )
