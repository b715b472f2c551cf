"""Evidence that a probe from a kept root gives the cold verdict.

An emptiness probe of a dependence is answered warm: the probe scope keeps one
feasible root per dependence, and each probe copies it, appends its extra rows
and reoptimises with the dual simplex (:meth:`IncrementalIlpEngine.probe`).
The checks, from the cheapest ground truth up:

* hypothesis: on random small boxed polyhedra, ``probe(extra)`` on a kept
  root == ``Polyhedron(space, constraints).is_empty(extra)`` (a root built
  from the normalised polyhedron and dropped) == brute force over the box —
  equalities, redundant rows, trivially true and false extras, and the same
  root probed many times in random order (state leaking between copies of
  the root would show here);
* directed cases for the paths a random draw rarely takes;
* every verdict a compile remembers, re-answered cold;
* every level verdict of dependence analysis — taken from a root it shares
  between access pairs with one base, or from its memory of the run —
  re-answered cold, over the 37 suite kernels.

Run with ``HYPOTHESIS_PROFILE=nightly`` for the deep sweep; the default
profile is derandomised and small enough for tier-1.
"""

from __future__ import annotations

import collections
import functools
import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.deps import compute_dependences
from repro.deps.dependence import SOURCE_SUFFIX, TARGET_SUFFIX, lexicographic_levels
from repro.ilp import LinearProblem
from repro.ilp.encode import StandardFormEncoder
from repro.ilp.problem import ConstraintSense, LinearConstraint
from repro.ilp.engine import IncrementalIlpEngine
from repro.obs import ledger
from repro.pipeline import Session
from repro.polyhedra import AffineConstraint, AffineExpr, Polyhedron, Space
from repro.polyhedra.emptiness import _probe, is_empty_from_root, is_empty_with_root, probe_scope
from repro.suites.deepnest import DEEPNEST_KERNELS, build_deepnest
from repro.suites.polybench import KERNELS, build_kernel
from repro.suites.polymage import POLYMAGE_PIPELINES, build_pipeline


_BOX = 2
_SPACE = Space(("x", "y"), ("N",))
#: Three inequalities to an equality.
_KINDS = (AffineConstraint.greater_equal,) * 3 + (AffineConstraint.equals,)


def _brute_force_empty(constraints) -> bool:
    """No point of ``[-_BOX, _BOX]^3`` satisfies *constraints* (the base boxes it)."""
    names = _SPACE.names
    for values in itertools.product(range(-_BOX, _BOX + 1), repeat=len(names)):
        point = dict(zip(names, map(Fraction, values)))
        if all(constraint.is_satisfied(point) for constraint in constraints):
            return False
    return True


def _satisfies(point, constraints) -> bool:
    exact = {name: Fraction(value) for name, value in point.items()}
    return all(constraint.is_satisfied(exact) for constraint in constraints)


@st.composite
def _rows(draw, max_size: int):
    """Random rows over the space: inequalities and equalities, small data,
    two in three of them over one variable."""
    rows = []
    for _ in range(draw(st.integers(0, max_size))):
        if draw(st.integers(0, 2)):
            # A bound on one variable, which a root keeps as its box: with a
            # coefficient of 2 the bound is rounded onto the integers.
            terms = {draw(st.sampled_from(_SPACE.names)): draw(st.sampled_from((2, -2)))}
        else:
            terms = {
                name: draw(st.integers(-2, 2))
                for name in draw(st.lists(st.sampled_from(_SPACE.names), min_size=1, unique=True))
            }
        expression = AffineExpr(terms, draw(st.integers(-3, 3)))
        rows.append(draw(st.sampled_from(_KINDS))(expression, 0))
    return rows


@st.composite
def _root_and_probes(draw):
    """A boxed polyhedron and a random sequence of extra lists to probe it with."""
    box = [
        constraint
        for name in _SPACE.names
        for constraint in (
            AffineConstraint.greater_equal(AffineExpr.variable(name), -_BOX),
            AffineConstraint.less_equal(AffineExpr.variable(name), _BOX),
        )
    ]
    base = box + draw(_rows(3))
    polyhedron = Polyhedron(_SPACE, tuple(base))
    special = st.sampled_from(
        [
            AffineConstraint.greater_equal(AffineExpr.const(1), 0),  # trivially true
            AffineConstraint.greater_equal(AffineExpr.const(-1), 0),  # trivially false
            AffineConstraint.equals(AffineExpr.const(0), 0),
            AffineConstraint.greater_equal(AffineExpr.variable("x"), -_BOX - 4),  # redundant
            *base,  # a row the root already has
        ]
    )
    extras = []
    for _ in range(draw(st.integers(1, 6))):
        extra = draw(_rows(2))
        for _ in range(draw(st.integers(0, 1))):
            extra.insert(draw(st.integers(0, len(extra))), draw(special))
        extras.append(extra)
    # The same extras again, in another order: the root must not remember them.
    extras += draw(st.permutations(extras))
    return polyhedron, extras


class TestWarmEqualsColdEqualsBruteForce:
    @given(_root_and_probes())
    def test_random_probes_of_one_kept_root(self, case):
        polyhedron, extras = case
        owner = object()
        with ledger() as work, probe_scope():
            warm = [is_empty_from_root(owner, polyhedron, extra) for extra in extras]
        cold = [polyhedron.is_empty(extra) for extra in extras]
        truth = [_brute_force_empty([*polyhedron.constraints, *extra]) for extra in extras]
        assert warm == cold == truth
        # One root for the whole sequence, whatever it was asked.
        assert work["probe_solves"] == len(extras) and work["probe_roots"] == 1
        # A point found is a point of the polyhedron and the extra, boxes included.
        root = None
        for extra, empty in zip(extras, truth):
            point, root = _probe(polyhedron, extra, root)
            assert (point is None) is empty
            if point is not None:
                assert _satisfies(point, [*polyhedron.constraints, *extra])

    @given(_root_and_probes())
    def test_a_root_outside_any_scope_is_not_kept(self, case):
        polyhedron, extras = case
        owner = object()
        with ledger() as work:
            warm = [is_empty_from_root(owner, polyhedron, extra) for extra in extras]
        assert warm == [polyhedron.is_empty(extra) for extra in extras]
        assert work["probe_roots"] == work["probe_solves"] == len(extras)


# --------------------------------------------------------------------------- #
# Directed cases
# --------------------------------------------------------------------------- #
def _engine(*rows) -> IncrementalIlpEngine:
    """An engine over free integers x, y, z and the given (coeffs, sense, rhs) rows."""
    problem = LinearProblem()
    for name in ("x", "y", "z"):
        problem.add_variable(name, None, None)
    for coefficients, sense, rhs in rows:
        problem.add_constraint(coefficients, sense, rhs)
    return IncrementalIlpEngine(problem)


def _extra(coefficients, sense, rhs) -> LinearConstraint:
    return LinearConstraint(coefficients, ConstraintSense(sense), rhs)


class TestProbeDirected:
    def test_integer_empty_base_with_a_feasible_relaxation(self):
        # x = 2y and x = 2z + 1 over |x| <= 3: x even and odd.  The LP
        # relaxation is feasible (x = 1, y = 1/2), so branch & bound has to
        # run below the root — over a bounded x, or it would never end.
        engine = _engine(
            ({"x": 1, "y": -2}, "==", 0),
            ({"x": 1, "z": -2}, "==", 1),
            ({"x": 1}, ">=", -3),
            ({"x": 1}, "<=", 3),
        )
        assert engine.probe() is None
        assert engine.stats.roots == 1 and engine.stats.nodes > 1
        assert engine.probe([_extra({"x": 1}, ">=", 0)]) is None
        assert engine.stats.roots == 0 and engine.stats.nodes > 1

    def test_extras_that_make_the_lp_infeasible(self):
        engine = _engine(({"x": 1}, ">=", 0), ({"x": 1}, "<=", 5))
        assert engine.probe() is not None
        assert engine.probe([_extra({"x": 1}, ">=", 7)]) is None
        # Decided by the dual simplex on the copy: no node was solved.
        assert engine.stats.nodes == 0 and engine.stats.roots == 0
        # ... and the root is untouched by it.
        assert engine.probe([_extra({"x": 1}, "==", 5)])["x"] == 5

    def test_an_extra_that_needs_a_cut_row_on_a_split_variable(self, monkeypatch):
        cuts = []
        original = StandardFormEncoder.cut_row

        def counting(encoder, name, *args):
            cuts.append(name)
            return original(encoder, name, *args)

        monkeypatch.setattr(StandardFormEncoder, "cut_row", counting)
        engine = _engine(({"x": 1, "y": -2}, "==", 0))
        # x >= 1 puts the LP at x = 1, y = 1/2: y is free (split), so the
        # branch on it is an explicit cut row, and the leaf is x = 2, y = 1.
        point = engine.probe([_extra({"x": 1}, ">=", 1)])
        assert point is not None and point["x"] == 2 * point["y"] and point["x"] >= 1
        assert "y" in cuts
        assert engine.probe([_extra({"x": 1}, "==", 1)]) is None
        assert engine.probe([_extra({"x": 1}, "==", 4)]) == {"x": 4, "y": 2, "z": 0}

    def test_an_empty_base_answers_every_probe_empty(self):
        engine = _engine(({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0))
        assert engine.probe() is None
        assert engine.stats.roots == 1
        for extra in ([], [_extra({"y": 1}, ">=", 0)], [_extra({"x": 1}, "==", 0)]):
            assert engine.probe(extra) is None
            assert engine.stats.roots == 0 and engine.stats.pivots == 0

    def test_an_extra_over_a_name_outside_the_space_raises(self):
        engine = _engine(({"x": 1}, ">=", 0))
        with pytest.raises(ValueError, match="unknown"):
            engine.probe([_extra({"w": 1}, ">=", 0)])
        # Through the emptiness layer, warm or cold, the same.
        x, w = AffineExpr.variable("x"), AffineExpr.variable("w")
        polyhedron = Polyhedron(_SPACE, (AffineConstraint.greater_equal(x, 0),))
        outside = [AffineConstraint.greater_equal(w, 0)]
        with probe_scope(), pytest.raises(ValueError, match="unknown"):
            is_empty_from_root(polyhedron, polyhedron, outside)
        with pytest.raises(ValueError, match="unknown"):
            polyhedron.is_empty(outside)


def _ge(terms, constant) -> AffineConstraint:
    """``sum(terms) + constant >= 0``."""
    return AffineConstraint.greater_equal(AffineExpr(terms, constant), 0)


def _eq(terms, constant) -> AffineConstraint:
    return AffineConstraint.equals(AffineExpr(terms, constant), 0)


#: ``y`` and ``N`` boxed into the brute-force box, so only ``x`` is at issue.
_YN_BOX = (_ge({"y": 1}, _BOX), _ge({"y": -1}, _BOX), _ge({"N": 1}, _BOX), _ge({"N": -1}, _BOX))


def _verdicts(polyhedron, extras) -> tuple[list[bool], dict]:
    """Warm verdicts of *extras* on one kept root, checked against the cold
    path and brute force, and the work they took."""
    owner = object()
    with ledger() as work, probe_scope():
        warm = [is_empty_from_root(owner, polyhedron, extra) for extra in extras]
    cold = [polyhedron.is_empty(extra) for extra in extras]
    truth = [_brute_force_empty([*polyhedron.constraints, *extra]) for extra in extras]
    assert warm == cold == truth
    return warm, work


class TestRootBoxes:
    """A root keeps each one-variable inequality as a bound of its variable."""

    def test_a_rounded_bound_pair_with_no_integer_between_is_empty(self):
        # 2x - 3 >= 0 and -2x + 3 >= 0: x = 3/2, so x >= 2 and x <= 1.
        empty = Polyhedron(_SPACE, (_ge({"x": 2}, -3), _ge({"x": -2}, 3), *_YN_BOX))
        assert _verdicts(empty, [[], [_ge({"y": 1}, 0)]])[0] == [True, True]
        # 2x - 3 >= 0 and -2x + 5 >= 0: x >= 2 and x <= 2.
        single = Polyhedron(_SPACE, (_ge({"x": 2}, -3), _ge({"x": -2}, 5), *_YN_BOX))
        verdicts, _ = _verdicts(single, [[], [_eq({"x": 1}, -2)], [_ge({"x": 1}, -3)]])
        assert verdicts == [False, False, True]
        _, root = is_empty_with_root(single, ())
        assert (root.problem.variables["x"].lower, root.problem.variables["x"].upper) == (2, 2)

    def test_crossing_bounds_stay_rows_and_cost_one_root_and_one_solve(self):
        polyhedron = Polyhedron(_SPACE, (_ge({"x": 1}, -2), _ge({"x": -1}, 1), *_YN_BOX))
        verdicts, work = _verdicts(polyhedron, [[]])
        assert verdicts == [True]
        assert work["probe_roots"] == 1 and work["probe_solves"] == 1
        # No known-empty shortcut: the two rows reach phase 1 over a split x.
        empty, root = is_empty_with_root(polyhedron, ())
        x = root.problem.variables["x"]
        assert empty and (x.lower, x.upper) == (None, None)
        assert [c.variables() for c in root.problem.constraints] == [{"x"}, {"x"}]

    def test_the_tightest_of_several_bounds_is_kept(self):
        rows = (
            _ge({"x": 1}, 1),  # x >= -1
            _ge({"x": 2}, -1),  # x >= 1 (1/2 rounded up)
            _ge({"x": -1}, 2),  # x <= 2
            _ge({"x": -2}, 7),  # x <= 3 (7/2 rounded down)
            *_YN_BOX,
        )
        polyhedron = Polyhedron(_SPACE, rows)
        verdicts, _ = _verdicts(
            polyhedron, [[_eq({"x": 1}, 0)], [_eq({"x": 1}, -1)], [_eq({"x": 1}, -3)]]
        )
        assert verdicts == [True, False, True]
        _, root = is_empty_with_root(polyhedron, ())
        x = root.problem.variables["x"]
        assert (x.lower, x.upper) == (1, 2)
        assert not root.problem.constraints

    def test_a_parameter_only_row_is_the_parameter_box(self):
        # N - 1 >= 0, beside a row over two dimensions that stays a row.
        polyhedron = Polyhedron(
            _SPACE, (_ge({"N": 1}, -1), _ge({"N": 1, "x": -1}, 0), _ge({"x": 1}, 0))
        )
        verdicts, _ = _verdicts(polyhedron, [[_ge({"N": -1}, 0)], [_eq({"N": 1, "x": 1}, -2)]])
        assert verdicts == [True, False]
        _, root = is_empty_with_root(polyhedron, ())
        assert root.problem.variables["N"].lower == 1
        assert [c.variables() for c in root.problem.constraints] == [{"N", "x"}]

    def test_a_root_of_lower_bounded_boxes_has_no_rows(self):
        # Every row bounds one variable and every variable is bounded below
        # (y only from below), so the root tableau is empty: a probe's extra
        # rows are its only rows.
        rows = (_ge({"x": 1}, 2), _ge({"x": -1}, 2), _ge({"y": 1}, 0), _ge({"N": 1}, -1),
                _ge({"N": -1}, 2))
        polyhedron = Polyhedron(_SPACE, rows)
        extras = [[], [_ge({"x": -1, "y": -1}, -3)], [_eq({"x": 1, "y": 1, "N": 1}, -3)]]
        verdicts, work = _verdicts(polyhedron, extras)
        assert verdicts == [False, True, False]
        assert work["probe_roots"] == 1 and work["probe_tableau_rows"] == 0
        _, root = is_empty_with_root(polyhedron, ())
        assert not root.problem.constraints


# --------------------------------------------------------------------------- #
# Every remembered verdict of a compile, re-answered cold
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel", ["gemm", "cholesky", "jacobi-2d"])
def test_every_remembered_verdict_equals_a_cold_probe(kernel):
    result = Session(machine="Intel1").compile(build_kernel(kernel))
    asked = 0
    for dependence in result.dependences:
        for key, verdict in (dependence._memo or {}).items():
            if key[0] != "empty":
                continue
            asked += 1
            cold = Polyhedron(
                dependence.polyhedron.space, dependence.polyhedron.constraints
            ).is_empty(key[1:])
            assert verdict is cold, (str(dependence), [str(c) for c in key[1:]])
    assert asked > 0


# --------------------------------------------------------------------------- #
# Every level verdict of dependence analysis, re-answered cold
# --------------------------------------------------------------------------- #
def _suite_scops() -> dict[str, object]:
    """The 37 suite kernels: PolyBench, the deep nests and the PolyMage pipelines."""
    builders = {name: functools.partial(build_kernel, name) for name in KERNELS}
    builders.update({name: functools.partial(build_deepnest, name) for name in DEEPNEST_KERNELS})
    builders.update({name: functools.partial(build_pipeline, name) for name in POLYMAGE_PIPELINES})
    return builders


def _cold_levels(scop) -> collections.Counter:
    """(source, target, source access, target access, depth) of every level a
    cold probe of its candidate — the access pair's base and the level's extra
    constraints, normalised together on a root of their own — finds non-empty."""
    found: collections.Counter = collections.Counter()
    for source, target in itertools.product(scop.statements, repeat=2):
        source_map = {name: name + SOURCE_SUFFIX for name in source.iterators}
        target_map = {name: name + TARGET_SUFFIX for name in target.iterators}
        space = Space((*source_map.values(), *target_map.values()), scop.parameters)
        for source_access, target_access in itertools.product(source.accesses, target.accesses):
            if source_access.array != target_access.array or not (
                source_access.is_write or target_access.is_write
            ):
                continue
            base = Polyhedron.from_constraints(
                space,
                [
                    *(c.rename(source_map) for c in source.domain.constraints),
                    *(c.rename(target_map) for c in target.domain.constraints),
                    *scop.context,
                    *(
                        AffineConstraint.equals(s.rename(source_map), t.rename(target_map))
                        for s, t in zip(source_access.indices, target_access.indices)
                    ),
                ],
            )
            levels = lexicographic_levels(
                source.original_schedule, target.original_schedule, source_map, target_map, 1
            )
            for depth, extra in enumerate(levels):
                if extra is not None and not base.add_constraints(extra).is_empty():
                    found[source.name, target.name, source_access, target_access, depth] += 1
    return found


@pytest.mark.parametrize("kernel", sorted(_suite_scops()))
def test_every_level_verdict_of_the_analysis_equals_a_cold_probe(kernel):
    """A level is a dependence exactly when its candidate, asked cold, is
    non-empty: so every verdict the analysis took from a root it shared
    between access pairs, or from its memory of the run, is the cold one."""
    scop = _suite_scops()[kernel]()
    dependences = compute_dependences(scop)
    analysed = collections.Counter(
        (d.source, d.target, d.source_access, d.target_access, d.depth) for d in dependences
    )
    assert analysed == _cold_levels(scop)
