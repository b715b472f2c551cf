"""Unit and property tests for affine expressions, polyhedra, projection and Farkas."""

from __future__ import annotations

import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.sparse import SparseRow
from repro.linalg.varspace import VariableSpace
from repro.pipeline.serialize import decode_polyhedron, encode_polyhedron
from repro.polyhedra import (
    CONSTANT_KEY,
    AffineConstraint,
    AffineExpr,
    ConstraintKind,
    Polyhedron,
    Space,
    farkas_nonnegative,
    simplify_constraints,
)
from repro.polyhedra.fourier_motzkin import constraints_to_rows, simplify_rows


def _box(names, lows, highs, parameters=()):
    constraints = []
    for name, low, high in zip(names, lows, highs):
        variable = AffineExpr.variable(name)
        constraints.append(AffineConstraint.greater_equal(variable, low))
        constraints.append(AffineConstraint.less_equal(variable, high))
    return Polyhedron.from_constraints(Space(tuple(names), tuple(parameters)), constraints)


class TestAffineExpr:
    def test_variable_and_constant(self):
        expr = AffineExpr.variable("i") + 3
        assert expr.coefficient("i") == 1
        assert expr.constant == 3

    def test_algebra(self):
        i, j = AffineExpr.variable("i"), AffineExpr.variable("j")
        expr = 2 * i - j + 5
        assert expr.coefficient("i") == 2
        assert expr.coefficient("j") == -1
        assert expr.constant == 5
        assert expr - expr == AffineExpr.const(0)

    def test_zero_coefficients_removed(self):
        i = AffineExpr.variable("i")
        assert "i" not in (i - i).coefficients

    def test_substitute(self):
        i, n = AffineExpr.variable("i"), AffineExpr.variable("N")
        expr = 2 * i + 1
        substituted = expr.substitute({"i": n - 1})
        assert substituted == 2 * n - 1

    def test_rename(self):
        expr = AffineExpr.variable("i") + AffineExpr.variable("j")
        renamed = expr.rename({"i": "x"})
        assert renamed.coefficient("x") == 1 and renamed.coefficient("j") == 1

    def test_evaluate(self):
        expr = 3 * AffineExpr.variable("i") - 2
        assert expr.evaluate({"i": 4}) == 10

    def test_evaluate_missing_dimension(self):
        with pytest.raises(KeyError):
            AffineExpr.variable("i").evaluate({})

    def test_as_dict_includes_constant(self):
        expr = AffineExpr.variable("i") + 7
        assert expr.as_dict() == {"i": Fraction(1), CONSTANT_KEY: Fraction(7)}

    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_evaluation_is_linear(self, a, b, point):
        i = AffineExpr.variable("i")
        left = (a * i + b).evaluate({"i": point})
        assert left == a * point + b


class TestConstraints:
    def test_greater_equal_normalisation(self):
        i = AffineExpr.variable("i")
        constraint = AffineConstraint.greater_equal(i, 3)
        assert constraint.is_satisfied({"i": 3})
        assert not constraint.is_satisfied({"i": 2})

    def test_less_equal(self):
        i = AffineExpr.variable("i")
        constraint = AffineConstraint.less_equal(i, 3)
        assert constraint.is_satisfied({"i": 3})
        assert not constraint.is_satisfied({"i": 4})

    def test_equality(self):
        i = AffineExpr.variable("i")
        constraint = AffineConstraint.equals(2 * i, 4)
        assert constraint.is_satisfied({"i": 2})
        assert not constraint.is_satisfied({"i": 1})

    def test_trivial_detection(self):
        assert AffineConstraint.greater_equal(AffineExpr.const(1), 0).is_trivially_true()
        assert AffineConstraint.greater_equal(AffineExpr.const(-1), 0).is_trivially_false()
        assert AffineConstraint.equals(AffineExpr.const(0), 0).is_trivially_true()

    def test_normalized_scales_to_coprime_integers(self):
        constraint = AffineConstraint(AffineExpr({"i": Fraction(2, 4)}, Fraction(1, 2)))
        view = Polyhedron(Space(("i",), ()), (constraint,)).row_view()
        assert view.rows == (SparseRow(((0, 1),), 1),)


class TestFourierMotzkin:
    def test_projection_of_square(self):
        box = _box(["i", "j"], [0, 0], [4, 4])
        result = box.project_onto(["i"])
        assert result.space == Space(("i",), ())
        assert not result.is_empty()
        assert result.contains({"i": 4})
        assert not result.contains({"i": 5})

    def test_equality_substitution(self):
        i, j = AffineExpr.variable("i"), AffineExpr.variable("j")
        constraints = [
            AffineConstraint.equals(j, 2 * i),
            AffineConstraint.less_equal(j, 6),
            AffineConstraint.greater_equal(j, 0),
        ]
        result = Polyhedron.from_constraints(Space(("i", "j"), ()), constraints).project_onto(["i"])
        assert result.contains({"i": 3})
        assert not result.contains({"i": 4})

    def test_simplify_removes_duplicates_and_trivial(self):
        i = AffineExpr.variable("i")
        constraints = [
            AffineConstraint.greater_equal(i, 0),
            AffineConstraint.greater_equal(2 * i, 0),
            AffineConstraint.greater_equal(AffineExpr.const(3), 0),
        ]
        assert len(simplify_constraints(constraints)) == 1

    @given(
        st.integers(0, 3), st.integers(4, 7), st.integers(0, 3), st.integers(4, 7),
        st.integers(-2, 8), st.integers(-2, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_projection_soundness(self, ilo, ihi, jlo, jhi, i_point, j_point):
        """A point is in the projection iff some j completes it (boxes are exact)."""
        box = _box(["i", "j"], [ilo, jlo], [ihi, jhi])
        projected = box.project_onto(["i"])
        inside_full = box.contains({"i": i_point, "j": j_point})
        if inside_full:
            assert projected.contains({"i": i_point})
        if projected.contains({"i": i_point}):
            assert ilo <= i_point <= ihi


class TestPolyhedron:
    def test_empty_detection(self):
        poly = _box(["i"], [3], [2])
        assert poly.is_empty()

    def test_parametric_emptiness(self):
        space = Space(("i",), ("N",))
        i, n = AffineExpr.variable("i"), AffineExpr.variable("N")
        poly = Polyhedron.from_constraints(
            space,
            [
                AffineConstraint.greater_equal(i, 0),
                AffineConstraint.less_equal(i, n - 1),
                AffineConstraint.greater_equal(n, 1),
            ],
        )
        assert not poly.is_empty()
        assert poly.add_constraints([AffineConstraint.less_equal(n, 0)]).is_empty()

    def test_count_with_parameter_values(self):
        space = Space(("i",), ("N",))
        i, n = AffineExpr.variable("i"), AffineExpr.variable("N")
        poly = Polyhedron.from_constraints(
            space,
            [AffineConstraint.greater_equal(i, 0), AffineConstraint.less_equal(i, n - 1)],
        )
        fixed = poly.fix_dimensions({"N": 7})
        assert fixed.space == Space(("i",), ())
        assert sum(fixed.contains({"i": value}) for value in range(-3, 12)) == 7

    def test_fix_dimensions(self):
        poly = _box(["i", "j"], [0, 0], [4, 4])
        fixed = poly.fix_dimensions({"j": 2})
        assert fixed.space.iterators == ("i",)
        assert fixed.contains({"i": 0})

    def test_project_onto_keeps_parameters(self):
        space = Space(("i", "j"), ("N",))
        i, j, n = (AffineExpr.variable(x) for x in ("i", "j", "N"))
        poly = Polyhedron.from_constraints(
            space,
            [
                AffineConstraint.greater_equal(i, 0),
                AffineConstraint.less_equal(i, n - 1),
                AffineConstraint.greater_equal(j, 0),
                AffineConstraint.less_equal(j, i),
            ],
        )
        projected = poly.project_onto(["j"])
        assert projected.space.parameters == ("N",)
        assert "i" not in projected.space.iterators

    def test_dimension_bounds(self):
        poly = _box(["i"], [1], [7])
        lower, upper = poly.dimension_bounds("i")
        assert lower[0].constant == 1
        assert upper[0].constant == 7

    def test_unknown_dimension_rejected(self):
        space = Space(("i",), ())
        with pytest.raises(ValueError):
            Polyhedron(space, (AffineConstraint.greater_equal(AffineExpr.variable("j"), 0),))


# --------------------------------------------------------------------------- #
# The row view: incremental normal form == from-scratch normal form
# --------------------------------------------------------------------------- #
_VIEW_SPACE = Space(("i", "j", "k", "m"), ("N",))
_VIEW_NAMES = ("i", "j", "k", "N")
_values = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def _constraint(draw, names=_VIEW_NAMES):
    terms = draw(st.dictionaries(st.sampled_from(names), _values, max_size=3))
    kind = draw(st.sampled_from(list(ConstraintKind)))
    return AffineConstraint(AffineExpr(terms, draw(_values)), kind)


@st.composite
def _variant(draw, constraints):
    """A constraint the admission rules must relate to one of *constraints*."""
    if not constraints or draw(st.integers(0, 3)) == 0:
        return draw(_constraint(names=_VIEW_NAMES + ("m",)))  # "m": first seen here
    base = draw(st.sampled_from(constraints))
    scale = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    if base.is_equality and draw(st.booleans()):
        scale = -scale  # the opposite-sign duplicate of an equality
    shift = draw(st.sampled_from([-2, -1, 0, 0, 1, Fraction(1, 3)]))  # looser/tighter
    return AffineConstraint(base.expression * scale + shift, base.kind)


@st.composite
def _two_lists(draw):
    first = draw(st.lists(_constraint(), max_size=6))
    second = draw(st.lists(_variant(first), max_size=5))
    first += draw(st.lists(_variant(first), max_size=2))  # A relates to itself too
    return first, second


def _ordered(constraints):
    """Constraints with their coefficient-key order made comparable."""
    return [(list(c.expression.coefficients), c) for c in constraints]


def _dense_rows(constraints, space):
    """(is_equality, row) keys of the dense reference's simplification."""
    rows, kinds = simplify_rows(*constraints_to_rows(constraints, space))
    return {(kind, tuple(row)) for row, kind in zip(rows, kinds)}


class TestRowView:
    @pytest.mark.parametrize("reference", ["sparse", "dense"])
    @settings(max_examples=150, deadline=None)
    @given(lists=_two_lists())
    def test_incremental_equals_from_scratch(self, reference, lists):
        first, second = lists
        base = Polyhedron.from_constraints(_VIEW_SPACE, first)
        extended = base.add_constraints(second)
        if reference == "dense":
            # The dense reference prunes exact duplicates only: normalising
            # drops rows and sign-canonicalises equalities, never invents one.
            space = VariableSpace()
            given_rows = _dense_rows([*first, *second], space)
            for kind, row in _dense_rows(extended.constraints, space):
                negated = (kind, tuple(-value for value in row))
                assert (kind, row) in given_rows or (kind and negated in given_rows)
            return
        assert _ordered(base.constraints) == _ordered(simplify_constraints(first))
        assert base.add_constraints(()) == base
        scratch = simplify_constraints([*base.constraints, *second])
        assert _ordered(extended.constraints) == _ordered(scratch)
        again = Polyhedron.from_constraints(_VIEW_SPACE, [*base.constraints, *second])
        assert _ordered(again.constraints) == _ordered(scratch)
        # The rows a normalised polyhedron keeps are its constraints' rows.
        fresh = Polyhedron(_VIEW_SPACE, extended.constraints).row_view()
        assert extended.row_view()[:3] == fresh[:3]

    @settings(max_examples=60, deadline=None)
    @given(lists=_two_lists())
    def test_direct_decoded_and_pickled_behave_alike(self, lists):
        raw, extra = lists
        for name in _VIEW_SPACE.names:  # bounded, so every probe terminates fast
            variable = AffineExpr.variable(name)
            raw += [
                AffineConstraint.greater_equal(variable, -2),
                AffineConstraint.less_equal(variable, 2),
            ]
        direct = Polyhedron(_VIEW_SPACE, tuple(raw))
        direct.row_view()  # encoded before it is serialised
        encoded = encode_polyhedron(direct)
        assert set(encoded) == {"iterators", "parameters", "constraints"}
        pickled = pickle.dumps(direct)
        assert b"SparseRow" not in pickled and b"_view" not in pickled
        copies = [decode_polyhedron(encoded), pickle.loads(pickled)]
        assert all(copy._view is None for copy in copies)
        for copy in copies:
            assert copy == direct and hash(copy) == hash(direct)
            assert copy.signature() == direct.signature()
            assert copy.is_empty() == direct.is_empty()
            # The wire format sorts coefficient names, so the decoded copy is
            # held to its own constraints' from-scratch normal form.
            assert _ordered(copy.add_constraints(extra).constraints) == _ordered(
                simplify_constraints([*copy.constraints, *extra])
            )
        assert _ordered(copies[1].add_constraints(extra).constraints) == _ordered(
            direct.add_constraints(extra).constraints
        )
        assert direct.add_constraints(()) == Polyhedron.from_constraints(_VIEW_SPACE, raw)

    def test_equality_and_hash_ignore_the_view(self):
        viewed = _box(["i", "j"], [0, 0], [3, 3])
        plain = Polyhedron(viewed.space, viewed.constraints)
        assert viewed._view is not None and plain._view is None
        assert viewed == plain and hash(viewed) == hash(plain)
        assert "_view" not in repr(viewed)

    def test_derived_polyhedra_never_carry_a_stale_view(self):
        space = Space(("i", "j"), ("N",))
        i, j, n = (AffineExpr.variable(x) for x in ("i", "j", "N"))
        poly = Polyhedron.from_constraints(
            space,
            [
                AffineConstraint.greater_equal(i, 0),
                AffineConstraint.less_equal(i, n - 1),
                AffineConstraint.equals(j, i + 1),
            ],
        )
        assert poly.row_view().normalised
        derived = [poly.fix_dimensions({"N": 4}), poly.project_onto(["j"])]
        for other in derived:
            fresh = Polyhedron(other.space, other.constraints).row_view()
            assert other.row_view()[:3] == fresh[:3]
            assert set(other.row_view().names) <= set(other.space.names)
            assert other.signature()[0] == other.space.names
        fixed = derived[0]
        assert "N" not in fixed.row_view().names
        box = [(a, b) for a in range(-2, 8) for b in range(-2, 8)]
        points = [(a, b) for a, b in box if fixed.contains({"i": a, "j": b})]
        assert not fixed.is_empty() and len(points) == 4

    def test_is_empty_with_assumptions_builds_no_second_normal_form(self):
        poly = _box(["i"], [0], [5])
        assert poly.add_constraints(()) is poly
        i = AffineExpr.variable("i")
        assert poly.is_empty([AffineConstraint.greater_equal(i, 6)])
        assert not poly.is_empty([AffineConstraint.greater_equal(i, 5)])
        with pytest.raises(ValueError):
            poly.is_empty([AffineConstraint.greater_equal(AffineExpr.variable("z"), 0)])

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.integers(0, 4), st.one_of(st.integers(-6, 6), _values)),
            max_size=6,
        ),
        constant=st.one_of(st.integers(-6, 6), _values),
    )
    def test_from_rational_terms_fast_path_equals_rational_path(self, terms, constant):
        merged: dict[int, Fraction] = {}
        for column, value in terms:
            merged[column] = merged.get(column, Fraction(0)) + value
        merged = {column: value for column, value in merged.items() if value}
        constant = Fraction(constant)
        scale = lcm(constant.denominator, *(v.denominator for v in merged.values()))
        integers = {column: int(value * scale) for column, value in merged.items()}
        divisor = gcd(int(constant * scale), *integers.values()) or 1
        expected = SparseRow(
            tuple(sorted((c, v // divisor) for c, v in integers.items())),
            int(constant * scale) // divisor,
        )
        assert SparseRow.from_rational_terms(terms, constant) == expected
        assert SparseRow.from_rational_terms(dict(merged), constant) == expected


class TestSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Space(("i", "i"), ())

    def test_reserved_constant_key(self):
        with pytest.raises(ValueError):
            Space((CONSTANT_KEY,), ())

    def test_product_renaming(self):
        left = Space(("i",), ("N",))
        right = Space(("i",), ("N",))
        product = left.product(right, {"i": "i2"})
        assert product.iterators == ("i", "i2")

    def test_index_and_membership(self):
        space = Space(("i", "j"), ("N",))
        assert "N" in space and "N" in space.parameters
        assert space.index("j") == 1


class TestFarkas:
    def test_interval_nonnegativity(self):
        # f(i) = a*i + b >= 0 on [0, 9]  <=>  b >= 0 and 9a + b >= 0.
        poly = _box(["i"], [0], [9])
        rows = farkas_nonnegative(poly, {"i": {"a": Fraction(1)}}, {"b": Fraction(1)})
        normalized = {frozenset(row.coefficients.items()) for row in rows}
        assert frozenset({"b": Fraction(1)}.items()) in normalized
        assert any({"a", "b"} == set(row.coefficients) for row in rows)

    def test_constant_template_only(self):
        poly = _box(["i"], [0], [3])
        rows = farkas_nonnegative(poly, {}, {"c": Fraction(1)})
        # c >= 0 is the only requirement.
        assert any(set(row.coefficients) == {"c"} for row in rows)

    def test_parametric_polyhedron(self):
        space = Space(("i",), ("N",))
        i, n = AffineExpr.variable("i"), AffineExpr.variable("N")
        poly = Polyhedron.from_constraints(
            space,
            [
                AffineConstraint.greater_equal(i, 0),
                AffineConstraint.less_equal(i, n - 1),
                AffineConstraint.greater_equal(n, 1),
            ],
        )
        result = farkas_nonnegative(
            poly, {"i": {"a": Fraction(1)}, "N": {"u": Fraction(1)}}, {"w": Fraction(1)}
        )
        assert result  # a non-trivial linearisation exists

    def test_farkas_solutions_are_actually_nonnegative(self):
        poly = _box(["i"], [0, ], [5])
        rows = farkas_nonnegative(poly, {"i": {"a": Fraction(1)}}, {"b": Fraction(1)})
        # Pick a = 1, b = 0: f(i) = i which is >= 0 on [0,5]; must satisfy all rows.
        assert all(row.evaluate({"a": 1, "b": 0}) for row in rows)
        # a = -1, b = 0: f(i) = -i is negative on (0,5]; must violate some row.
        assert not all(row.evaluate({"a": -1, "b": 0}) for row in rows)
