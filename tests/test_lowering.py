"""Property tests for the integer lowering of scanning ASTs.

The specification is the rational one: an :class:`AffineExpr` evaluated with
``Fraction``s, a statement domain enumerated point by point.  The generated
integer code has to agree with it; no second executor is kept to compare with.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import BlockNode, CallNode, Executor, GuardNode, LoopNode, generate_ast
from repro.codegen.lowering import IntAffine, LoweringError, lower_ast
from repro.machine import MemoryTraceCollector
from repro.model import ScopBuilder
from repro.polyhedra.affine import AffineExpr
from repro.polyhedra.constraint import AffineConstraint
from repro.suites.polybench import build_kernel

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
points = st.fixed_dictionaries(
    {"x": st.integers(-20, 20), "y": st.integers(-20, 20), "P": st.integers(-9, 9)}
)
expressions = st.builds(
    lambda x, y, p, c: AffineExpr({"x": x, "y": y, "P": p}, c),
    fractions, fractions, fractions, fractions,
)


class Recorder:
    """Stands in for a cache hierarchy: only ``access(address)``, keeps the stream."""

    def __init__(self):
        self.addresses = []

    def access(self, address):
        self.addresses.append(address)


def _lowered(expression: AffineExpr, point: dict) -> tuple[IntAffine, dict]:
    form = IntAffine.lower(expression, {"x": 0, "y": 1}, {"P": point["P"]})
    return form, {"x0": point["x"], "x1": point["y"]}


class TestIntAffine:
    @given(expressions, points)
    @settings(max_examples=300, deadline=None)
    def test_floor_and_ceil_equal_the_fraction_path(self, expression, point):
        form, slots = _lowered(expression, point)
        value = expression.evaluate(point)
        assert form.den > 0
        assert eval(form.floor(), {}, slots) == math.floor(value)
        assert eval(form.ceil(), {}, slots) == math.ceil(value)

    @given(expressions, points, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sign_equals_the_rational_constraint(self, expression, point, equality):
        constraint = (
            AffineConstraint.equals(expression) if equality
            else AffineConstraint.greater_equal(expression)
        )
        form, slots = _lowered(constraint.expression, point)
        numerator = eval(form.numerator(), {}, slots)
        assert (numerator == 0 if equality else numerator >= 0) == constraint.is_satisfied(point)

    def test_integer_form_is_exact(self):
        expression = AffineExpr({"x": Fraction(1, 2), "y": Fraction(-2, 3)}, Fraction(5, 4))
        terms, constant, denominator = expression.integer_form
        assert (dict(terms), constant, denominator) == ({"x": 6, "y": -8}, 15, 12)


# --------------------------------------------------------------------------- #
# Whole ASTs against brute-force enumeration of the statement domains
# --------------------------------------------------------------------------- #
def _triangular(n: int = 5, m: int = 4):
    b = ScopBuilder("tri", parameters={"N": n, "M": m})
    N, M = b.parameters("N", "M")
    b.array("A", N, N)
    b.array("x", N)
    with b.loop("i", 0, N) as i:
        b.statement(writes=[("x", [i])], reads=[("A", [i, i])])
        with b.loop("j", 0, i) as j:
            b.statement(writes=[("x", [i])], reads=[("A", [i, j]), ("x", [j])])
            with b.loop("k", j, M) as k:
                b.statement(writes=[("A", [i, j])], reads=[("A", [j, j]), ("x", [i])])
    return b.build()


def _brute_force(scop, parameters: dict) -> Counter:
    """Every integer point of every statement domain, by scanning a box."""
    box = range(-1, max(parameters.values(), default=0) + 2)
    instances: Counter = Counter()
    for statement in scop.statements:
        for point in itertools.product(box, repeat=statement.depth):
            values = dict(zip(statement.iterators, point))
            if statement.domain.contains({**parameters, **values}):
                instances[(statement.name, point)] += 1
    return instances


def _executed(scop, ast, parameters: dict) -> tuple[Counter, object]:
    instances: Counter = Counter()

    def record(statement, values):
        instances[(statement.name, tuple(values[name] for name in statement.iterators))] += 1

    stats = Executor(scop, parameters, on_instance=record).run(ast)
    return instances, stats


class TestInstancesEqualTheDomains:
    @given(st.integers(1, 5), st.integers(1, 5))  # the builder's context assumes N, M >= 1
    @settings(max_examples=15, deadline=None)
    def test_triangular_nest(self, n, m):
        scop = _triangular()
        parameters = {"N": n, "M": m}
        ast = generate_ast(scop, scop.original_schedule())
        executed, stats = _executed(scop, ast, parameters)
        assert executed == _brute_force(scop, parameters)
        assert stats.instances == sum(executed.values())

    @pytest.mark.parametrize("kernel", ["trisolv", "jacobi-1d", "cholesky"])
    @given(size=st.integers(1, 5), steps=st.integers(1, 3))
    @settings(max_examples=5, deadline=None)
    def test_polybench_kernels(self, kernel, size, steps):
        scop = build_kernel(kernel)
        parameters = {name: steps if name == "TSTEPS" else size for name in scop.parameters}
        ast = generate_ast(scop, scop.original_schedule())
        executed, _ = _executed(scop, ast, parameters)
        assert executed == _brute_force(scop, parameters)

    def test_tiled_schedule_scans_the_same_instances(self, gemm_scop):
        from repro.deps import compute_dependences
        from repro.scheduler import PolyTOPSScheduler, pluto_style
        from repro.transform import compute_tiling

        dependences = compute_dependences(gemm_scop)
        schedule = PolyTOPSScheduler(gemm_scop, pluto_style(), dependences=dependences).schedule()
        tiling = compute_tiling(schedule.schedule, dependences, (4, 4, 4))
        ast = generate_ast(gemm_scop, schedule.schedule, tiling)
        parameters = {"NI": 5, "NJ": 3, "NK": 6}
        executed, _ = _executed(gemm_scop, ast, parameters)
        assert executed == _brute_force(gemm_scop, parameters)


# --------------------------------------------------------------------------- #
# Hand-built ASTs: what the generator never emits but the lowering must handle
# --------------------------------------------------------------------------- #
def _axpy():
    b = ScopBuilder("axpy", parameters={"N": 6})
    (N,) = b.parameters("N")
    b.array("y", N)
    with b.loop("i", 0, N) as i:
        b.statement(writes=[("y", [i])], reads=[("y", [i])])
    return b.build()


def _loop(variable: str, lower, upper, body, **flags) -> LoopNode:
    return LoopNode(variable, [[AffineExpr.const(lower)]], [[_expr(upper)]], body, **flags)


def _expr(value) -> AffineExpr:
    return value if isinstance(value, AffineExpr) else AffineExpr.const(value)


class TestHandBuiltAsts:
    def test_fractional_iterator_map_skips_the_instance(self):
        scop = _axpy()
        statement = scop.statements[0]
        call = CallNode(statement, {"i": AffineExpr({"t": Fraction(1, 2)})})
        ast = BlockNode([_loop("t", 0, 7, [call])])
        seen = []
        stats = Executor(scop, on_instance=lambda s, values: seen.append(values["i"])).run(
            ast, scop.allocate_arrays()
        )
        assert seen == [0, 1, 2, 3]  # t = 0, 2, 4, 6; odd t is not an instance
        assert stats.instances == 4 and stats.loop_iterations == 8

        recorder = Recorder()
        collector = MemoryTraceCollector(scop, recorder)
        Executor(scop, on_instance=collector).run(ast)
        assert recorder.addresses == [0, 0, 8, 8, 16, 16, 24, 24]
        assert collector.accesses == 8 and collector.statement_accesses == {"S0": 8}

    def test_unbound_dimension_is_rejected_before_anything_runs(self):
        scop = _axpy()
        statement = scop.statements[0]
        call = CallNode(statement, {"i": AffineExpr.variable("t")})
        bad = _loop("u", 0, AffineExpr.variable("q"), [])
        ast = BlockNode([_loop("t", 0, 3, [call]), bad])
        seen = []
        with pytest.raises(LoweringError, match="unbound dimension 'q'"):
            Executor(scop, on_instance=lambda s, values: seen.append(values)).run(ast)
        assert seen == []
        guard = GuardNode([AffineConstraint.greater_equal(AffineExpr.variable("t"))], [call])
        with pytest.raises(LoweringError, match="unbound dimension 't'"):
            lower_ast(BlockNode([guard]), {"N": 6})

    def test_rebinding_a_dimension_is_rejected(self):
        with pytest.raises(LoweringError, match="rebinds"):
            lower_ast(_loop("t", 0, 3, [_loop("t", 0, 3, [])]), {})
        with pytest.raises(LoweringError, match="rebinds"):
            lower_ast(_loop("N", 0, 3, []), {"N": 6})

    def test_nests_python_cannot_compile_are_rejected(self):
        node = []
        for depth in reversed(range(25)):
            node = [_loop(f"t{depth}", 0, 1, node)]
        with pytest.raises(LoweringError, match="does not compile"):
            lower_ast(BlockNode(node), {})

    def test_bound_groups_parallel_order_and_counters(self):
        scop = _axpy()
        statement = scop.statements[0]
        call = CallNode(statement, {"i": AffineExpr.variable("t")})
        t = AffineExpr.variable("t")
        inner = _loop("p", 0, 2, [], is_parallel=True)
        const = AffineExpr.const
        # Union hull [0, 5] of the groups [0, 1] and [4, 5]; the guard keeps 4 and 5.
        outer = LoopNode(
            "t",
            [[const(0)], [const(4), const(3)]],
            [[const(1)], [const(5), const(9)]],
            [GuardNode([AffineConstraint.greater_equal(t - 4)], [call, inner])],
        )
        empty = _loop("e", 3, 2, [], is_parallel=True)
        stats = Executor(scop).run(BlockNode([empty, outer]))
        assert stats.loop_iterations == 6 + 2 * 3
        assert (stats.guard_checks, stats.guard_failures, stats.instances) == (6, 4, 2)
        # Reached first, even though it never iterates.
        assert list(stats.parallel_loops.items()) == [("e", [1, 0]), ("p", [2, 6])]
        assert stats.per_statement == {"S0": 2}

    def test_generated_source_is_available(self, gemm_scop):
        ast = generate_ast(gemm_scop, gemm_scop.original_schedule())
        scan = lower_ast(ast, gemm_scop.resolved_parameters(None), run_bodies=False)
        assert scan.source.startswith("def scan(arrays")
        assert "Fraction" not in scan.source and sum(scan.run(None)[4].values()) == 1100


class TestTraceAgainstTheAccessFunctions:
    @pytest.mark.parametrize("kernel", ["gemm", "trisolv", "jacobi-2d"])
    def test_batched_addresses_equal_per_instance_subscripts(self, kernel):
        """The composed address forms against layout x ``ArrayAccess.evaluate``."""
        scop = build_kernel(kernel)
        ast = generate_ast(scop, scop.original_schedule())

        fast = Recorder()
        collector = MemoryTraceCollector(scop, fast)
        Executor(scop, on_instance=collector).run(ast)

        expected = []

        def per_instance(statement, values):
            for access in statement.accesses:
                layout = collector.layouts[access.array]
                offset = sum(i * s for i, s in zip(access.evaluate(values), layout.strides))
                expected.append(layout.base + 8 * offset)

        Executor(scop, on_instance=per_instance).run(ast)
        assert fast.addresses == expected
        assert collector.accesses == len(expected)
        assert sum(collector.statement_accesses.values()) == len(expected)
