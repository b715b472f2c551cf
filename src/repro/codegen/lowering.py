"""Integer lowering of scanning ASTs: one generated Python function per AST.

:func:`lower_ast` walks a scanning AST once.  Every loop bound, guard
condition and iterator map — and, for a :class:`TraceHook`, every access
composed with the hook's array layout — becomes an :class:`IntAffine`
``(Σ cᵢ·xᵢ + c₀) / den`` over slot-indexed scan variables with ``den > 0`` and
the parameters folded into ``c₀``.  The forms are printed into the source of
one function that scans the loops with plain ``int`` locals: floor and ceiling
are one integer floor-division, a guard is the sign of a numerator, and the
counters of :class:`~repro.codegen.executor.ExecutionStats` are kept exactly
(loop trip counts are added per loop entry; ``parallel_loops`` keeps its
first-encounter order).  Nothing here is approximate; what is rejected, is
rejected before the scan starts (:class:`LoweringError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from .ast import BlockNode, CallNode, GuardNode, LoopNode, Node

__all__ = ["BATCH", "IntAffine", "LoweredScan", "LoweringError", "TraceHook", "lower_ast"]

#: Addresses buffered by the generated code before a :class:`TraceHook` gets them.
BATCH = 8192


class LoweringError(ValueError):
    """The AST names an unbound dimension, rebinds one, or cannot be compiled."""


class TraceHook(Protocol):
    """An ``on_instance`` hook that is served addresses in batches.

    A hook with these methods is never called per instance: the addresses it
    names are computed inline by the generated code.  It must not depend on
    the arrays, because a batch is delivered after the bodies it covers ran.
    """

    def address_forms(self, statement: Statement) -> Sequence[AffineExpr]:
        """Byte address of every traced access, over iterators and parameters."""

    def access_many(self, addresses: list[int]) -> None:
        """Consume the next addresses of the trace, in execution order."""

    def add_instances(self, statement: Statement, count: int) -> None:
        """Told once per statement when the scan ends: it executed *count* times."""


@dataclass(frozen=True)
class IntAffine:
    """``(Σ coefficient·x<slot> + constant) / den`` with integer parts and ``den > 0``."""

    terms: tuple[tuple[int, int], ...]
    constant: int
    den: int

    @classmethod
    def lower(
        cls, expression: AffineExpr, scope: Mapping[str, int], parameters: Mapping[str, int]
    ) -> "IntAffine":
        """Bind *expression*: scan variables in *scope* to slots, parameters to values."""
        terms, constant, den = expression.integer_form
        slots: dict[int, int] = {}
        for name, coefficient in terms:
            if name in scope:
                slots[scope[name]] = slots.get(scope[name], 0) + coefficient
            elif name in parameters:
                constant += coefficient * int(parameters[name])
            else:
                raise LoweringError(f"{expression} names the unbound dimension {name!r}")
        divisor = gcd(den, constant, *slots.values())
        return cls(
            tuple((slot, value // divisor) for slot, value in sorted(slots.items()) if value),
            constant // divisor,
            den // divisor,
        )

    def numerator(self) -> str:
        """Source text of ``Σ coefficient·x<slot> + constant``."""
        parts = [
            ("-" if value == -1 else "" if value == 1 else f"{value}*") + f"x{slot}"
            for slot, value in self.terms
        ]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts).replace("+ -", "- ")

    def floor(self) -> str:
        return self.numerator() if self.den == 1 else f"({self.numerator()}) // {self.den}"

    def ceil(self) -> str:
        return self.numerator() if self.den == 1 else f"-(-({self.numerator()}) // {self.den})"


class LoweredScan(NamedTuple):
    """``run(arrays)`` scans the loops and returns ``(loop_iterations,
    statement_loop_iterations, guard_checks, guard_failures, per_statement, parallel_loops)``."""

    run: Callable
    source: str


def _fold(function: str, sources: list[str]) -> str:
    sources = list(dict.fromkeys(sources))
    return sources[0] if len(sources) == 1 else f"{function}({', '.join(sources)})"


class _Lowering:
    def __init__(self, parameters: Mapping[str, int], on_instance, run_bodies: bool):
        self.parameters = parameters
        self.forms = getattr(on_instance, "address_forms", None)
        self.per_instance_hook = on_instance is not None and self.forms is None
        self.run_bodies = run_bodies
        self.lines: list[str] = []
        self.bound: dict[str, object] = {}
        self.statements: dict[str, Statement] = {}
        self.slots = self.calls = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def form(self, expression: AffineExpr, scope: Mapping[str, int]) -> IntAffine:
        return IntAffine.lower(expression, scope, self.parameters)

    def block(self, body: Sequence[Node], scope: dict[str, int], depth: int) -> None:
        before = len(self.lines)
        for child in body:
            self.node(child, scope, depth)
        if len(self.lines) == before:
            self.emit(depth, "pass")

    def node(self, node: Node, scope: dict[str, int], depth: int) -> None:
        if isinstance(node, BlockNode):
            for child in node.body:
                self.node(child, scope, depth)
        elif isinstance(node, LoopNode):
            self.loop(node, scope, depth)
        elif isinstance(node, GuardNode):
            conditions = [
                self.form(c.expression, scope).numerator() + (" == 0" if c.is_equality else " >= 0")
                for c in node.conditions
            ]
            self.emit(depth, "checks += 1")
            self.emit(depth, f"if {' and '.join(dict.fromkeys(conditions)) or 'True'}:")
            self.block(node.body, scope, depth + 1)
            self.emit(depth, "else:")
            self.emit(depth + 1, "failures += 1")
        elif isinstance(node, CallNode):
            self.call(node, scope, depth)
        else:
            raise LoweringError(f"unknown AST node {type(node).__name__}")

    def bounds(self, groups, scope: Mapping[str, int], ceil: bool) -> str | None:
        """``min over groups of max(ceil)`` for lower bounds, the dual for upper ones."""
        inner, outer = ("max", "min") if ceil else ("min", "max")
        rounded = IntAffine.ceil if ceil else IntAffine.floor
        candidates = [
            _fold(inner, [rounded(self.form(e, scope)) for e in group]) for group in groups if group
        ]
        return _fold(outer, candidates) if candidates else None

    def loop(self, node: LoopNode, scope: dict[str, int], depth: int) -> None:
        if node.variable in scope or node.variable in self.parameters:
            raise LoweringError(f"loop rebinds the dimension {node.variable!r}")
        lower = self.bounds(node.lower_bounds, scope, True)
        upper = self.bounds(node.upper_bounds, scope, False)
        if lower is None or upper is None:
            return  # an unbounded dimension scans nothing
        slot, self.slots = self.slots, self.slots + 1
        self.emit(depth, f"lo = {lower}")
        self.emit(depth, f"n = {upper} - lo + 1")
        if node.is_parallel:
            self.emit(depth, f"entry = parallel.setdefault({node.variable!r}, [0, 0])")
            self.emit(depth, "entry[0] += 1")
        self.emit(depth, "if n > 0:")
        if node.is_parallel:
            self.emit(depth + 1, "entry[1] += n")
        self.emit(depth + 1, f"{'statement_loops' if node.is_statement_loop else 'loops'} += n")
        self.emit(depth + 1, f"for x{slot} in range(lo, lo + n):")
        self.block(node.body, {**scope, node.variable: slot}, depth + 2)

    def call(self, node: CallNode, scope: Mapping[str, int], depth: int) -> None:
        statement = node.statement
        values = {name: self.form(e, scope) for name, e in node.iterator_values.items()}
        fractional = [f"({f.numerator()}) % {f.den} == 0" for f in values.values() if f.den != 1]
        if fractional:  # a non-integral iterator value is not an instance
            self.emit(depth, f"if {' and '.join(fractional)}:")
            depth += 1
        self.statements.setdefault(statement.name, statement)
        self.emit(depth, f"n{list(self.statements).index(statement.name)} += 1")
        index, self.calls = self.calls, self.calls + 1
        if self.forms is not None:
            addresses = [
                self.form(form.substitute(node.iterator_values), scope).floor()
                for form in self.forms(statement)
            ]
            if addresses:
                self.emit(depth, f"buffer += ({', '.join(addresses)},)")
                self.emit(depth, f"if len(buffer) >= {BATCH}:")
                self.emit(depth + 1, "access_many(buffer)")
                self.emit(depth + 1, "buffer = []")
        run_body = self.run_bodies and statement.body is not None
        if self.per_instance_hook or run_body:
            items = [f"{name!r}: {int(value)}" for name, value in self.parameters.items()]
            items += [f"{name!r}: {form.floor()}" for name, form in values.items()]
            self.emit(depth, f"values = {{{', '.join(items)}}}")
            if self.per_instance_hook:
                self.bound[f"s{index}"] = statement
                self.emit(depth, f"on_instance(s{index}, values)")
            if run_body:
                self.bound[f"b{index}"] = statement.body
                self.emit(depth, f"b{index}(arrays, values)")


def lower_ast(
    root: Node,
    parameter_values: Mapping[str, int],
    on_instance=None,
    run_bodies: bool = True,
) -> LoweredScan:
    """Lower *root* for the given parameter values into one generated function.

    *on_instance* is called as ``on_instance(statement, values)`` before each
    body, unless it is a :class:`TraceHook`.  ``lower_ast(ast, values).source``
    is the generated code.
    """
    lowering = _Lowering(parameter_values, on_instance, run_bodies)
    lowering.node(root, {}, 1)
    bound, statements = lowering.bound, lowering.statements
    if lowering.forms is not None:
        bound.update(access_many=on_instance.access_many, add_instances=on_instance.add_instances)
        lowering.emit(1, "if buffer:")
        lowering.emit(2, "access_many(buffer)")
        for index, statement in enumerate(statements.values()):
            bound[f"t{index}"] = statement
            lowering.emit(1, f"add_instances(t{index}, n{index})")
    elif on_instance is not None:
        bound["on_instance"] = on_instance
    totals = ["loops", "statement_loops", "checks", "failures"]
    counters = [f"n{index}" for index in range(len(statements))]
    counts = ", ".join(f"{name!r}: {counter}" for name, counter in zip(statements, counters))
    source = "\n".join(
        [
            f"def scan({', '.join(['arrays', *bound])}):",
            f"    {' = '.join(totals + counters)} = 0",
            "    parallel = {}",
            "    buffer = []",
            *lowering.lines,
            f"    return {', '.join(totals)}, {{{counts}}}, parallel",
            "",
        ]
    )
    namespace: dict[str, object] = {}
    try:
        exec(compile(source, "<lowered scan>", "exec"), namespace)
    except SyntaxError as error:  # CPython caps nested blocks (20 loops) and indentation
        raise LoweringError(f"the scanning code does not compile: {error.msg}") from error
    return LoweredScan(partial(namespace["scan"], **bound), source)
