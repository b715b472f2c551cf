"""A small embedded DSL to build SCoPs from nested loops.

The builder mirrors how the kernels are written in C: loops are opened with a
context manager, statements are added inside them, and the builder keeps track
of iteration domains and of the original (2d+1) execution order.

Example
-------
>>> from repro.model import ScopBuilder
>>> b = ScopBuilder("example", parameters={"N": 16})
>>> N = b.parameter("N")
>>> b.array("A", N)
>>> with b.loop("i", 0, N) as i:
...     b.statement(writes=[("A", [i])], reads=[], text="A[i] = 0;")
>>> scop = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from .access import ArrayAccess
from .scop import Scop
from .statement import Statement, StatementBody

__all__ = ["ScopBuilder"]

Bound = AffineExpr | int
AccessSpec = tuple[str, Sequence[AffineExpr | int]]


@dataclass
class _LoopFrame:
    """One open loop during building."""

    iterator: str
    lower: AffineExpr
    upper: AffineExpr  # exclusive
    position: int
    extra_constraints: list[AffineConstraint] = field(default_factory=list)


class ScopBuilder:
    """Incrementally build a :class:`Scop` from nested loops and statements."""

    def __init__(
        self,
        name: str,
        parameters: Mapping[str, int] | Sequence[str] = (),
        assume_positive_parameters: bool = True,
    ):
        self.name = name
        if isinstance(parameters, Mapping):
            self._parameters = tuple(parameters)
            self._parameter_values = dict(parameters)
        else:
            self._parameters = tuple(parameters)
            self._parameter_values = {}
        self._assume_positive = assume_positive_parameters
        self._loop_stack: list[_LoopFrame] = []
        self._counters: list[int] = [0]
        self._statements: list[Statement] = []
        self._arrays: dict[str, tuple[AffineExpr, ...]] = {}

    # ------------------------------------------------------------------ #
    # Parameters and arrays
    # ------------------------------------------------------------------ #
    def parameter(self, name: str) -> AffineExpr:
        """The affine expression for parameter *name* (must have been declared)."""
        if name not in self._parameters:
            raise KeyError(f"parameter {name!r} was not declared for SCoP {self.name!r}")
        return AffineExpr.variable(name)

    def parameters(self, *names: str) -> tuple[AffineExpr, ...]:
        """Affine expressions for several parameters at once."""
        return tuple(self.parameter(name) for name in names)

    def array(self, name: str, *shape: Bound) -> str:
        """Declare an array (or scalar, with an empty shape) and return its name."""
        self._arrays[name] = tuple(_as_expr(dim) for dim in shape)
        return name

    # ------------------------------------------------------------------ #
    # Loops and statements
    # ------------------------------------------------------------------ #
    @contextmanager
    def loop(
        self,
        iterator: str,
        lower: Bound,
        upper: Bound,
        extra_constraints: Sequence[AffineConstraint] = (),
    ) -> Iterator[AffineExpr]:
        """Open a loop ``for iterator in [lower, upper)`` around nested statements."""
        if any(frame.iterator == iterator for frame in self._loop_stack):
            raise ValueError(f"iterator {iterator!r} is already in use in an enclosing loop")
        frame = _LoopFrame(
            iterator=iterator,
            lower=_as_expr(lower),
            upper=_as_expr(upper),
            position=self._counters[-1],
            extra_constraints=list(extra_constraints),
        )
        self._counters[-1] += 1
        self._loop_stack.append(frame)
        self._counters.append(0)
        try:
            yield AffineExpr.variable(iterator)
        finally:
            self._counters.pop()
            self._loop_stack.pop()

    def statement(
        self,
        writes: Sequence[AccessSpec] = (),
        reads: Sequence[AccessSpec] = (),
        body: StatementBody | None = None,
        text: str = "",
        name: str | None = None,
    ) -> Statement:
        """Add a statement at the current loop nesting position."""
        index = len(self._statements)
        statement_name = name or f"S{index}"
        iterators = tuple(frame.iterator for frame in self._loop_stack)
        space = Space(iterators, self._parameters)
        constraints: list[AffineConstraint] = []
        for frame in self._loop_stack:
            iterator_expr = AffineExpr.variable(frame.iterator)
            constraints.append(AffineConstraint.greater_equal(iterator_expr, frame.lower))
            constraints.append(AffineConstraint.less_equal(iterator_expr, frame.upper - 1))
            constraints.extend(frame.extra_constraints)
        domain = Polyhedron.from_constraints(space, constraints)

        accesses: list[ArrayAccess] = []
        for array, indices in writes:
            self._ensure_array(array, indices)
            accesses.append(ArrayAccess.write(array, list(indices)))
        for array, indices in reads:
            self._ensure_array(array, indices)
            accesses.append(ArrayAccess.read(array, list(indices)))

        if body is None:
            # A deterministic surrogate computation over the declared accesses:
            # it makes any schedule-legality violation visible to the executor
            # without requiring every kernel to spell out its arithmetic.
            body = _generic_body(tuple(accesses))

        original = self._original_schedule_rows()
        statement = Statement(
            name=statement_name,
            index=index,
            domain=domain,
            accesses=tuple(accesses),
            original_schedule=original,
            body=body,
            text=text,
        )
        self._statements.append(statement)
        self._counters[-1] += 1
        return statement

    def _original_schedule_rows(self) -> tuple[AffineExpr, ...]:
        """The 2d+1 original-schedule rows for a statement added right now."""
        rows: list[AffineExpr] = []
        for level, frame in enumerate(self._loop_stack):
            rows.append(AffineExpr.const(frame.position))
            rows.append(AffineExpr.variable(frame.iterator))
        rows.append(AffineExpr.const(self._counters[-1]))
        return tuple(rows)

    def _ensure_array(self, array: str, indices: Sequence[AffineExpr | int]) -> None:
        if array not in self._arrays:
            # Implicitly declare: scalars get an empty shape, arrays an unknown
            # square shape based on the subscript count (refined by the caller
            # via :meth:`array` when sizes matter).
            self._arrays[array] = tuple(AffineExpr.const(1) for _ in indices)

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def build(self) -> Scop:
        """Produce the immutable :class:`Scop`."""
        if self._loop_stack:
            raise RuntimeError("cannot build while loops are still open")
        context: list[AffineConstraint] = []
        if self._assume_positive:
            for parameter in self._parameters:
                context.append(
                    AffineConstraint.greater_equal(AffineExpr.variable(parameter), 1)
                )
        return Scop(
            name=self.name,
            parameters=self._parameters,
            statements=list(self._statements),
            context=tuple(context),
            parameter_values=dict(self._parameter_values),
            arrays=dict(self._arrays),
        )


def _as_expr(value: Bound) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.const(value)


def _generic_body(accesses: tuple[ArrayAccess, ...]) -> StatementBody:
    """A surrogate statement body combining every read into every written element.

    The exact arithmetic is irrelevant; what matters is that the value written
    depends on all values read, so executing statement instances in an illegal
    order produces different array contents.
    """

    reads = tuple(access for access in accesses if access.is_read)
    writes = tuple(access for access in accesses if access.is_write)

    def body(arrays, values):
        total = 1.0
        for access in reads:
            index = access.evaluate(values) or (0,)
            total += float(arrays[access.array][index]) * 0.37
        for access in writes:
            index = access.evaluate(values) or (0,)
            arrays[access.array][index] = total * 0.93

    return body
