"""Memory-trace collection.

The trace collector is an ``on_instance`` hook for the executor, of the
batched kind (:class:`repro.codegen.lowering.TraceHook`): it names the byte
address of each array access as an affine form of the statement's iterators
(arrays are laid out contiguously, row-major, 8 bytes per element), the
generated scanning code evaluates the forms inline and hands the addresses
back in batches, and the collector feeds them to a cache hierarchy,
accumulating per-level hit/miss counts and per-statement access counts used
by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..model.scop import Scop
from ..model.statement import Statement
from ..obs import active_tracer
from ..polyhedra.affine import AffineExpr
from .cache import CacheHierarchy

__all__ = ["MemoryTraceCollector"]

_ELEMENT_BYTES = 8


@dataclass
class _ArrayLayout:
    base: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]


class MemoryTraceCollector:
    """Feeds the memory accesses of executed statement instances into a cache model."""

    def __init__(
        self,
        scop: Scop,
        hierarchy: CacheHierarchy,
        parameter_values: Mapping[str, int] | None = None,
    ):
        self.scop = scop
        self.hierarchy = hierarchy
        self.parameter_values = scop.resolved_parameters(parameter_values)
        self.layouts = self._layout_arrays()
        self.accesses = 0
        self.statement_accesses: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _layout_arrays(self) -> dict[str, _ArrayLayout]:
        layouts: dict[str, _ArrayLayout] = {}
        cursor = 0
        for name, shape_exprs in self.scop.arrays.items():
            shape = tuple(
                max(1, int(expr.evaluate(self.parameter_values))) for expr in shape_exprs
            ) or (1,)
            strides = []
            running = 1
            for extent in reversed(shape):
                strides.append(running)
                running *= extent
            layouts[name] = _ArrayLayout(cursor, shape, tuple(reversed(strides)))
            cursor += running * _ELEMENT_BYTES + 256  # pad between arrays
        return layouts

    # ------------------------------------------------------------------ #
    # Hook (the TraceHook protocol of repro.codegen.lowering)
    # ------------------------------------------------------------------ #
    def address_forms(self, statement: Statement) -> list[AffineExpr]:
        """The byte address of each access to a laid-out array, over the iterators."""
        forms = []
        for access in statement.accesses:
            layout = self.layouts.get(access.array)
            if layout is None:
                continue
            if access.indices and len(access.indices) != len(layout.strides):
                raise ValueError(f"{access} does not match the rank of shape {layout.shape}")
            address = AffineExpr.const(layout.base)
            for index, stride in zip(access.indices, layout.strides):
                if index.integer_form[2] != 1:
                    raise ValueError(f"non-integral subscript {index} in {access}")
                address = address + index * (stride * _ELEMENT_BYTES)
            forms.append(address)
        return forms

    def access_many(self, addresses: Sequence[int]) -> None:
        """Feed the next addresses of the trace to the hierarchy."""
        with active_tracer().span("evaluate.cache", category="machine", accesses=len(addresses)):
            # Any object with ``access(address)`` can stand in for a hierarchy.
            batched = getattr(self.hierarchy, "access_many", None)
            if batched is not None:
                batched(addresses)
            else:
                for address in addresses:
                    self.hierarchy.access(address)

    def add_instances(self, statement: Statement, count: int) -> None:
        """Account for *count* executed instances of *statement*."""
        accesses = count * len(self.address_forms(statement))
        if accesses:
            self.accesses += accesses
            self.statement_accesses[statement.name] = (
                self.statement_accesses.get(statement.name, 0) + accesses
            )

    def __call__(self, statement: Statement, values: Mapping[str, int]) -> None:
        """Record the accesses of one statement instance."""
        self.access_many([int(form.evaluate(values)) for form in self.address_forms(statement)])
        self.add_instances(statement, 1)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def memory_cycles(self) -> int:
        """Total access latency accumulated in the hierarchy."""
        return self.hierarchy.total_latency()

    def miss_ratio(self, level: int = 0) -> float:
        if not self.hierarchy.levels:
            return 0.0
        return self.hierarchy.levels[min(level, len(self.hierarchy.levels) - 1)].miss_ratio

    def statistics(self) -> dict[str, object]:
        return {
            "accesses": self.accesses,
            "levels": self.hierarchy.statistics(),
            "per_statement": dict(self.statement_accesses),
        }
