"""Polyhedra-scanning code generation.

The generator plays the role CLooG/isl-codegen play in the paper's pipeline:
given the SCoP and a (possibly tiled) schedule, it produces a loop AST that
enumerates every statement instance in schedule order.

The algorithm is a simplified scanning scheme:

* the shared scan dimensions are the schedule dimensions (``t0``, ``t1``, ...),
  with tile-loop dimensions (``tt<d>``) inserted in front of each tiled band;
* *scalar* dimensions (constant for every statement) do not produce loops:
  statements are partitioned by their constant value and emitted sequentially;
* other dimensions produce one loop whose bounds are the union (min of maxes /
  max of mins) of the per-statement bounds obtained by Fourier–Motzkin
  projection of the statement's scanning polyhedron;
* after the shared dimensions, each statement gets loops over its own
  iterators (these collapse to single iterations whenever the schedule is
  invertible, which is the common case) and a final guard with the statement's
  exact constraints, which makes the generated code correct even though the
  shared loop bounds over-approximate the union of domains.

This trades the code quality of CLooG's separation algorithm for simplicity;
the over-approximation is harmless for the executor and is accounted for by the
machine model as control overhead (the paper itself notes that complex
generated control flow degrades performance).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.schedule import Schedule
from ..model.scop import Scop
from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from ..transform.tiling import TilingSpec
from .ast import BlockNode, CallNode, GuardNode, LoopNode, Node

__all__ = ["CodeGenerator", "generate_ast"]


@dataclass
class _ScanDimension:
    """One shared scan dimension: a schedule dimension or a tile dimension."""

    name: str
    schedule_dimension: int
    is_tile: bool
    tile_size: int | None = None


@dataclass
class _StatementScan:
    """Per-statement scanning state."""

    statement: Statement
    iterator_names: dict[str, str]       # original iterator -> renamed scan dimension
    polyhedron: Polyhedron               # over shared dims + renamed iterators + params
    fixed: dict[str, int]                # scalar scan dimensions already substituted


class CodeGenerator:
    """Generate a scanning AST for a schedule."""

    def __init__(
        self,
        scop: Scop,
        schedule: Schedule,
        tiling: TilingSpec | None = None,
    ):
        self.scop = scop
        self.schedule = schedule.padded()
        self.tiling = tiling or TilingSpec()
        self._scan_dims = self._build_scan_dimensions()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> BlockNode:
        """Produce the AST scanning all statement instances in schedule order."""
        scans = [self._statement_scan(statement) for statement in self.scop.statements]
        body = self._generate_level(scans, 0)
        return BlockNode(body)

    # ------------------------------------------------------------------ #
    # Scan-dimension layout
    # ------------------------------------------------------------------ #
    def _build_scan_dimensions(self) -> list[_ScanDimension]:
        taken = set(self.scop.parameters)
        dims: list[_ScanDimension] = []
        emitted_tiles: set[int] = set()
        for dimension in range(self.schedule.n_dims):
            band = self._band_of(dimension)
            if band is not None and dimension == band[0] and band[0] not in emitted_tiles:
                for member in band:
                    size = self.tiling.size_for(member)
                    if size is None:
                        continue
                    name = self._fresh_name(f"tt{member}", taken)
                    dims.append(_ScanDimension(name, member, True, size))
                    emitted_tiles.add(member)
            name = self._fresh_name(f"t{dimension}", taken)
            dims.append(_ScanDimension(name, dimension, False))
        return dims

    def _band_of(self, dimension: int) -> list[int] | None:
        for band in self.tiling.bands:
            if dimension in band.dimensions:
                return list(band.dimensions)
        return None

    @staticmethod
    def _fresh_name(base: str, taken: set[str]) -> str:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    # ------------------------------------------------------------------ #
    # Per-statement scanning polyhedra
    # ------------------------------------------------------------------ #
    def _statement_scan(self, statement: Statement) -> _StatementScan:
        iterator_names = {
            iterator: f"{statement.name}__{iterator}" for iterator in statement.iterators
        }
        shared_names = tuple(dim.name for dim in self._scan_dims)
        space = Space(
            shared_names + tuple(iterator_names[it] for it in statement.iterators),
            self.scop.parameters,
        )
        constraints: list[AffineConstraint] = [
            constraint.rename(iterator_names) for constraint in statement.domain.constraints
        ]
        constraints.extend(self.scop.context)
        rows = self.schedule.rows_for(statement.name)
        for dim in self._scan_dims:
            row = rows[dim.schedule_dimension].rename(iterator_names)
            scan_var = AffineExpr.variable(dim.name)
            if dim.is_tile:
                size = dim.tile_size or 1
                point_value = row
                constraints.append(
                    AffineConstraint.greater_equal(point_value - scan_var * size, 0)
                )
                constraints.append(
                    AffineConstraint.less_equal(point_value - scan_var * size, size - 1)
                )
            else:
                constraints.append(AffineConstraint.equals(scan_var, row))
        return _StatementScan(
            statement=statement,
            iterator_names=iterator_names,
            polyhedron=Polyhedron.from_constraints(space, constraints),
            fixed={},
        )

    # ------------------------------------------------------------------ #
    # Recursive generation over shared dimensions
    # ------------------------------------------------------------------ #
    def _generate_level(self, scans: list[_StatementScan], level: int) -> list[Node]:
        if not scans:
            return []
        if level == len(self._scan_dims):
            nodes: list[Node] = []
            for scan in sorted(scans, key=lambda s: s.statement.index):
                nodes.extend(self._generate_statement_leaf(scan))
            return nodes

        dim = self._scan_dims[level]
        if not dim.is_tile and self._is_scalar_dimension(scans, dim):
            return self._generate_scalar_level(scans, level, dim)
        return self._generate_loop_level(scans, level, dim)

    def _is_scalar_dimension(self, scans: list[_StatementScan], dim: _ScanDimension) -> bool:
        for scan in scans:
            row = self.schedule.rows_for(scan.statement.name)[dim.schedule_dimension]
            if not row.is_constant():
                return False
        return True

    def _generate_scalar_level(
        self, scans: list[_StatementScan], level: int, dim: _ScanDimension
    ) -> list[Node]:
        groups: dict[int, list[_StatementScan]] = {}
        for scan in scans:
            row = self.schedule.rows_for(scan.statement.name)[dim.schedule_dimension]
            value = int(row.constant)
            fixed = scan.polyhedron.fix_dimensions({dim.name: value})
            groups.setdefault(value, []).append(
                _StatementScan(
                    scan.statement,
                    scan.iterator_names,
                    fixed,
                    {**scan.fixed, dim.name: value},
                )
            )
        nodes: list[Node] = []
        for value in sorted(groups):
            nodes.extend(self._generate_level(groups[value], level + 1))
        return nodes

    def _generate_loop_level(
        self, scans: list[_StatementScan], level: int, dim: _ScanDimension
    ) -> list[Node]:
        outer_names = [
            d.name
            for d in self._scan_dims[:level]
            if d.name not in scans[0].fixed
        ]
        lower_groups: list[list[AffineExpr]] = []
        upper_groups: list[list[AffineExpr]] = []
        for scan in scans:
            if dim.name in scan.fixed:
                continue
            projected = scan.polyhedron.project_onto(outer_names + [dim.name])
            lower, upper = projected.dimension_bounds(dim.name)
            if lower:
                lower_groups.append(lower)
            if upper:
                upper_groups.append(upper)
        body = self._generate_level(scans, level + 1)
        if not lower_groups or not upper_groups:
            # The dimension is unconstrained for every statement (e.g. a tile
            # dimension of an untiled statement); skip the loop entirely.
            return body
        loop = LoopNode(
            variable=dim.name,
            lower_bounds=lower_groups,
            upper_bounds=upper_groups,
            body=body,
            is_parallel=(
                not dim.is_tile
                and dim.schedule_dimension < len(self.schedule.parallel_dims)
                and self.schedule.parallel_dims[dim.schedule_dimension]
                and not any(scan.statement.name in self.schedule.sequential for scan in scans)
            ),
            is_tile_loop=dim.is_tile,
            schedule_dimension=dim.schedule_dimension,
        )
        return [loop]

    # ------------------------------------------------------------------ #
    # Per-statement leaves
    # ------------------------------------------------------------------ #
    def _generate_statement_leaf(self, scan: _StatementScan) -> list[Node]:
        statement = scan.statement
        shared_in_scope = [
            dim.name for dim in self._scan_dims if dim.name not in scan.fixed
        ]
        vector_iterator = self.schedule.vectorized.get(statement.name)

        call = CallNode(
            statement=statement,
            iterator_values={
                iterator: AffineExpr.variable(scan.iterator_names[iterator])
                for iterator in statement.iterators
            },
        )
        innermost: Node = GuardNode(list(scan.polyhedron.constraints), [call])

        node: Node = innermost
        for position in range(statement.depth - 1, -1, -1):
            iterator = statement.iterators[position]
            renamed = scan.iterator_names[iterator]
            kept = shared_in_scope + [
                scan.iterator_names[it] for it in statement.iterators[: position + 1]
            ]
            projected = scan.polyhedron.project_onto(kept)
            lower, upper = projected.dimension_bounds(renamed)
            loop = LoopNode(
                variable=renamed,
                lower_bounds=[lower],
                upper_bounds=[upper],
                body=[node],
                is_vector=(iterator == vector_iterator),
                is_statement_loop=True,
            )
            node = loop
        return [node]


def generate_ast(
    scop: Scop, schedule: Schedule, tiling: TilingSpec | None = None
) -> BlockNode:
    """Convenience wrapper: generate the scanning AST for *schedule*."""
    return CodeGenerator(scop, schedule, tiling).generate()
