"""AST of the generated scanning code.

The code generator produces a small loop AST that is consumed by three
back-ends: the C writer (for human inspection), the executor (to validate the
legality of transformations by running the kernel), and the machine model (to
estimate cycles).  Loop bounds are kept symbolic as lists of affine
expressions: the effective lower bound is the maximum of the ceilings of the
lower expressions, the effective upper bound the minimum of the floors of the
upper expressions (both inclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint

__all__ = ["Node", "LoopNode", "GuardNode", "CallNode", "BlockNode"]


@dataclass
class Node:
    """Base class of AST nodes."""

    def children(self) -> list["Node"]:
        return []

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class BlockNode(Node):
    """A sequence of nodes executed in order."""

    body: list[Node] = field(default_factory=list)

    def children(self) -> list[Node]:
        return list(self.body)


@dataclass
class LoopNode(Node):
    """A for-loop scanning one dimension.

    ``lower_bounds``/``upper_bounds`` are affine expressions of the enclosing
    loop variables and of the parameters; the iteration range is
    ``[max(ceil(lb)), min(floor(ub))]`` inclusive.
    """

    variable: str
    lower_bounds: list[AffineExpr]
    upper_bounds: list[AffineExpr]
    body: list[Node] = field(default_factory=list)
    is_parallel: bool = False
    is_vector: bool = False
    is_tile_loop: bool = False
    # Per-statement leaf loops recover the original iterators from the scan
    # dimensions; a production code generator (CLooG/isl) folds them away, so
    # the cost model treats them differently from genuine shared loops.
    is_statement_loop: bool = False
    schedule_dimension: int | None = None
    # Bound groups: the loop range is the union hull
    # [min over groups of max(ceil(lb)), max over groups of min(floor(ub))].
    # When absent, all bounds form a single group (pure intersection).
    lower_bound_groups: list[list[AffineExpr]] | None = None
    upper_bound_groups: list[list[AffineExpr]] | None = None

    def children(self) -> list[Node]:
        return list(self.body)

    def annotations(self) -> list[str]:
        notes = []
        if self.is_parallel:
            notes.append("parallel")
        if self.is_vector:
            notes.append("vector")
        if self.is_tile_loop:
            notes.append("tile")
        return notes


@dataclass
class GuardNode(Node):
    """A conditional guard: the body executes only when every condition holds."""

    conditions: list[AffineConstraint]
    body: list[Node] = field(default_factory=list)

    def children(self) -> list[Node]:
        return list(self.body)


@dataclass
class CallNode(Node):
    """Execution of one statement instance.

    ``iterator_values`` maps each original iterator name of the statement to
    the affine expression (over scan variables and parameters) giving its
    value at this point of the generated code.
    """

    statement: Statement
    iterator_values: dict[str, AffineExpr] = field(default_factory=dict)

    def children(self) -> list[Node]:
        return []


def count_loops(root: Node) -> int:
    """Number of loop nodes in the tree (used by complexity metrics)."""
    return sum(1 for node in root.walk() if isinstance(node, LoopNode))


def count_guards(root: Node) -> int:
    """Number of guard nodes in the tree (used by complexity metrics)."""
    return sum(1 for node in root.walk() if isinstance(node, GuardNode))
