"""Fusion and distribution control.

Three mechanisms decide loop fusion/distribution, in decreasing priority:

1. **Explicit configuration** (Listing 2 ``fusion`` entries): the user lists,
   for a scheduling dimension, groups of statements to fuse; different groups
   are distributed (given different constant values at that dimension).
2. **Dimensionality heuristic** (the paper's default, similar to Pluto's
   ``smartfuse``): at the outermost dimension, statements with different loop
   dimensionality are distributed.
3. **SCC fallback** (Algorithm 1, lines 32-36): when the per-dimension ILP has
   no solution even after closing the current band, the statements are
   distributed according to the strongly connected components of the remaining
   dependence graph.

A distribution dimension assigns one constant per group; groups are ordered so
that every remaining dependence flows forward, which strongly satisfies all
inter-group dependences.  All three order their groups through
:meth:`~repro.deps.graph.DependenceGraph.topological_order`: configured groups
must already be in a legal order (it returns them unchanged, otherwise a
:class:`SchedulingError` is raised), the heuristic's groups may be reordered
(no distribution when they cannot be ordered), and the SCC fallback takes the
graph's ``condensation_order``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..deps.dependence import Dependence
from ..deps.graph import DependenceGraph
from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from .config import FusionSpec, SchedulerConfig
from .errors import SchedulingError

__all__ = ["DistributionDecision", "FusionController"]


@dataclass(frozen=True)
class DistributionDecision:
    """A distribution of statements into ordered groups at one dimension."""

    groups: tuple[tuple[str, ...], ...]
    origin: str  # "config", "dimensionality", "scc"

    def constant_for(self, statement: str) -> int:
        for position, group in enumerate(self.groups):
            if statement in group:
                return position
        raise KeyError(f"statement {statement!r} is in no distribution group")

    def rows(self, statements: Sequence[Statement]) -> dict[str, AffineExpr]:
        """The constant schedule row of every statement for this dimension."""
        return {
            statement.name: AffineExpr.const(self.constant_for(statement.name))
            for statement in statements
        }

    def separates(self, source: str, target: str) -> bool:
        """True when source and target fall into different groups."""
        return self.constant_for(source) != self.constant_for(target)


class FusionController:
    """Decides distribution dimensions for the scheduling loop."""

    def __init__(self, config: SchedulerConfig, statements: Sequence[Statement]):
        self.config = config
        self.statements = list(statements)
        self._by_index = {str(statement.index): statement.name for statement in statements}
        self._names = {statement.name for statement in statements}
        self._dimensionality_done = False

    # ------------------------------------------------------------------ #
    # Decision points
    # ------------------------------------------------------------------ #
    def configured_distribution(
        self, dimension: int, active_dependences: Sequence[Dependence]
    ) -> DistributionDecision | None:
        """Distribution requested explicitly by the configuration for *dimension*."""
        spec = self.config.fusion_for(dimension)
        if spec is None:
            return None
        groups = self._expand_spec(spec)
        if len(groups) <= 1 and not spec.total_distribution:
            return None
        if self._graph(active_dependences).topological_order(groups) != groups:
            raise SchedulingError(
                "the requested fusion/distribution violates dependences; "
                "no legal schedule exists under this configuration"
            )
        return DistributionDecision(tuple(tuple(g) for g in groups), "config")

    def dimensionality_distribution(
        self, dimension: int, active_dependences: Sequence[Dependence]
    ) -> DistributionDecision | None:
        """The default heuristic: distribute statements of different loop depth."""
        if (
            dimension != 0
            or not self.config.dimensionality_fusion_heuristic
            or self._dimensionality_done
        ):
            return None
        self._dimensionality_done = True
        depths = {statement.depth for statement in self.statements}
        if len(depths) <= 1:
            return None
        groups = [
            tuple(statement.name for statement in self.statements if statement.depth == depth)
            for depth in sorted(depths, reverse=True)
        ]
        ordered = self._graph(active_dependences).topological_order(groups)
        if ordered is None:
            return None
        return DistributionDecision(tuple(ordered), "dimensionality")

    def scc_distribution(
        self, active_dependences: Sequence[Dependence]
    ) -> DistributionDecision | None:
        """The fallback distribution along strongly connected components."""
        components = self._graph(active_dependences).condensation_order()
        if len(components) <= 1:
            return None
        return DistributionDecision(tuple(tuple(c) for c in components), "scc")

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _graph(self, active_dependences: Sequence[Dependence]) -> DependenceGraph:
        return DependenceGraph.from_dependences(
            [statement.name for statement in self.statements], active_dependences
        )

    def _expand_spec(self, spec: FusionSpec) -> list[list[str]]:
        if spec.total_distribution and not spec.groups:
            return [[statement.name] for statement in self.statements]
        groups: list[list[str]] = []
        mentioned: set[str] = set()
        for group in spec.groups:
            resolved = [self._resolve_statement(member) for member in group]
            groups.append(resolved)
            mentioned.update(resolved)
        for statement in self.statements:
            if statement.name not in mentioned:
                groups.append([statement.name])
        return groups

    def _resolve_statement(self, identifier: str) -> str:
        if identifier in self._names:
            return identifier
        if identifier in self._by_index:
            return self._by_index[identifier]
        raise SchedulingError(
            f"fusion specification references unknown statement {identifier!r}"
        )
