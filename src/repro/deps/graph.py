"""Dependence graph utilities: strongly connected components and one topological order.

The scheduler's distribution fallback (Algorithm 1, lines 32-36) splits the
statements according to the strongly connected components of the dependence
graph and orders the components topologically.  The fusion controller orders
its statement groups (Listing 2 ``fusion`` entries, the dimensionality
heuristic) through the same :meth:`DependenceGraph.topological_order`: a
requested order is legal exactly when it comes back unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence, TypeVar

from .dependence import Dependence

__all__ = ["DependenceGraph"]

Group = TypeVar("Group", bound=Sequence[str])


@dataclass
class DependenceGraph:
    """A directed multigraph over statement names."""

    nodes: list[str]
    edges: list[tuple[str, str, Dependence]] = field(default_factory=list)

    @classmethod
    def from_dependences(
        cls, statements: Sequence[str], dependences: Iterable[Dependence]
    ) -> "DependenceGraph":
        graph = cls(list(statements))
        for dependence in dependences:
            graph.edges.append((dependence.source, dependence.target, dependence))
        return graph

    # ------------------------------------------------------------------ #
    # Strongly connected components (Tarjan)
    # ------------------------------------------------------------------ #
    def strongly_connected_components(self) -> list[list[str]]:
        """SCCs in reverse topological order of the condensation (Tarjan's order)."""
        index_counter = 0
        indices: dict[str, int] = {}
        low_links: dict[str, int] = {}
        on_stack: dict[str, bool] = {}
        stack: list[str] = []
        components: list[list[str]] = []

        adjacency: dict[str, list[str]] = {node: [] for node in self.nodes}
        for source, target, _ in self.edges:
            if source != target:
                adjacency[source].append(target)

        def strong_connect(node: str) -> None:
            nonlocal index_counter
            # Iterative Tarjan to avoid deep recursion on long statement chains.
            work: list[tuple[str, int]] = [(node, 0)]
            while work:
                current, child_index = work.pop()
                if child_index == 0:
                    indices[current] = index_counter
                    low_links[current] = index_counter
                    index_counter += 1
                    stack.append(current)
                    on_stack[current] = True
                recurse = False
                neighbours = adjacency[current]
                for position in range(child_index, len(neighbours)):
                    neighbour = neighbours[position]
                    if neighbour not in indices:
                        work.append((current, position + 1))
                        work.append((neighbour, 0))
                        recurse = True
                        break
                    if on_stack.get(neighbour, False):
                        low_links[current] = min(low_links[current], indices[neighbour])
                if recurse:
                    continue
                if low_links[current] == indices[current]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == current:
                            break
                    components.append(sorted(component, key=self.nodes.index))
                if work:
                    parent = work[-1][0]
                    low_links[parent] = min(low_links[parent], low_links[current])

        for node in self.nodes:
            if node not in indices:
                strong_connect(node)
        return components

    def condensation_order(self) -> list[list[str]]:
        """SCCs ordered topologically (sources first), ties broken by textual order.

        The condensation is acyclic, so the order always exists.
        """
        components = sorted(
            self.strongly_connected_components(), key=lambda c: self.nodes.index(c[0])
        )
        return self.topological_order(components)

    def topological_order(self, groups: Sequence[Group]) -> list[Group] | None:
        """*groups* ordered so that every edge between two of them runs forward.

        Kahn's algorithm, always taking the earliest ready group in the given
        order: the result is the lexicographically least legal permutation,
        so a legal order comes back unchanged.  Edges inside a group (fused
        statements) or touching a node of no group impose nothing.  ``None``
        when the groups cannot be ordered (a cycle between them).
        """
        group_of = {node: index for index, group in enumerate(groups) for node in group}
        successors: list[set[int]] = [set() for _ in groups]
        in_degree = [0] * len(groups)
        for source, target, _ in self.edges:
            a, b = group_of.get(source), group_of.get(target)
            if a is not None and b is not None and a != b and b not in successors[a]:
                successors[a].add(b)
                in_degree[b] += 1
        ready = [index for index, degree in enumerate(in_degree) if degree == 0]
        heapify(ready)
        ordered: list[Group] = []
        while ready:
            current = heappop(ready)
            ordered.append(groups[current])
            for successor in successors[current]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heappush(ready, successor)
        return ordered if len(ordered) == len(groups) else None
