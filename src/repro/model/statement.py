"""Statements of a static control part (SCoP)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from ..polyhedra.affine import AffineExpr
from ..polyhedra.polyhedron import Polyhedron
from .access import ArrayAccess

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Statement", "StatementBody"]

# A statement body executes the statement instance for concrete iterator values:
# it receives the dictionary of numpy arrays and the iterator/parameter values.
StatementBody = Callable[[dict[str, "np.ndarray"], Mapping[str, int]], None]


@dataclass(frozen=True)
class Statement:
    """One statement of a SCoP.

    Attributes
    ----------
    name:
        Unique statement name, by convention ``S0``, ``S1``, ... in textual order.
    index:
        Position in the SCoP's textual order (0-based).
    domain:
        Iteration domain over the statement's iterators and the SCoP parameters.
    accesses:
        Array accesses performed by one execution of the statement.
    original_schedule:
        The identity (2d+1-style) schedule describing the original execution
        order: alternating constant levels and iterator levels.
    body:
        Optional executable body used by the validation executor.
    text:
        C-like source text, used by the code writers for readability.
    """

    name: str
    index: int
    domain: Polyhedron
    accesses: tuple[ArrayAccess, ...]
    original_schedule: tuple[AffineExpr, ...]
    body: StatementBody | None = None
    text: str = ""

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def iterators(self) -> tuple[str, ...]:
        return self.domain.space.iterators

    @property
    def parameters(self) -> tuple[str, ...]:
        return self.domain.space.parameters

    @property
    def depth(self) -> int:
        """Number of loops surrounding the statement."""
        return len(self.iterators)

    def writes(self) -> list[ArrayAccess]:
        return [access for access in self.accesses if access.is_write]

    def reads(self) -> list[ArrayAccess]:
        return [access for access in self.accesses if access.is_read]

    def accessed_arrays(self) -> set[str]:
        return {access.array for access in self.accesses}

    def accesses_to(self, array: str) -> list[ArrayAccess]:
        return [access for access in self.accesses if access.array == array]

    # ------------------------------------------------------------------ #
    # Heuristic helpers used by cost functions and directives
    # ------------------------------------------------------------------ #
    def contiguity_votes(self) -> dict[str, int]:
        """How many accesses are stride-1 in each iterator."""
        votes: dict[str, int] = {name: 0 for name in self.iterators}
        for access in self.accesses:
            iterator = access.contiguous_iterator()
            if iterator in votes:
                votes[iterator] += 1
        return votes

    def preferred_vector_iterator(self) -> str | None:
        """The iterator with the most stride-1 accesses (ties: innermost wins)."""
        votes = self.contiguity_votes()
        if not votes or all(count == 0 for count in votes.values()):
            return None
        best = max(votes.values())
        candidates = [name for name in self.iterators if votes[name] == best]
        return candidates[-1]

    def iterator_extent(self, name: str, parameter_values: Mapping[str, int]) -> int:
        """Approximate trip count of iterator *name* for given parameter values.

        The extent is measured on the rectangular hull (independent per-iterator
        bounds), which is what the big-loops-first cost function needs.
        """
        projected = self.domain.project_onto([name]).fix_dimensions(parameter_values)
        lower, upper = projected.dimension_bounds(name)
        if not lower or not upper:
            return 0
        import math

        low = max(math.ceil(bound.constant) for bound in lower)
        high = min(math.floor(bound.constant) for bound in upper)
        return max(0, int(high) - int(low) + 1)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, arrays: dict[str, np.ndarray], values: Mapping[str, int]) -> None:
        """Run the statement body for one instance (no-op when no body is attached)."""
        if self.body is not None:
            self.body(arrays, values)

    def __str__(self) -> str:
        loops = ", ".join(self.iterators)
        return f"{self.name}[{loops}]: {self.text or '<no body>'}"
