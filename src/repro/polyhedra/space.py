"""Named dimension spaces.

A :class:`Space` is an ordered collection of dimension names split into
*iterators* (set dimensions) and *parameters* (symbolic constants).  Polyhedra,
affine expressions and schedules all refer to dimensions by name, so spaces
mainly provide ordering, membership checks and concatenation/renaming helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["Space", "CONSTANT_KEY"]

# Key used in coefficient dictionaries for the constant (affine) term.
CONSTANT_KEY = "1"


@dataclass(frozen=True)
class Space:
    """An ordered set of iterator names and parameter names."""

    iterators: tuple[str, ...] = field(default_factory=tuple)
    parameters: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = list(self.iterators) + list(self.parameters)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in space: {names}")
        if CONSTANT_KEY in names:
            raise ValueError(f"dimension name {CONSTANT_KEY!r} is reserved for the constant term")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> tuple[str, ...]:
        """All dimension names, iterators first."""
        return self.iterators + self.parameters

    def __contains__(self, name: str) -> bool:
        return name in self.iterators or name in self.parameters

    def index(self, name: str) -> int:
        """Position of *name* among all dimension names."""
        return self.names.index(name)

    def is_parameter(self, name: str) -> bool:
        return name in self.parameters

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def rename_iterators(self, mapping: Mapping[str, str]) -> "Space":
        """Rename iterators according to *mapping* (missing names unchanged)."""
        return Space(
            tuple(mapping.get(name, name) for name in self.iterators), self.parameters
        )

    def product(self, other: "Space", rename: Mapping[str, str] | None = None) -> "Space":
        """Concatenate the iterators of two spaces sharing the same parameters.

        ``rename`` applies to *other*'s iterators before concatenation (used to
        disambiguate source/target copies of the same statement).
        """
        if self.parameters != other.parameters:
            raise ValueError("can only combine spaces with identical parameters")
        other_iterators = tuple(
            (rename or {}).get(name, name) for name in other.iterators
        )
        return Space(self.iterators + other_iterators, self.parameters)

    def __str__(self) -> str:
        return f"[{', '.join(self.parameters)}] -> {{ [{', '.join(self.iterators)}] }}"
