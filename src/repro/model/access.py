"""Array accesses with affine subscripts."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from ..polyhedra.affine import AffineExpr

__all__ = ["AccessKind", "ArrayAccess"]


class AccessKind(Enum):
    """Whether an access reads or writes the array element."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class ArrayAccess:
    """An access ``array[indices...]`` with affine subscript expressions.

    Scalars are modelled as zero-dimensional arrays (empty ``indices``).
    """

    array: str
    indices: tuple[AffineExpr, ...]
    kind: AccessKind

    @classmethod
    def read(cls, array: str, indices: Sequence[AffineExpr | int]) -> "ArrayAccess":
        return cls(array, _coerce_indices(indices), AccessKind.READ)

    @classmethod
    def write(cls, array: str, indices: Sequence[AffineExpr | int]) -> "ArrayAccess":
        return cls(array, _coerce_indices(indices), AccessKind.WRITE)

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

    @property
    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    @property
    def rank(self) -> int:
        """Number of subscript dimensions."""
        return len(self.indices)

    def variables(self) -> set[str]:
        """All dimension names used in the subscripts."""
        names: set[str] = set()
        for index in self.indices:
            names |= index.variables()
        return names

    def rename(self, mapping: Mapping[str, str]) -> "ArrayAccess":
        """Rename iterator/parameter dimensions in the subscripts."""
        return ArrayAccess(
            self.array, tuple(index.rename(dict(mapping)) for index in self.indices), self.kind
        )

    def evaluate(self, values: Mapping[str, int]) -> tuple[int, ...]:
        """Concrete subscript values for a full iterator/parameter assignment."""
        result = []
        for index in self.indices:
            terms, value, denominator = index.integer_form
            for name, coefficient in terms:
                value += coefficient * values[name]
            if denominator != 1:
                if value % denominator:
                    raise ValueError(
                        f"non-integral subscript {index} = {value}/{denominator}"
                    )
                value //= denominator
            result.append(value)
        return tuple(result)

    def contiguous_iterator(self) -> str | None:
        """The iterator that makes this access stride-1, if any.

        For a row-major array, the access is contiguous in the iterator that
        appears with coefficient +1 in the *last* subscript and nowhere else in
        that subscript with a larger coefficient.  Scalars have no contiguous
        iterator.
        """
        if not self.indices:
            return None
        last = self.indices[-1]
        candidates = [
            name for name, coeff in last.coefficients.items() if coeff == 1
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def __str__(self) -> str:
        subscripts = "".join(f"[{index}]" for index in self.indices)
        marker = "W" if self.is_write else "R"
        return f"{marker}:{self.array}{subscripts}"


def _coerce_indices(indices: Sequence[AffineExpr | int]) -> tuple[AffineExpr, ...]:
    coerced = []
    for index in indices:
        if isinstance(index, AffineExpr):
            coerced.append(index)
        else:
            coerced.append(AffineExpr.const(index))
    return tuple(coerced)
