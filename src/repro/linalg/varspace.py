"""Variable interning and integer-normalised row representations.

The numeric core historically shuffled ``{variable_name: Fraction}``
dictionaries between the polyhedral layer, the ILP builder and the solvers.
Every hash lookup, Fraction normalisation and dict merge in those hot loops is
avoidable: a scheduling run uses a fixed, small universe of variable names, so
the names can be interned to dense column indices once and every row becomes a
plain list of machine integers (denominators cleared, GCD-reduced).

:class:`VariableSpace` performs the interning, and
:func:`~repro.linalg.rational.scale_to_integers` /
:func:`~repro.linalg.rational.normalize_integer_row` turn rational coefficient
vectors into canonical integer rows.  They are shared by the
Fourier–Motzkin/Farkas elimination core (:mod:`repro.polyhedra`) and the
progression rows of the scheduler (:mod:`repro.scheduler.progression`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .rational import Rational, as_fraction

__all__ = ["VariableSpace"]


class VariableSpace:
    """Interns variable names to dense column indices.

    The mapping is append-only: a name keeps its column for the lifetime of
    the space, which is what lets row blocks encoded early in a scheduling run
    stay valid for every later ILP of the same run.
    """

    __slots__ = ("_index_of", "_names")

    def __init__(self, names: Iterable[str] = ()):
        self._index_of: dict[str, int] = {}
        self._names: list[str] = []
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Column index of *name*, allocating a new column on first sight."""
        index = self._index_of.get(name)
        if index is None:
            index = len(self._names)
            self._index_of[name] = index
            self._names.append(name)
        return index

    def index_of(self, name: str) -> int:
        """Column index of an already-interned name (:class:`KeyError` otherwise)."""
        return self._index_of[name]

    def get(self, name: str) -> int | None:
        """Column index of *name*, or ``None`` when it was never interned."""
        return self._index_of.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index_of

    def encode(
        self, terms: Mapping[str, Rational], width: int | None = None
    ) -> list[Fraction]:
        """Dense coefficient vector for a ``{name: value}`` mapping.

        Unknown names are interned on the fly; ``width`` pads the result (it
        must be at least the space's current size when given).
        """
        row = [Fraction(0)] * (len(self._names) if width is None else width)
        for name, value in terms.items():
            index = self.intern(name)
            if index >= len(row):
                row.extend([Fraction(0)] * (index + 1 - len(row)))
            row[index] += as_fraction(value)
        return row
