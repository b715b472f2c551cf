"""The solution type of a lexicographic solve.

Both the incremental engine (:mod:`repro.ilp.engine`) and the reference
:func:`repro.ilp.branch_bound.solve_lexicographic` return
:class:`IlpSolution`; keeping it in its own module avoids an import cycle
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["IlpSolution"]


@dataclass(frozen=True)
class IlpSolution:
    """A feasible integer assignment plus the per-objective optimal values.

    ``node_key`` is the branch & bound path of the winning incumbent in the
    final lexicographic stage (``0`` = floor branch, ``1`` = ceil branch,
    ``()`` = the relaxation was already integral).  The incremental engine
    fills it in — among equal optima it keeps the lexicographically smallest
    path, so the key pins the search, not just its result (the goldens store
    it).  The reference solver leaves it ``None``.
    """

    assignment: dict[str, Fraction]
    objective_values: list[Fraction]
    node_key: tuple[int, ...] | None = None

    def value(self, name: str) -> int:
        """Integer value of variable *name* (0 when absent)."""
        fraction = self.assignment.get(name, Fraction(0))
        if fraction.denominator != 1:
            raise ValueError(f"variable {name} has a non-integral value {fraction}")
        return int(fraction)
