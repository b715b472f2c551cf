"""Parametric integer polyhedra (conjunctions of affine constraints).

``constraints`` — :class:`AffineConstraint` objects over exact rationals — is
the public, compared and serialised form.  Beside it every polyhedron has a
:class:`RowView`: the same constraints, one for one, as canonical integer rows
(denominators cleared, GCD-reduced) over the columns a first-encounter
:class:`~repro.linalg.varspace.VariableSpace` gives their names.  Emptiness
probes, Farkas multiplier rows, projection and :meth:`Polyhedron.signature`
read it instead of re-deriving integers from ``Fraction`` dictionaries.  It is
immutable, never compared, hashed or pickled, and encoded on first use for a
polyhedron constructed directly (``Polyhedron(space, raw)``, a decoded one).

``from_constraints``, ``add_constraints`` and ``intersect`` return *normalised*
polyhedra, born with their view: a fixed point of the sparse core's admission
rules (``SparseSystem._add``).  Adding constraints to one normalises only the
new ones and is, row for row and key for key, what simplifying the whole list
from scratch yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..linalg.rational import Rational, as_fraction
from ..linalg.sparse import SparseRow
from ..linalg.varspace import VariableSpace
from .affine import AffineExpr
from .constraint import AffineConstraint
from .fourier_motzkin import (
    constraints_to_sparse,
    eliminate_rows,
    sparse_to_constraints,
)
from .space import Space

__all__ = ["Polyhedron", "RowView"]


class RowView(NamedTuple):
    """A polyhedron's constraints as integer rows: ``rows[i]`` is ``constraints[i]``."""

    #: Column names, in the order the constraints first mention them.
    names: tuple[str, ...]
    rows: tuple[SparseRow, ...]
    #: Per row: an equality (``row == 0``) rather than an inequality (``row >= 0``).
    kinds: tuple[bool, ...]
    #: The constraints are a fixed point of the sparse core's normalisation.
    normalised: bool


@dataclass(frozen=True)
class Polyhedron:
    """A set ``{ x | constraints(x, params) }`` over a named :class:`Space`."""

    space: Space
    constraints: tuple[AffineConstraint, ...] = field(default_factory=tuple)
    _view: RowView | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        known = set(self.space.names)
        for constraint in self.constraints:
            unknown = constraint.variables() - known
            if unknown:
                raise ValueError(
                    f"constraint {constraint} references unknown dimensions {sorted(unknown)}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def universe(cls, space: Space) -> "Polyhedron":
        """The unconstrained polyhedron over *space*."""
        return cls(space, tuple())

    @classmethod
    def from_constraints(
        cls, space: Space, constraints: Iterable[AffineConstraint]
    ) -> "Polyhedron":
        """The normalised polyhedron of *constraints* over *space*."""
        return cls(space).add_constraints(constraints)

    def __getstate__(self) -> dict:
        # Derived data stays out of pickles; it is re-encoded on first use.
        return {"space": self.space, "constraints": self.constraints}

    # ------------------------------------------------------------------ #
    # Integer rows
    # ------------------------------------------------------------------ #
    def row_view(self) -> RowView:
        """The integer rows of ``constraints`` (encoded on first use)."""
        view = self._view
        if view is None:
            space = VariableSpace()
            rows, kinds = constraints_to_sparse(self.constraints, space)
            view = RowView(space.names, tuple(rows), tuple(kinds), not rows)
            # One attribute store publishes it: threads sharing a cached
            # polyhedron can at worst both encode the same view.
            object.__setattr__(self, "_view", view)
        return view

    def signature(self) -> tuple:
        """Hashable identity of the space and the set of integer rows."""
        names, rows, kinds, _ = self.row_view()
        return (
            self.space.names,
            frozenset(
                (
                    is_equality,
                    frozenset((names[column], value) for column, value in row.terms),
                    row.constant,
                )
                for row, is_equality in zip(rows, kinds)
            ),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def contains(self, point: Mapping[str, Rational]) -> bool:
        """True when *point* (an assignment of every dimension) satisfies all constraints."""
        values = {name: as_fraction(point[name]) for name in self.space.names}
        return all(constraint.is_satisfied(values) for constraint in self.constraints)

    def has_trivial_contradiction(self) -> bool:
        """True when some constraint is a constant contradiction (e.g. ``-1 >= 0``)."""
        return any(constraint.is_trivially_false() for constraint in self.constraints)

    # ------------------------------------------------------------------ #
    # Set operations
    # ------------------------------------------------------------------ #
    def add_constraints(self, constraints: Iterable[AffineConstraint]) -> "Polyhedron":
        """The normalised polyhedron with extra constraints added (same space).

        Constraint and coefficient order included, the result is what
        simplifying ``self.constraints + constraints`` from scratch yields; a
        normalised polyhedron's rows keep their constraint objects.
        """
        constraints = list(constraints)
        view = self.row_view()
        if view.normalised and not constraints:
            return self
        space = VariableSpace(view.names)
        new_rows, new_kinds = constraints_to_sparse(constraints, space)
        reusable = self.constraints if view.normalised else repeat(None)
        # SparseSystem._add's rules; a replaced row leaves None behind.
        admitted: list[tuple[SparseRow, bool, AffineConstraint | None] | None] = []
        inequality_at: dict[tuple, int] = {}
        equalities: set[tuple] = set()
        for row, is_equality, constraint in chain(
            zip(view.rows, view.kinds, reusable), zip(new_rows, new_kinds, repeat(None))
        ):
            if not row.terms and (
                row.constant == 0 if is_equality else row.constant >= 0
            ):
                continue
            if is_equality:
                canonical = row.sign_canonical()
                if canonical is not row:
                    row, constraint = canonical, None
                key = (row.terms, row.constant)
                if key in equalities:
                    continue
                equalities.add(key)
            else:
                holder = inequality_at.get(row.terms)
                if holder is not None:
                    if admitted[holder][0].constant <= row.constant:
                        continue
                    admitted[holder] = None  # the tighter row goes last
                inequality_at[row.terms] = len(admitted)
            admitted.append((row, is_equality, constraint))
        survivors = [entry for entry in admitted if entry is not None]
        names = space.names
        result = Polyhedron(
            self.space,
            tuple(
                constraint or sparse_to_constraints([(row, is_equality)], names)[0]
                for row, is_equality, constraint in survivors
            ),
        )
        if len(survivors) == len(admitted):
            # No row moved, so re-interning the constraints' names reproduces
            # the columns: the result is a fixed point and keeps its rows.
            rows, kinds, _ = zip(*survivors) if survivors else ((), (), ())
            object.__setattr__(result, "_view", RowView(names, rows, kinds, True))
        return result

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection of two polyhedra over the same space."""
        if other.space != self.space:
            raise ValueError("cannot intersect polyhedra over different spaces")
        return self.add_constraints(other.constraints)

    def project_onto(self, names: Sequence[str]) -> "Polyhedron":
        """Project onto the listed iterator dimensions (parameters always kept)."""
        keep = set(names) | set(self.space.parameters)
        drop = [name for name in self.space.iterators if name not in keep]
        columns, rows, kinds, _ = self.row_view()
        projected = eliminate_rows(columns, rows, kinds, drop)
        new_space = Space(
            tuple(n for n in self.space.iterators if n in keep), self.space.parameters
        )
        return Polyhedron.from_constraints(new_space, projected)

    def rename_iterators(self, mapping: Mapping[str, str]) -> "Polyhedron":
        """Rename iterator dimensions (space and constraints consistently)."""
        return Polyhedron(
            self.space.rename_iterators(mapping),
            tuple(constraint.rename(dict(mapping)) for constraint in self.constraints),
        )

    def fix_dimensions(self, values: Mapping[str, Rational]) -> "Polyhedron":
        """Substitute fixed numeric values for some dimensions.

        The fixed dimensions are removed from the space (parameters included),
        which is how parameter context values are applied before enumeration.
        """
        bindings = {name: AffineExpr.const(value) for name, value in values.items()}
        constraints = [constraint.substitute(bindings) for constraint in self.constraints]
        new_space = Space(
            tuple(n for n in self.space.iterators if n not in values),
            tuple(n for n in self.space.parameters if n not in values),
        )
        return Polyhedron.from_constraints(new_space, constraints)

    # ------------------------------------------------------------------ #
    # Emptiness / sampling / enumeration (delegated to the ILP layer)
    # ------------------------------------------------------------------ #
    def is_empty(self, extra_assumptions: Iterable[AffineConstraint] = ()) -> bool:
        """Exact integer emptiness check (parameters treated as free integers),
        asked of a root built for this call: the cold reference."""
        from .emptiness import _probe

        # Nothing is converted when a normalised polyhedron assumes nothing.
        return _probe(self.add_constraints(extra_assumptions))[0] is None

    def sample_point(self) -> dict[str, int] | None:
        """Some integer point of the polyhedron, or ``None`` when empty."""
        from .emptiness import _probe

        return _probe(self.add_constraints(()))[0]

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #
    def dimension_bounds(
        self, name: str
    ) -> tuple[list[AffineExpr], list[AffineExpr]]:
        """Symbolic lower and upper bound expressions for dimension *name*.

        The bounds are derived from constraints mentioning *name*: each
        constraint ``a*name + e >= 0`` with ``a > 0`` yields the lower bound
        ``ceil(-e / a)`` (returned as the affine expression ``-e/a``; the caller
        applies the ceiling), and symmetrically for upper bounds.  Equalities
        contribute to both lists.
        """
        lower: list[AffineExpr] = []
        upper: list[AffineExpr] = []
        for constraint in self.constraints:
            coeff = constraint.coefficient(name)
            if coeff == 0:
                continue
            rest = constraint.expression - AffineExpr({name: coeff})
            bound = rest * Fraction(-1, 1) * (Fraction(1) / coeff)
            if constraint.is_equality:
                lower.append(bound)
                upper.append(bound)
            elif coeff > 0:
                lower.append(bound)
            else:
                upper.append(bound)
        return lower, upper

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{self.space} : {body}"
