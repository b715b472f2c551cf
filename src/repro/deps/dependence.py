"""Dependence objects.

A dependence ``S -> R`` relates instances of a source statement that must
execute before instances of a target statement.  It is represented exactly, as
a polyhedron over the concatenation of the two statements' (renamed) iteration
spaces plus the global parameters.

A dependence also remembers what was proved about it.  One kernel is scheduled
under many strategies against the *same* dependence objects (a ``Session``
caches them per SCoP), and every strategy asks the same pure questions of
them: is ``polyhedron`` empty under these extra constraints (satisfaction,
parallelism and legality probes), what are the Farkas rows of this affine form
over it (the legality and bounding blocks of the ILPs).  Each dependence keeps
a private memo of the answers (:meth:`Dependence.remembered`): verdicts keyed
by the extra constraints as given (:meth:`Dependence.is_empty_with`), immutable
row blocks under :mod:`repro.scheduler.legality`'s keys.  The memo lives and
dies with the object and is never compared, hashed, pickled, serialised or
copied by ``dataclasses.replace``.  Concurrent workers may both compute an
entry: the values are equal and a dictionary store is atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import zip_longest
from typing import Callable, Hashable, Iterator, Mapping, Sequence, TypeVar

from ..model.access import ArrayAccess
from ..obs import count
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.emptiness import is_empty_from_root
from ..polyhedra.polyhedron import Polyhedron

__all__ = [
    "DependenceKind",
    "Dependence",
    "SOURCE_SUFFIX",
    "TARGET_SUFFIX",
    "PROBE_VERDICTS_REUSED",
    "lexicographic_levels",
]

SOURCE_SUFFIX = "__src"
TARGET_SUFFIX = "__tgt"

T = TypeVar("T")

#: The work-ledger name a remembered verdict is counted under.
PROBE_VERDICTS_REUSED = "probe_verdicts_reused"


class DependenceKind(Enum):
    """Classical dependence classes."""

    FLOW = "RAW"   # read after write
    ANTI = "WAR"   # write after read
    OUTPUT = "WAW"  # write after write

    @classmethod
    def of(cls, source: ArrayAccess, target: ArrayAccess) -> "DependenceKind":
        if source.is_write and target.is_read:
            return cls.FLOW
        if source.is_read and target.is_write:
            return cls.ANTI
        if source.is_write and target.is_write:
            return cls.OUTPUT
        raise ValueError("a dependence needs at least one write access")


@dataclass(frozen=True)
class Dependence:
    """An exact dependence between two statements.

    ``polyhedron`` lives in the combined space whose iterators are the source
    statement's iterators suffixed with ``__src`` followed by the target
    statement's iterators suffixed with ``__tgt``; ``source_map`` and
    ``target_map`` give the renaming from original iterator names.

    A predicate answered from memory counts one under
    :data:`PROBE_VERDICTS_REUSED` on the work ledger (:mod:`repro.obs.ledger`).
    """

    source: str
    target: str
    kind: DependenceKind
    array: str
    polyhedron: Polyhedron
    source_map: dict[str, str]
    target_map: dict[str, str]
    depth: int
    source_access: ArrayAccess | None = None
    target_access: ArrayAccess | None = None
    _memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # What was proved stays out of pickles; it is proved again on demand.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def identifier(self) -> str:
        """A short, unique-ish label used for ILP variable naming and reports."""
        return f"{self.source}_{self.target}_{self.kind.value}_{self.array}_d{self.depth}"

    # ------------------------------------------------------------------ #
    # Schedule-difference helpers
    # ------------------------------------------------------------------ #
    def difference_expression(
        self,
        source_row: AffineExpr,
        target_row: AffineExpr,
    ) -> AffineExpr:
        """``target_row(tgt iters) - source_row(src iters)`` in the dependence space.

        Both rows are expressed over the original iterator names of their
        statements (plus parameters); they are renamed into the dependence
        space before being subtracted.
        """
        renamed_source = source_row.rename(self.source_map)
        renamed_target = target_row.rename(self.target_map)
        return renamed_target - renamed_source

    def is_strongly_satisfied_by(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row >= 1`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant >= 1
        return self.is_empty_with([AffineConstraint.less_equal(difference, 0)])

    def is_weakly_satisfied_by(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row >= 0`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant >= 0
        return self.is_empty_with([AffineConstraint.less_equal(difference, -1)])

    def has_zero_distance_under(
        self, source_row: AffineExpr, target_row: AffineExpr
    ) -> bool:
        """True when ``target_row - source_row == 0`` over the whole dependence."""
        difference = self.difference_expression(source_row, target_row)
        if difference.is_constant():
            return difference.constant == 0
        return self.is_empty_with(
            [AffineConstraint.greater_equal(difference, 1)]
        ) and self.is_empty_with([AffineConstraint.less_equal(difference, -1)])

    # ------------------------------------------------------------------ #
    # What was proved about this dependence
    # ------------------------------------------------------------------ #
    def is_empty_with(self, extra: Sequence[AffineConstraint]) -> bool:
        """``polyhedron.is_empty(extra)``, decided once per *extra* as given.

        A remembered verdict builds no polyhedron and no signature: the key is
        the constraint objects themselves, in the order given.  A new one is
        probed from the root the open probe scope keeps for this dependence.
        """
        key = ("empty", *extra)
        return self.remembered(key, lambda: is_empty_from_root(self, self.polyhedron, key[1:]))

    def remembered(
        self,
        key: Hashable,
        compute: Callable[[], T],
        counter: str = PROBE_VERDICTS_REUSED,
    ) -> T:
        """``compute()`` once per *key* while this object lives.

        *compute* must be a pure function of the dependence and the key, and
        nobody may mutate its value: every later caller is handed the same
        one, and the hand-over is counted under *counter* on the work ledger.
        """
        memo = self._memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        try:
            value = memo[key]
        except KeyError:
            value = memo[key] = compute()
            return value
        count(counter)
        return value

    def __str__(self) -> str:
        return (
            f"{self.kind.value} {self.source} -> {self.target} on {self.array} "
            f"(depth {self.depth})"
        )


def lexicographic_levels(
    source_rows: Sequence[AffineExpr],
    target_rows: Sequence[AffineExpr],
    source_map: Mapping[str, str],
    target_map: Mapping[str, str],
    sign: int,
) -> Iterator[list[AffineConstraint] | None]:
    """Walk the levels of ``difference = target_rows - source_rows`` (renamed by
    the maps, zero-padded) for ``sign * difference >= 1``: dependence analysis
    (*sign* 1) and the legality check (-1).  Per level, the constraints to probe
    it under (the earlier non-constant differences ``== 0``, then its own), or
    ``None`` when a constant decides it: a zero leaves the prefix as it is, any
    other constant falsifies every deeper prefix and ends the walk, after one
    probe of the prefix if its sign is *sign*.
    """
    prefix: list[AffineConstraint] = []
    zero = AffineExpr.const(0)
    for source_row, target_row in zip_longest(source_rows, target_rows, fillvalue=zero):
        difference = target_row.rename(target_map) - source_row.rename(source_map)
        condition = AffineConstraint.greater_equal(difference * sign, 1)
        if not difference.is_constant():
            yield prefix + [condition]
            prefix.append(AffineConstraint.equals(difference, 0))
        elif difference.constant == 0:
            yield None
        else:
            yield prefix + [condition] if condition.is_trivially_true() else None
            return
