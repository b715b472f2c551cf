"""Sparse, pruning Fourier–Motzkin elimination.

This is the representation every elimination runs on; the textbook dense
elimination in :mod:`repro.polyhedra.fourier_motzkin` is kept only as the
reference the differential tests call.  Three things dense rows cannot afford
are cheap here:

* **sparse combination** — a Fourier–Motzkin step merges two sorted
  ``(column, value)`` term lists instead of walking the full column width,
  and a per-column occurrence index makes the minimum-fill column choice a
  lookup instead of a full matrix scan;
* **redundancy control** — every candidate row passes three provably-safe
  filters before it is admitted:

  - *duplicate / scalar-multiple hashing*: rows are GCD-reduced on
    construction (:class:`~repro.linalg.sparse.SparseRow`), so two rows
    describing the same half-space are equal objects and a hash probe on
    their term tuple finds them;
  - *syntactic subsumption*: among inequalities with identical coefficient
    terms only the strongest (smallest constant, since rows read
    ``terms + constant >= 0``) survives;
  - *Imbert coefficient-bound pruning*: a combined inequality whose
    derivation used more than ``1 + |E_h|`` original inequalities — where
    ``E_h`` is the set of columns eliminated along that derivation — cannot
    be irredundant (Imbert's first acceleration theorem, the per-row
    refinement of Kohler's ``1 + k`` bound; equalities are modded out
    first, so only inequality ancestors count) and is dropped;

* **observability** — every system counts eliminations, generated/pruned/
  emitted rows and simplification row scans into its own
  :class:`FmStatistics` (``system.stats``);
  :func:`repro.polyhedra.farkas.farkas_nonnegative` reports a
  linearisation's to the work ledger, which is how they reach
  ``SchedulingResult.statistics``; the ``"solver"`` blocks of the golden
  schedule files pin the counters.

The elimination semantics mirror the dense reference exactly: equalities
substitute the cheapest pivot away (Gaussian step), everything else is the
classic lower×upper combination, and the result is the rational shadow of
the projection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..linalg.sparse import SparseRow

__all__ = ["FmStatistics", "SparseSystem"]


@dataclass
class FmStatistics:
    """Counters describing elimination work (monotonic, one per system).

    ``rows_pruned_*`` split the redundancy filters; ``rows_emitted`` counts
    the rows surviving whole :meth:`SparseSystem.eliminate_columns` runs —
    for the Farkas path these are exactly the rows that reach the ILP
    encoder.  ``simplify_row_scans`` counts rows the normalisation machinery
    touched; the dense reference and the sparse core only touch rows an
    elimination step actually changed, which is what the regression test
    pins.
    """

    eliminations: int = 0
    rows_generated: int = 0
    rows_pruned_trivial: int = 0
    rows_pruned_duplicate: int = 0
    rows_pruned_subsumed: int = 0
    rows_pruned_imbert: int = 0
    rows_emitted: int = 0
    simplify_row_scans: int = 0
    elimination_seconds: float = 0.0

    @property
    def rows_pruned(self) -> int:
        """All pruned rows, whichever filter dropped them."""
        return (
            self.rows_pruned_trivial
            + self.rows_pruned_duplicate
            + self.rows_pruned_subsumed
            + self.rows_pruned_imbert
        )

    def as_dict(self) -> dict[str, int | float]:
        return {
            "fm_eliminations": self.eliminations,
            "fm_rows_generated": self.rows_generated,
            "fm_rows_pruned_trivial": self.rows_pruned_trivial,
            "fm_rows_pruned_duplicate": self.rows_pruned_duplicate,
            "fm_rows_pruned_subsumed": self.rows_pruned_subsumed,
            "fm_rows_pruned_imbert": self.rows_pruned_imbert,
            "fm_rows_pruned": self.rows_pruned,
            "fm_rows_emitted": self.rows_emitted,
            "fm_simplify_row_scans": self.simplify_row_scans,
            "fm_elimination_seconds": self.elimination_seconds,
        }


class SparseSystem:
    """A mutable sparse constraint system with per-column occurrence indices.

    Rows are :class:`SparseRow` instances read as ``terms + constant >= 0``
    (inequalities) or ``== 0`` (equalities).  The system tracks, per row, the
    set of *original inequality* indices its derivation combined — the
    history Kohler's redundancy criterion is evaluated against — and, per
    column, the ids of the live rows touching it, which is what makes the
    minimum-fill column choice and the elimination steps proportional to the
    rows actually involved instead of the whole system.
    """

    __slots__ = (
        "_rows",
        "_kinds",
        "_history",
        "_elim",
        "_occurrence",
        "_inequality_keys",
        "_equality_keys",
        "stats",
    )

    def __init__(self, stats: FmStatistics | None = None):
        self._rows: list[SparseRow | None] = []
        self._kinds: list[bool] = []
        #: Per row: the original-inequality indices its derivation combined.
        self._history: list[frozenset[int]] = []
        #: Per row: the columns eliminated along its derivation (``E_h``).
        self._elim: list[frozenset[int]] = []
        self._occurrence: dict[int, set[int]] = {}
        #: terms -> row id of the strongest inequality with those terms.
        self._inequality_keys: dict[tuple, int] = {}
        #: sign-canonical (terms, constant) -> row id of an equality.
        self._equality_keys: dict[tuple, int] = {}
        self.stats = stats if stats is not None else FmStatistics()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[SparseRow],
        kinds: Iterable[bool],
        stats: FmStatistics | None = None,
    ) -> "SparseSystem":
        """Load an original system; each inequality seeds its own history."""
        system = cls(stats)
        empty = frozenset()
        inequality_count = 0
        for row, is_equality in zip(rows, kinds):
            if is_equality:
                system._add(row, True, empty, empty)
            else:
                system._add(row, False, frozenset((inequality_count,)), empty)
                inequality_count += 1
        return system

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def rows(self) -> list[tuple[SparseRow, bool]]:
        """Live ``(row, is_equality)`` pairs in insertion order."""
        return [
            (row, self._kinds[index])
            for index, row in enumerate(self._rows)
            if row is not None
        ]

    def __len__(self) -> int:
        return sum(1 for row in self._rows if row is not None)

    def occurrence_counts(self, column: int) -> tuple[int, int, bool]:
        """(positive, negative, any-equality) occurrence summary of a column."""
        positives = negatives = 0
        has_equality = False
        for row_id in self._occurrence.get(column, ()):
            row = self._rows[row_id]
            assert row is not None
            if self._kinds[row_id]:
                has_equality = True
            elif row.coefficient(column) > 0:
                positives += 1
            else:
                negatives += 1
        return positives, negatives, has_equality

    def nnz(self) -> int:
        """Total non-zero coefficients over the live rows."""
        return sum(row.nnz for row in self._rows if row is not None)

    # ------------------------------------------------------------------ #
    # Row admission (normalisation, hashing, subsumption, Imbert)
    # ------------------------------------------------------------------ #
    def _add(
        self,
        row: SparseRow,
        is_equality: bool,
        history: frozenset[int],
        elim: frozenset[int],
    ) -> None:
        stats = self.stats
        stats.simplify_row_scans += 1
        if row.is_constant:
            trivially_true = (
                row.constant == 0 if is_equality else row.constant >= 0
            )
            if trivially_true:
                stats.rows_pruned_trivial += 1
                return
            # A constant contradiction is kept (the system is empty and the
            # callers must see that); it still dedupes below.
        if is_equality:
            canonical = row.sign_canonical()
            key = (canonical.terms, canonical.constant)
            if key in self._equality_keys:
                stats.rows_pruned_duplicate += 1
                return
            self._equality_keys[key] = self._insert(canonical, True, history, elim)
            return
        key = row.terms
        holder = self._inequality_keys.get(key)
        if holder is not None:
            held = self._rows[holder]
            if held is not None:
                if held.constant == row.constant:
                    # Both derivations are valid for this half-space; keep
                    # whichever leaves the larger Imbert budget
                    # (``1 + |E_h| - |H|``) for later steps.
                    if len(elim) - len(history) > len(self._elim[holder]) - len(
                        self._history[holder]
                    ):
                        self._history[holder] = history
                        self._elim[holder] = elim
                    stats.rows_pruned_duplicate += 1
                    return
                if held.constant < row.constant:
                    # ``terms + c >= 0`` with the smaller c implies the row.
                    stats.rows_pruned_subsumed += 1
                    return
                self._remove(holder)
                stats.rows_pruned_subsumed += 1
        self._inequality_keys[key] = self._insert(row, False, history, elim)

    def _admit_combined(
        self, row: SparseRow, history: frozenset[int], elim: frozenset[int]
    ) -> None:
        """Admit an inequality produced by a Fourier–Motzkin combination."""
        self.stats.rows_generated += 1
        if len(history) > 1 + len(elim):
            # Imbert's first acceleration theorem: an irredundant derived
            # inequality combines at most 1 + |E_h| original inequalities
            # (E_h = columns eliminated along its derivation); this row
            # exceeds the bound and is implied by rows that are kept.
            self.stats.rows_pruned_imbert += 1
            return
        self._add(row, False, history, elim)

    def _insert(
        self,
        row: SparseRow,
        is_equality: bool,
        history: frozenset[int],
        elim: frozenset[int],
    ) -> int:
        row_id = len(self._rows)
        self._rows.append(row)
        self._kinds.append(is_equality)
        self._history.append(history)
        self._elim.append(elim)
        for column, _ in row.terms:
            self._occurrence.setdefault(column, set()).add(row_id)
        return row_id

    def _remove(
        self, row_id: int
    ) -> tuple[SparseRow, bool, frozenset[int], frozenset[int]]:
        row = self._rows[row_id]
        assert row is not None
        for column, _ in row.terms:
            bucket = self._occurrence.get(column)
            if bucket is not None:
                bucket.discard(row_id)
        self._rows[row_id] = None
        if self._kinds[row_id]:
            canonical = row.sign_canonical()
            key = (canonical.terms, canonical.constant)
            if self._equality_keys.get(key) == row_id:
                del self._equality_keys[key]
        else:
            if self._inequality_keys.get(row.terms) == row_id:
                del self._inequality_keys[row.terms]
        return row, self._kinds[row_id], self._history[row_id], self._elim[row_id]

    # ------------------------------------------------------------------ #
    # Elimination
    # ------------------------------------------------------------------ #
    def eliminate_column(self, column: int) -> None:
        """Project the system onto the columns other than *column*."""
        touching = sorted(self._occurrence.get(column, ()))
        if not touching:
            return
        pivot_id: int | None = None
        pivot_magnitude = 0
        for row_id in touching:
            if not self._kinds[row_id]:
                continue
            row = self._rows[row_id]
            assert row is not None
            magnitude = abs(row.coefficient(column))
            if pivot_id is None or magnitude < pivot_magnitude:
                pivot_id = row_id
                pivot_magnitude = magnitude
        self.stats.eliminations += 1
        if pivot_id is not None:
            self._substitute(column, pivot_id, touching)
        else:
            self._fourier_motzkin(column, touching)

    def _substitute(self, column: int, pivot_id: int, touching: list[int]) -> None:
        pivot, _, pivot_history, pivot_elim = self._remove(pivot_id)
        pivot_coefficient = pivot.coefficient(column)
        sign = 1 if pivot_coefficient > 0 else -1
        magnitude = abs(pivot_coefficient)
        eliminated = frozenset((column,))
        for row_id in touching:
            if row_id == pivot_id:
                continue
            row, is_equality, history, elim = self._remove(row_id)
            # magnitude*row - sign*coefficient*pivot cancels the column with a
            # positive multiplier on the (possibly) inequality row.
            factor = -sign * row.coefficient(column)
            combined = SparseRow.combine(magnitude, row, factor, pivot)
            self.stats.rows_generated += 1
            self._add(
                combined,
                is_equality,
                history | pivot_history,
                elim | pivot_elim | eliminated,
            )

    def _fourier_motzkin(self, column: int, touching: list[int]) -> None:
        lowers: list[tuple[SparseRow, frozenset[int], frozenset[int]]] = []
        uppers: list[tuple[SparseRow, frozenset[int], frozenset[int]]] = []
        for row_id in touching:
            row, _, history, elim = self._remove(row_id)
            if row.coefficient(column) > 0:
                lowers.append((row, history, elim))
            else:
                uppers.append((row, history, elim))
        eliminated = frozenset((column,))
        for lower, lower_history, lower_elim in lowers:
            a = lower.coefficient(column)
            for upper, upper_history, upper_elim in uppers:
                b = -upper.coefficient(column)
                self._admit_combined(
                    SparseRow.combine(b, lower, a, upper),
                    lower_history | upper_history,
                    lower_elim | upper_elim | eliminated,
                )

    def eliminate_columns(self, columns: Iterable[int]) -> None:
        """Eliminate several columns, cheapest (minimum fill) first.

        The cost model mirrors the dense reference: a column an equality touches
        is free (Gaussian substitution adds no rows), otherwise the fill is
        the lower-bound count times the upper-bound count; ties keep the
        caller's order, so the scan stops at the first free column.  The
        occurrence index makes each estimate a scan of the rows touching that
        column only.
        """
        started = time.perf_counter()
        remaining = list(columns)
        while remaining:
            best = None
            best_cost = None
            for column in remaining:
                positives, negatives, has_equality = self.occurrence_counts(column)
                cost = 0 if has_equality else positives * negatives
                if best_cost is None or cost < best_cost:
                    best = column
                    best_cost = cost
                    if cost == 0:
                        break
            assert best is not None
            remaining.remove(best)
            self.eliminate_column(best)
        stats = self.stats
        stats.elimination_seconds += time.perf_counter() - started
        stats.rows_emitted += len(self)
