"""Fraction-free product-form basis factorisation for the revised simplex.

The incremental ILP engine's dense core stores the whole ``den * B^{-1}A``
tableau explicitly.  The revised core (:mod:`repro.ilp.revised`) instead keeps
the constraint matrix sparse and represents ``den * B^{-1}`` — the only part
of the tableau a simplex iteration actually needs — as an :class:`EtaFile`: a
sequence of elementary (eta) operations applied to a seed vector.

The factorisation is *fraction-free* in the Edmonds/Bareiss sense: every
operation records the scaling denominator it was created under, and applying
an operation performs integer multiply/subtract followed by one exact integer
division.  For an integer basis ``B`` the represented product ``den * B^{-1}``
with ``den = |det B|`` is the (sign-adjusted) adjugate of ``B`` — an integer
matrix — so every intermediate vector stays integral and bit-exact.

Three operation kinds exist:

* ``pivot(r, p, den_before, entries)`` — a simplex basis change: the column
  whose FTRAN image was ``x_hat`` (``x_hat[r] = p``, the off-pivot non-zeros
  kept in ``entries``) replaces the basic column of row ``r``.  This is the
  engine's fraction-free pivot restricted to one column, so replaying the file
  reproduces the dense tableau's numbers exactly — including the row negation
  the dense kernel performs when the pivot element is negative.
* ``negate(r)`` — row ``r`` of ``B^{-1}`` flips sign (the bounded-variable
  simplex complements a *basic* column).  Self-transpose, so FTRAN and BTRAN
  apply it identically.
* ``permute(rows)`` — emitted once at the end of :meth:`EtaFile.refactor`:
  re-inversion places basis columns on freely chosen elimination rows (any
  non-singular basis succeeds that way) and the final permutation maps them
  back to their basis positions.

FTRAN (``den * B^{-1} c``) applies the operations in order; BTRAN
(``den * B^{-T} c``) applies their transposes in reverse order.  A BTRAN
pivot step only touches the pivot entry: with ``U`` seeded as ``den * c``,
``U[r] := (den_before * U[r] - sum(entries * U)) // p`` and every other entry
is unchanged — which is what makes pricing by BTRAN cheap.

The file *represents* state; policy (when to refactor, how the statistics are
counted) lives with the caller.  Refactoring is observably transparent — the
represented matrix is identical before and after — so callers may refresh at
any point without perturbing pivot decisions.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "EtaFile",
    "FactorizationError",
    "SingularBasisError",
]

_PIVOT = 0
_NEGATE = 1
_PERMUTE = 2


class FactorizationError(RuntimeError):
    """The eta file and its caller disagree about the represented basis."""


class SingularBasisError(FactorizationError):
    """Refactorisation met a singular basis matrix."""


class EtaFile:
    """A fraction-free product-form representation of ``den * B^{-1}``.

    The empty file represents the identity basis (``den == 1``), which is
    exactly the engine's phase-1 root: every starting row is basic in its own
    slack or artificial column.  ``stale`` is set when the row space changed
    shape (a cut row was appended, a redundant row dropped) — the operation
    list no longer matches the new row indexing and the owner must
    :meth:`refactor` from the current basis before the next FTRAN/BTRAN.

    Copies share the (immutable) operation tuples; a child appends to its own
    list, which is what lets branch & bound children reuse the parent's
    factorisation and replay only their own eta tail.
    """

    __slots__ = ("m", "den", "ops", "base_len", "stale")

    def __init__(self, m: int):
        self.m = m
        self.den = 1
        self.ops: list[tuple] = []
        self.base_len = 0
        self.stale = False

    def copy(self) -> "EtaFile":
        clone = EtaFile.__new__(EtaFile)
        clone.m = self.m
        clone.den = self.den
        clone.ops = list(self.ops)
        clone.base_len = self.base_len
        clone.stale = self.stale
        return clone

    @property
    def update_ops(self) -> int:
        """Eta operations appended since the last refactorisation."""
        return len(self.ops) - self.base_len

    def base_nnz(self) -> int:
        """Stored non-zeros of the base factorisation (pivot entries + pivots)."""
        total = 0
        for op in self.ops[: self.base_len]:
            if op[0] == _PIVOT:
                total += len(op[4]) + 1
        return total

    # ------------------------------------------------------------------ #
    # Appending updates
    # ------------------------------------------------------------------ #
    def append_pivot(self, row: int, xhat: Sequence[int]) -> int:
        """Record a basis change on *row*; returns the entries stored.

        *xhat* is the FTRAN image of the entering column under the file's
        current state (``xhat[row]`` is the pivot element, non-zero).  The
        file's denominator becomes ``|xhat[row]|``, mirroring the dense
        kernel.
        """
        p = xhat[row]
        entries = tuple(
            (i, value) for i, value in enumerate(xhat) if value and i != row
        )
        self.ops.append((_PIVOT, row, p, self.den, entries))
        self.den = p if p > 0 else -p
        return len(entries) + 1

    def append_negate(self, row: int) -> None:
        """Record a sign flip of row *row* of ``B^{-1}`` (basic complement)."""
        self.ops.append((_NEGATE, row))

    def mark_stale(self, m: int) -> None:
        """The row space changed shape; the file must be refactored."""
        self.m = m
        self.stale = True

    # ------------------------------------------------------------------ #
    # Solves
    # ------------------------------------------------------------------ #
    def ftran(self, vector: list[int]) -> list[int]:
        """``den * B^{-1} @ seed`` for an integer *vector* (consumed in place)."""
        if self.stale:
            raise FactorizationError("FTRAN through a stale eta file")
        v = vector
        m = self.m
        for op in self.ops:
            kind = op[0]
            if kind == _PIVOT:
                _, r, p, den_b, entries = op
                vr = v[r]
                if vr == 0:
                    # The update column never mixes in; only the global
                    # rescale den_b -> |p| applies (a no-op when equal).
                    q = p if p > 0 else -p
                    if q != den_b:
                        for i in range(m):
                            v[i] = (q * v[i]) // den_b
                    continue
                if p > 0:
                    for i in range(m):
                        v[i] = p * v[i]
                    for i, e in entries:
                        v[i] -= e * vr
                    if den_b != 1:
                        for i in range(m):
                            v[i] //= den_b
                    v[r] = vr
                else:
                    for i in range(m):
                        v[i] = -p * v[i]
                    for i, e in entries:
                        v[i] += e * vr
                    if den_b != 1:
                        for i in range(m):
                            v[i] //= den_b
                    v[r] = -vr
            elif kind == _NEGATE:
                r = op[1]
                v[r] = -v[r]
            else:  # _PERMUTE
                rows = op[1]
                v = [v[rows[k]] for k in range(m)]
        return v

    def btran(self, vector: list[int]) -> list[int]:
        """``den * B^{-T} @ seed`` for an integer *vector* (consumed in place).

        The seed is scaled by ``den`` internally; pass the raw coefficients.
        """
        if self.stale:
            raise FactorizationError("BTRAN through a stale eta file")
        den = self.den
        u = [den * value for value in vector] if den != 1 else vector
        m = self.m
        for op in reversed(self.ops):
            kind = op[0]
            if kind == _PIVOT:
                _, r, p, den_b, entries = op
                acc = den_b * u[r]
                for i, e in entries:
                    acc -= e * u[i]
                u[r] = acc // p
            elif kind == _NEGATE:
                r = op[1]
                u[r] = -u[r]
            else:  # _PERMUTE
                rows = op[1]
                permuted = [0] * m
                for k in range(m):
                    permuted[rows[k]] = u[k]
                u = permuted
        return u

    # ------------------------------------------------------------------ #
    # Refactorisation
    # ------------------------------------------------------------------ #
    def refactor(self, columns: Sequence[Sequence[tuple[int, int]]]) -> None:
        """Rebuild the file from scratch for the basis given as sparse columns.

        ``columns[k]`` is basis position ``k``'s constraint column as
        ``(row, value)`` pairs over the current row indexing.  Columns are
        eliminated sparsest-first; each is FTRANed through the partial file
        and pivots on the free row with the smallest non-zero magnitude
        (lowest index on ties) — free row choice is what makes re-inversion
        succeed for *every* non-singular basis.  The final permutation maps
        the chosen rows back to basis positions.

        The represented matrix is identical before and after, and the
        recomputed denominator must equal the tracked one — a mismatch means
        the caller's state drifted from the file and raises
        :class:`FactorizationError`.
        """
        m = len(columns)
        expected_den = self.den
        ops: list[tuple] = []
        den = 1
        free = [True] * m
        row_of_position = [0] * m
        order = sorted(range(m), key=lambda k: (len(columns[k]), k))
        for k in order:
            v = [0] * m
            for i, value in columns[k]:
                v[i] = value
            # Inline FTRAN over the partial op list (all pivots, no permute).
            for op in ops:
                _, r, p, den_b, entries = op
                vr = v[r]
                if vr == 0:
                    q = p if p > 0 else -p
                    if q != den_b:
                        for i in range(m):
                            v[i] = (q * v[i]) // den_b
                    continue
                if p > 0:
                    for i in range(m):
                        v[i] = p * v[i]
                    for i, e in entries:
                        v[i] -= e * vr
                    if den_b != 1:
                        for i in range(m):
                            v[i] //= den_b
                    v[r] = vr
                else:
                    for i in range(m):
                        v[i] = -p * v[i]
                    for i, e in entries:
                        v[i] += e * vr
                    if den_b != 1:
                        for i in range(m):
                            v[i] //= den_b
                    v[r] = -vr
            best_row = -1
            best_mag = 0
            for r in range(m):
                if not free[r] or v[r] == 0:
                    continue
                magnitude = v[r] if v[r] > 0 else -v[r]
                if best_row < 0 or magnitude < best_mag:
                    best_row = r
                    best_mag = magnitude
            if best_row < 0:
                raise SingularBasisError(
                    f"basis column {k} is dependent on the columns before it"
                )
            p = v[best_row]
            entries = tuple(
                (i, value) for i, value in enumerate(v) if value and i != best_row
            )
            ops.append((_PIVOT, best_row, p, den, entries))
            den = p if p > 0 else -p
            free[best_row] = False
            row_of_position[k] = best_row
        # Both shape changes that set `stale` (appending a cut row, dropping a
        # redundant row whose basic column was a unit vector) preserve
        # |det B|, so the recomputed denominator must always match.
        if den != expected_den:
            raise FactorizationError(
                f"refactorisation denominator {den} != tracked {expected_den}"
            )
        if row_of_position != list(range(m)):
            ops.append((_PERMUTE, tuple(row_of_position)))
        self.m = m
        self.den = den
        self.ops = ops
        self.base_len = len(ops)
        self.stale = False
