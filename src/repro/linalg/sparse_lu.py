"""Fraction-free product-form basis factorisation for the revised simplex.

The revised core (:mod:`repro.ilp.revised`) keeps the constraint matrix sparse
and represents ``den * B^{-1}`` — the only part of the tableau a simplex
iteration needs — as an :class:`EtaFile`: a sequence of elementary (eta)
operations applied to a seed vector.

The factorisation is *fraction-free* in the Edmonds/Bareiss sense: every
operation records the denominator it was created under, and applying it is
integer multiply/subtract followed by an exact integer division.  For an
integer basis ``B`` the represented product ``den * B^{-1}`` with
``den = |det B|`` is the (sign-adjusted) adjugate of ``B`` — an integer matrix
— so the vector after every operation is integral and bit-exact.

Four operation kinds exist:

* ``pivot(r, p, den_before, entries)`` — a simplex basis change: the column
  whose FTRAN image was ``x_hat`` (``x_hat[r] = p``, the off-pivot non-zeros
  kept in ``entries``, a row-index -> value mapping) replaces the basic column
  of row ``r``.  With ``q = |p|`` the step is
  ``v[i] := (q*v[i] - sign(p)*entries[i]*v[r]) // den_before`` off the pivot
  row and ``v[r] := sign(p)*v[r]`` on it; the denominator becomes ``q``.
* ``negate(r)`` — row ``r`` of ``B^{-1}`` flips sign (the bounded-variable
  simplex complements a *basic* column).  Self-transpose, so FTRAN and BTRAN
  apply it identically.
* ``permute(rows)`` — emitted once at the end of :meth:`EtaFile.refactor`:
  re-inversion places basis columns on freely chosen elimination rows (any
  non-singular basis succeeds that way) and the final permutation maps them
  back to their basis positions.  It is the identity on indices past
  ``len(rows)`` — the rows bordered on after the refactorisation.
* ``border(m, entries)`` — a row appended with a fresh basic slack: the basis
  grows to ``B' = [[B, 0], [a_B, 1]]`` (``entries`` maps basis position ``i``
  to ``a_B[i]``, the new row's working coefficient on that position's basic
  column).  ``|det B'| == |det B|``, so ``den * B'^{-1}`` is ``den * B^{-1}``
  bordered by one row and the denominator does not move.  FTRAN sets
  ``v[m] := v[m] - sum(entries[i] * v[i])``; BTRAN applies the transpose,
  ``u[i] -= entries[i] * u[m]``.  Earlier operations never touch index ``m``,
  which therefore reaches the border already carrying the telescoped scale
  ``cur * seed[m]`` — no extra factor is needed.

**An operation costs its own non-zeros, never** ``m``.  FTRAN
(``den * B^{-1} c``, operations in order) would, read literally, rescale every
entry of the vector at every pivot operation.  But the chain telescopes — each
operation's ``den_before`` is the previous one's ``q`` — so an entry no
operation writes ends at ``v0 * den_last / den_first``.  The kernel therefore
carries the scale lazily: beside the vector ``w`` it keeps, per entry, the
denominator ``s[i]`` the entry was last written under and the current
denominator ``cur``, with the invariant

    ``true[i] == w[i] * cur // s[i]``    (an exact quotient, by the adjugate
    argument above: the true vector is integral after every operation).

A pivot operation reads and writes only row ``r`` and its ``entries`` (bringing
each to ``den_before`` first if it is behind), a border only ``m`` and its
``entries`` (brought to ``cur``); a pivot whose ``v[r]`` is zero is a
pure rescale, i.e. ``cur := q`` and nothing else; while every entry is current
(no scale in flight — the common case, ``q == den_before``, mostly ``1``) the
update is the plain ``w[i] -= entries[i] * v_r``; and the entries left behind
are brought to the final denominator once, on exit.  :meth:`EtaFile.refactor`
FTRANs each basis column through its partial operation list with the same
kernel.

BTRAN (``den * B^{-T} c``) applies the transposes in reverse order.  A pivot
step only moves the pivot entry — with ``U`` seeded as ``den * c``,
``U[r] := (den_before * U[r] - sum(entries * U)) // p`` — so the kernel tracks
the support of ``U`` and takes the dot product over whichever is shorter, the
support or the operation's entries (addressable by row index).  A border step
moves its entries' positions by multiples of ``U[m]`` (nothing when that is
zero) and keeps the support exact.

Operation payloads are shared between a file and its copies and are never
mutated after they are appended.

The file *represents* state; policy (when to refactor, how the statistics and
times are counted) lives with the caller.  Refactoring is observably
transparent — the represented matrix is identical before and after — so
callers may refresh at any point without perturbing pivot decisions.
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
_BORDER = 3


class FactorizationError(RuntimeError):
    """The eta file and its caller disagree about the represented basis."""


class SingularBasisError(FactorizationError):
    """Refactorisation met a singular basis matrix."""


class EtaFile:
    """A fraction-free product-form representation of ``den * B^{-1}``.

    The empty file represents the identity basis (``den == 1``), which is
    exactly the engine's phase-1 root: every starting row is basic in its own
    slack or artificial column.  An appended row grows the file by one
    :meth:`append_border`.  ``stale`` is set when rows are dropped (phase 1's
    redundant rows) — the operation list no longer matches the new row
    indexing and the owner must :meth:`refactor` from the current basis
    before the next FTRAN/BTRAN.

    Copies share the operation tuples and their payloads (read-only by
    contract); a child appends to its own list, which is what lets branch &
    bound children reuse the parent's factorisation and replay only their own
    eta tail.
    """

    __slots__ = ("den", "ops", "base_len", "stale")

    def __init__(self) -> None:
        self.den = 1
        self.ops: list[tuple] = []
        self.base_len = 0
        self.stale = False

    def copy(self) -> "EtaFile":
        clone = EtaFile.__new__(EtaFile)
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
    def append_pivot(self, row: int, xhat: Sequence[int]) -> dict[int, int]:
        """Record a basis change on *row*; returns the off-pivot entries stored.

        *xhat* is the FTRAN image of the entering column under the file's
        current state (``xhat[row]`` is the pivot element, non-zero).  The
        file's denominator becomes ``|xhat[row]|``.  The returned mapping
        (row index to value, the non-zeros of *xhat* off the pivot row) is the
        operation's payload, shared with every copy of the file: read-only.
        """
        p = xhat[row]
        entries = {i: value for i, value in enumerate(xhat) if value and i != row}
        self.ops.append((_PIVOT, row, p, self.den, entries))
        self.den = p if p > 0 else -p
        return entries

    def append_negate(self, row: int) -> None:
        """Record a sign flip of row *row* of ``B^{-1}`` (basic complement)."""
        self.ops.append((_NEGATE, row))

    def append_border(self, m: int, entries: dict[int, int]) -> None:
        """Record row *m* appended with a fresh basic slack in position *m*.

        *entries* maps basis position to the new row's (non-zero) working
        coefficient on that position's basic column; it becomes the
        operation's payload, shared with every copy of the file: read-only.
        The denominator does not change.
        """
        self.ops.append((_BORDER, m, entries))

    def mark_stale(self) -> None:
        """Rows were dropped; the file must be refactored."""
        self.stale = True

    # ------------------------------------------------------------------ #
    # Solves
    # ------------------------------------------------------------------ #
    def ftran(self, vector: list[int]) -> list[int]:
        """``den * B^{-1} @ seed`` for an integer *vector* (consumed in place)."""
        if self.stale:
            raise FactorizationError("FTRAN through a stale eta file")
        return _ftran(self.ops, vector)

    def btran(self, vector: list[int]) -> list[int]:
        """``den * B^{-T} @ seed`` for an integer *vector* (consumed in place).

        The seed is scaled by ``den`` internally; pass the raw coefficients.
        Only ``u[r]`` moves under a pivot op, by a dot product of the op's
        entries with ``u`` — taken over whichever of the two is shorter, the
        entries or the tracked support (non-zero positions) of ``u``, which
        for a unit seed stays a handful of positions through most of the file.
        """
        if self.stale:
            raise FactorizationError("BTRAN through a stale eta file")
        den = self.den
        u = [den * value for value in vector] if den != 1 else vector
        support = {i for i, value in enumerate(u) if value}
        for op in reversed(self.ops):
            kind = op[0]
            if kind == _PIVOT:
                _, r, p, den_b, entries = op
                acc = den_b * u[r]
                if len(support) < len(entries):
                    for i in support:
                        e = entries.get(i)
                        if e is not None:
                            acc -= e * u[i]
                else:
                    for i, e in entries.items():
                        x = u[i]
                        if x:
                            acc -= e * x
                if acc:
                    u[r] = acc // p
                    support.add(r)
                elif u[r]:
                    u[r] = 0
                    support.discard(r)
            elif kind == _BORDER:
                _, m, entries = op
                x = u[m]
                if x:
                    for i, e in entries.items():
                        y = u[i] - e * x
                        u[i] = y
                        if y:
                            support.add(i)
                        else:
                            support.discard(i)
            elif kind == _NEGATE:
                r = op[1]
                u[r] = -u[r]
            else:  # _PERMUTE (the identity past its length)
                rows = op[1]
                n = len(rows)
                permuted = [0] * len(u)
                for k in support:
                    permuted[rows[k] if k < n else k] = u[k]
                u = permuted
                support = {rows[k] if k < n else k for k in support}
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
            v = _ftran(ops, v)
            best_row = -1
            best_mag = 0
            for r, value in enumerate(v):
                if value == 0 or not free[r]:
                    continue
                magnitude = value if value > 0 else -value
                if best_row < 0 or magnitude < best_mag:
                    best_row = r
                    best_mag = magnitude
            if best_row < 0:
                raise SingularBasisError(
                    f"basis column {k} is dependent on the columns before it"
                )
            p = v[best_row]
            entries = {
                i: value for i, value in enumerate(v) if value and i != best_row
            }
            ops.append((_PIVOT, best_row, p, den, entries))
            den = best_mag
            free[best_row] = False
            row_of_position[k] = best_row
        # Neither a border (a row appended with its slack basic) nor the drop
        # of a redundant row whose basic column was a unit vector (what sets
        # `stale`) moves |det B|, so the recomputed denominator must match.
        if den != expected_den:
            raise FactorizationError(
                f"refactorisation denominator {den} != tracked {expected_den}"
            )
        if row_of_position != list(range(m)):
            ops.append((_PERMUTE, tuple(row_of_position)))
        self.den = den
        self.ops = ops
        self.base_len = len(ops)
        self.stale = False


def _ftran(ops: Sequence[tuple], v: list[int]) -> list[int]:
    """Apply *ops* in order to the seed *v* (consumed); see the module docstring.

    ``s is None`` means no scale is in flight: every ``v[i]`` is the true
    entry under ``cur``.  Otherwise ``v[i]`` was last written under ``s[i]``
    and stands for ``v[i] * cur // s[i]``.
    """
    cur = 1
    s: list[int] | None = None
    for op in ops:
        kind = op[0]
        if kind == _PIVOT:
            _, r, p, den_b, entries = op
            vr = v[r]
            if p > 0:
                q = p
            else:
                # Pivoting on a negative element also negates the pivot row;
                # folding the sign into v_r covers both in one formula.
                q = -p
                vr = -vr
            cur = q
            if vr == 0:
                # The update column never mixes in: a pure rescale den_b -> q.
                if s is None and q != den_b:
                    s = [den_b] * len(v)
                continue
            if s is None:
                if q == den_b:
                    if q == 1:
                        for i, e in entries.items():
                            v[i] -= e * vr
                    else:
                        for i, e in entries.items():
                            v[i] -= e * vr // q
                    v[r] = vr
                    continue
                s = [den_b] * len(v)
                for i, e in entries.items():
                    v[i] = (q * v[i] - e * vr) // den_b
                    s[i] = q
            else:
                if s[r] != den_b:
                    vr = vr * den_b // s[r]
                for i, e in entries.items():
                    x = v[i]
                    if x and s[i] != den_b:
                        x = x * den_b // s[i]
                    v[i] = (q * x - e * vr) // den_b
                    s[i] = q
            v[r] = vr
            s[r] = q
        elif kind == _BORDER:
            _, m, entries = op
            acc = v[m]
            if s is None:
                for i, e in entries.items():
                    acc -= e * v[i]
            else:
                if acc and s[m] != cur:
                    acc = acc * cur // s[m]
                for i, e in entries.items():
                    x = v[i]
                    if x and s[i] != cur:
                        x = x * cur // s[i]
                    acc -= e * x
                s[m] = cur
            v[m] = acc
        elif kind == _NEGATE:
            r = op[1]
            v[r] = -v[r]
        else:  # _PERMUTE (the identity past its length)
            rows = op[1]
            n = len(rows)
            v = [v[k] for k in rows] + v[n:]
            if s is not None:
                s = [s[k] for k in rows] + s[n:]
    if s is not None:
        for i, x in enumerate(v):
            if x and s[i] != cur:
                v[i] = x * cur // s[i]
    return v
