"""The work ledger: the one place the stack's work is counted.

A unit of work — a scheduling solve, an emptiness probe, a Farkas
linearisation, a remembered answer, a pipeline stage — reports what it did
with :func:`count`, from the accumulator it already owns, once, when it is
done.  Whoever wants the numbers opens a scope around the work::

    with obs.ledger() as work:      # a plain dict
        session.compile(scop)
    work["solves"], work["probe_pivots"], work["stage.schedule"]

Every scope open in the current context sees a count at once, so scopes nest
without arithmetic: the scheduler reads its ``statistics`` off its own scope
while a job's scope around the whole compile reads the same numbers plus the
other stages'.  An enabled tracer's span is a scope too (its ``counters``), so
a span carries exactly what was counted under it.  Scopes are context-local: a
thread starts with none open, and :func:`count` with none open is one
``ContextVar.get``.

A scope's dict may be read from another thread while it is live
(``work.copy()`` is atomic); only its own context writes to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["count", "ledger"]

_OPEN: ContextVar[tuple[dict, ...]] = ContextVar("repro_open_ledgers", default=())


def count(name: str, amount: int | float = 1) -> None:
    """Add *amount* to *name* in every scope open in the current context."""
    for work in _OPEN.get():
        work[name] = work.get(name, 0) + amount


def open_scope(work: dict) -> None:
    """Make *work* receive every :func:`count` of the current context."""
    _OPEN.set(_OPEN.get() + (work,))


def close_scope(work: dict) -> None:
    """Stop counting into *work*; the other scopes stay open, in any order."""
    _OPEN.set(tuple(scope for scope in _OPEN.get() if scope is not work))


@contextmanager
def ledger() -> Iterator[dict]:
    """Open a scope for the block; yields the dict the counts land in."""
    work: dict = {}
    open_scope(work)
    try:
        yield work
    finally:
        close_scope(work)
