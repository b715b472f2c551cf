"""Thread-safe hierarchical span tracing over ``time.perf_counter_ns``.

A :class:`Tracer` records a tree of timed spans.  Spans are opened as
context managers::

    tracer = Tracer()
    with tracer.span("stage.schedule", category="stage", kernel="gemm") as span:
        ...
        span.add("levels")              # a counter of this span alone
        span.set("strategy", "pluto")   # arbitrary attribute

While it is open, a span of an enabled tracer is also a scope of the work
ledger (:mod:`repro.obs.ledger`): whatever the layers below ``count()`` lands
in its ``counters``, so a span's work counters are what was counted under it.

Every layer of the stack traces against whichever tracer is *active* for the
current thread/context (:func:`active_tracer`), so deep layers — the ILP
engine, the Fourier–Motzkin core, the emptiness probes — never need tracer
parameters plumbed through their signatures.  :func:`activate` installs a
tracer into a :class:`contextvars.ContextVar`; the pipeline activates the
session tracer *inside* the per-compile worker (contextvars do not propagate
into ``ThreadPoolExecutor`` workers, so activation must happen on the worker
thread itself).

The disabled path is guaranteed allocation-free: :class:`NullTracer` (and the
module singleton :data:`NULL_TRACER`) answer every :meth:`~Tracer.span` call
with one shared no-op span, so instrumented code pays a single attribute
check plus a ``with`` statement when tracing is off.  Tracing never changes
behaviour — spans observe counters, they do not steer anything.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .ledger import close_scope, open_scope

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "activate",
    "active_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: timing, identity and attached counters."""

    #: Hierarchical span name, e.g. ``"stage.schedule"`` or ``"ilp.solve"``.
    name: str
    #: Coarse grouping used as the Chrome-trace category ("pipeline",
    #: "stage", "scheduler", "ilp", "fm", "emptiness", "service", ...).
    category: str
    #: ``time.perf_counter_ns()`` at span entry.
    start_ns: int
    #: Exclusive-of-nothing wall duration (children overlap the parent).
    duration_ns: int
    #: Identity of the opening thread (``threading.get_ident()``).
    thread_id: int
    #: Name of the opening thread (Chrome-trace thread metadata).
    thread_name: str
    #: Per-tracer id of this span (unique, monotonically assigned at entry).
    span_id: int
    #: ``span_id`` of the enclosing span on the same thread, or ``None``.
    parent_id: int | None
    #: Counter/attribute attachments (exact ints for counters by contract).
    counters: dict[str, object] = field(default_factory=dict)


class Span:
    """A live span handle; becomes immutable data once the ``with`` exits."""

    __slots__ = (
        "_tracer",
        "name",
        "category",
        "counters",
        "span_id",
        "parent_id",
        "start_ns",
        "duration_ns",
        "thread_id",
        "thread_name",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, counters: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.counters = counters
        self.span_id = -1
        self.parent_id: int | None = None
        self.start_ns = 0
        self.duration_ns = 0
        self.thread_id = 0
        self.thread_name = ""

    # Counter attachments ------------------------------------------------- #
    def add(self, key: str, amount: int = 1) -> None:
        """Add *amount* to the integer counter *key* (creating it at 0)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def set(self, key: str, value: object) -> None:
        """Attach an arbitrary (JSON-representable) attribute."""
        self.counters[key] = value

    def update(self, values: Mapping[str, object]) -> None:
        """Attach every item of *values* (overwriting existing keys)."""
        self.counters.update(values)

    # Context manager ----------------------------------------------------- #
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Span({self.name!r}, id={self.span_id}, counters={self.counters})"


class _NullSpan:
    """Shared no-op span: every method is a constant-time do-nothing."""

    __slots__ = ()

    name = ""
    category = ""
    span_id = -1
    parent_id = None
    start_ns = 0
    duration_ns = 0

    @property
    def counters(self) -> dict:
        # A fresh dict so accidental writes never leak between call sites.
        return {}

    def add(self, key: str, amount: int = 1) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def update(self, values: Mapping[str, object]) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: :meth:`span` returns one shared no-op span.

    ``enabled`` is ``False`` so call sites can skip computing attributes
    that only a recorded span would carry.
    """

    enabled = False

    def span(self, name: str, category: str = "repro", **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    @property
    def records(self) -> list[SpanRecord]:
        return []

    def clear(self) -> None:
        pass


class Tracer:
    """Thread-safe hierarchical span recorder.

    Per-thread span stacks (``threading.local``) give each thread its own
    nesting chain; finished spans are appended to one lock-protected record
    list, so a single tracer can observe the compiles the server's handler and
    job threads run concurrently on one session.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._local = threading.local()
        self._next_id = 0

    # -------------------------------------------------------------------- #
    # Span lifecycle
    # -------------------------------------------------------------------- #
    def span(self, name: str, category: str = "repro", **attrs: object) -> Span:
        """A new (not yet entered) span; use as ``with tracer.span(...) as s:``."""
        return Span(self, name, category, dict(attrs))

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        span.parent_id = stack[-1].span_id if stack else None
        thread = threading.current_thread()
        span.thread_id = thread.ident or 0
        span.thread_name = thread.name
        stack.append(span)
        # A span is a ledger scope: what is counted under it lands in its counters.
        open_scope(span.counters)
        span.start_ns = time.perf_counter_ns()

    def _pop(self, span: Span) -> None:
        end_ns = time.perf_counter_ns()
        span.duration_ns = end_ns - span.start_ns
        close_scope(span.counters)
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:
            # Mis-nested exit (an inner span leaked past its parent's exit):
            # drop everything above it so the chain stays consistent.
            del stack[stack.index(span):]
        record = SpanRecord(
            name=span.name,
            category=span.category,
            start_ns=span.start_ns,
            duration_ns=span.duration_ns,
            thread_id=span.thread_id,
            thread_name=span.thread_name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            counters=dict(span.counters),
        )
        with self._lock:
            self._records.append(record)

    # -------------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------------- #
    @property
    def records(self) -> list[SpanRecord]:
        """Snapshot of every finished span (entry order = finish order)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all finished spans (open spans keep their assigned ids)."""
        with self._lock:
            self._records.clear()


#: The process-wide disabled tracer; ``span()`` on it costs one call.
NULL_TRACER = NullTracer()

_ACTIVE: ContextVar[Tracer | NullTracer] = ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def active_tracer() -> Tracer | NullTracer:
    """The tracer installed for the current context (``NULL_TRACER`` if none).

    Deep layers (ILP engine, FM core, emptiness probes) call this instead of
    taking a tracer parameter.  Contextvars do **not** propagate into
    ``ThreadPoolExecutor`` workers, so the pipeline re-activates the session
    tracer inside every per-compile worker invocation.
    """
    return _ACTIVE.get()


@contextmanager
def activate(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install *tracer* as the active tracer for the duration of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
