"""Persistent, fingerprint-keyed compilation-result store.

The scheduler is deterministic: a :class:`~repro.pipeline.result.CompilationResult`
is a pure function of the ``(scop, config, machine, parameter values, knobs)``
fingerprint (:func:`repro.pipeline.fingerprint.result_fingerprint`).  That
makes results perfectly shareable — across threads, across server processes
and across restarts.  This module provides the shared medium:

* :class:`ResultStore` — the small interface (``fetch``/``get``/``put``/
  ``evict``/``stats``) the session and the service front door program against;
* :class:`SqliteResultStore` — the default implementation: one SQLite file
  (stdlib ``sqlite3``, WAL mode so concurrent server processes can share it),
  rows carrying the JSON-serialised result plus schema-version and TTL
  columns, fronted by a bounded in-memory LRU of payloads so repeated hits on
  hot fingerprints skip the database entirely.  A row is decoded in full at
  the one moment it enters that front; from then on its text is served as it
  is (``fetch``), and only a caller that wants the object (``get``) decodes.
  ``SqliteResultStore(":memory:")`` is the same contract without a file, for
  tests and ephemeral servers.

Entries whose ``schema_version`` does not match the running code are treated
as misses and evicted (an old server can never mis-decode a new payload, and
vice versa); expired entries are filtered on read and swept opportunistically
on write.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections import OrderedDict
from json import JSONDecodeError
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from ..obs import MetricsRegistry
from ..pipeline.result import RESULT_SCHEMA_VERSION, CachedResult, CompilationResult
from ..pipeline.serialize import SerializationError

__all__ = [
    "ResultStore",
    "SqliteResultStore",
    "StoreEntry",
]

#: What :class:`SqliteResultStore` counts; ``hits`` include ``lru_hits``, and
#: ``misses`` include ``expired`` reads and ``schema_mismatches``.
_STORE_EVENTS = (
    "hits", "lru_hits", "misses", "puts", "evictions", "expired", "schema_mismatches",
)


@runtime_checkable
class ResultStore(Protocol):
    """What :class:`repro.pipeline.Session` needs from a persistent store."""

    #: The store's counters, rendered on the service's ``/v1/metrics``.
    metrics: MetricsRegistry

    def fetch(self, fingerprint: str) -> CachedResult | None:
        """The stored row for *fingerprint* as validated text, or ``None``
        (miss/expired); the object form is set when validating just made it."""

    def get(self, fingerprint: str) -> CompilationResult | None:
        """The stored result for *fingerprint*, decoded afresh, or ``None``."""

    def put(self, fingerprint: str, result: CompilationResult, ttl: float | None = None) -> str:
        """Store *result* under *fingerprint* (overwrites an existing entry);
        returns the row's text."""

    def evict(self, fingerprint: str | None = None) -> int:
        """Evict one fingerprint (or everything when ``None``); returns the count."""

    def stats(self) -> dict:
        """Counters and configuration of the store (hits, misses, entries, ...);
        the counters are read off :attr:`metrics`."""


class StoreEntry:
    """One validated row: payload text, expiry, and the label it decodes to."""

    __slots__ = ("payload", "expires_at", "label")

    def __init__(self, payload: str, expires_at: float | None, label: str):
        self.payload = payload
        self.expires_at = expires_at
        self.label = label


class SqliteResultStore:
    """SQLite-backed TTL cache of serialised compilation results.

    Parameters
    ----------
    path:
        Database file (created on first use).  ``":memory:"`` gives a
        process-private store.
    ttl:
        Default time-to-live in seconds for new entries (``None`` = never
        expires).  ``put(..., ttl=...)`` overrides per entry.
    memory_entries:
        Size of the in-memory LRU payload front (0 disables it).
    clock:
        Injectable time source (tests pin it to fake clocks).
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        ttl: float | None = None,
        memory_entries: int = 128,
        clock: Callable[[], float] = time.time,
    ):
        self.path = str(path)
        self.default_ttl = ttl
        self.memory_entries = max(0, int(memory_entries))
        self._clock = clock
        self._lock = threading.RLock()
        self._lru: OrderedDict[str, StoreEntry] = OrderedDict()
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS results (
                fingerprint TEXT PRIMARY KEY,
                schema_version INTEGER NOT NULL,
                payload TEXT NOT NULL,
                created_at REAL NOT NULL,
                expires_at REAL
            )
            """
        )
        self._connection.commit()
        #: The store's own counters: a store is shared by sessions and
        #: outlives them.  :meth:`stats` reads them back by event name.
        self.metrics = MetricsRegistry()
        events = self.metrics.counter(
            "repro_store_events_total", "Persistent result store events."
        )
        self._events = {event: events.labels(event=event) for event in _STORE_EVENTS}

    # ------------------------------------------------------------------ #
    # ResultStore interface
    # ------------------------------------------------------------------ #
    def fetch(self, fingerprint: str) -> CachedResult | None:
        now = self._clock()
        with self._lock:
            entry = self._lru.get(fingerprint)
            if entry is not None:
                if entry.expires_at is not None and entry.expires_at <= now:
                    del self._lru[fingerprint]
                else:
                    self._lru.move_to_end(fingerprint)
                    self._events["hits"].inc()
                    self._events["lru_hits"].inc()
                    return CachedResult(None, entry.payload, entry.label)
            row = self._connection.execute(
                "SELECT schema_version, payload, expires_at FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                self._events["misses"].inc()
                return None
            schema_version, payload, expires_at = row
            if expires_at is not None and expires_at <= now:
                self._delete(fingerprint)
                self._events["expired"].inc()
                self._events["misses"].inc()
                return None
            if schema_version != RESULT_SCHEMA_VERSION:
                # A payload written by an incompatible version of the code is
                # useless to us and to everyone after us: drop it.
                self._delete(fingerprint)
                self._events["schema_mismatches"].inc()
                self._events["misses"].inc()
                return None
            # The full decode that admits the row to the front; afterwards
            # its text is trusted.
            result = self._decode(fingerprint, payload)
            if result is None:
                self._events["misses"].inc()
                return None
            self._remember(fingerprint, StoreEntry(payload, expires_at, result.configuration))
            self._events["hits"].inc()
            return CachedResult(result, payload, result.configuration)

    def get(self, fingerprint: str) -> CompilationResult | None:
        with self._lock:
            cached = self.fetch(fingerprint)
            if cached is None:
                return None
            if cached.result is not None:
                return cached.result
            return self._decode(fingerprint, cached.text)

    def put(
        self, fingerprint: str, result: CompilationResult, ttl: float | None = None
    ) -> str:
        now = self._clock()
        ttl = ttl if ttl is not None else self.default_ttl
        expires_at = now + ttl if ttl is not None else None
        payload = result.to_json()
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, schema_version, payload, created_at, expires_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (fingerprint, RESULT_SCHEMA_VERSION, payload, now, expires_at),
            )
            # Opportunistic sweep: writes are the rare operation, so they pay
            # for keeping the file from accumulating dead rows.
            swept = self._connection.execute(
                "DELETE FROM results WHERE expires_at IS NOT NULL AND expires_at <= ?",
                (now,),
            ).rowcount
            self._connection.commit()
            self._events["expired"].inc(swept)
            self._events["puts"].inc()
            self._remember(fingerprint, StoreEntry(payload, expires_at, result.configuration))
        return payload

    def evict(self, fingerprint: str | None = None) -> int:
        with self._lock:
            if fingerprint is None:
                count = self._connection.execute("SELECT COUNT(*) FROM results").fetchone()[0]
                self._connection.execute("DELETE FROM results")
                self._connection.commit()
                self._lru.clear()
            else:
                count = self._delete(fingerprint)
            self._events["evictions"].inc(count)
            return count

    def stats(self) -> dict:
        with self._lock:
            entries = self._connection.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            return {
                "backend": "sqlite",
                "path": self.path,
                "entries": entries,
                "lru_entries": len(self._lru),
                "memory_entries": self.memory_entries,
                "default_ttl": self.default_ttl,
                "schema_version": RESULT_SCHEMA_VERSION,
                **{event: counter.value for event, counter in self._events.items()},
            }

    def close(self) -> None:
        with self._lock:
            self._connection.close()
            self._lru.clear()

    # ------------------------------------------------------------------ #
    # Internals (lock held)
    # ------------------------------------------------------------------ #
    def _delete(self, fingerprint: str) -> int:
        count = self._connection.execute(
            "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
        ).rowcount
        self._connection.commit()
        self._lru.pop(fingerprint, None)
        return count

    def _remember(self, fingerprint: str, entry: StoreEntry) -> None:
        if self.memory_entries <= 0:
            return
        self._lru[fingerprint] = entry
        self._lru.move_to_end(fingerprint)
        while len(self._lru) > self.memory_entries:
            self._lru.popitem(last=False)

    def _decode(self, fingerprint: str, payload: str) -> CompilationResult | None:
        try:
            return CompilationResult.from_json(payload)
        except (JSONDecodeError, SerializationError, KeyError, TypeError, ValueError):
            # A corrupt row must degrade to a miss, never crash a compile.
            self._delete(fingerprint)
            return None
