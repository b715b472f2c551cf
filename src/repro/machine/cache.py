"""Set-associative LRU cache simulation.

The paper evaluates generated code on real CPUs (AMD EPYC 7452, two Xeons) and
on an Ascend 910 NPU.  None of that hardware is available here, so locality
effects are measured with a classic trace-driven cache simulator: the executor
replays the memory accesses of the scheduled code and each access walks down a
small cache hierarchy.

The hierarchy sizes used by the machine models are *scaled down* together with
the problem sizes (MINI/SMALL PolyBench datasets), so that working sets
overflow caches at the same relative points as in the paper's full-size runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

__all__ = ["CacheLevelSpec", "CacheLevel", "CacheHierarchy", "AccessOutcome"]


@dataclass(frozen=True)
class CacheLevelSpec:
    """Static description of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    latency_cycles: int = 4

    @property
    def n_sets(self) -> int:
        lines = max(1, self.size_bytes // self.line_bytes)
        return max(1, lines // max(1, self.associativity))


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one access: which level served it (``None`` = main memory)."""

    level: str | None
    latency_cycles: int


class CacheLevel:
    """One set-associative LRU cache level."""

    def __init__(self, spec: CacheLevelSpec):
        self.spec = spec
        self.n_sets = spec.n_sets
        self._sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit (line loaded on miss)."""
        return not self.access_many((address,))

    def access_many(self, addresses: Sequence[int]) -> list[int]:
        """Access byte addresses in order; returns the positions that missed."""
        line_bytes, associativity = self.spec.line_bytes, self.spec.associativity
        n_sets, sets = self.n_sets, self._sets
        missed: list[int] = []
        for position, address in enumerate(addresses):
            line = address // line_bytes
            ways = sets[line % n_sets]
            if line in ways:
                ways.move_to_end(line)
            else:
                missed.append(position)
                ways[line] = None
                if len(ways) > associativity:
                    ways.popitem(last=False)
        self.misses += len(missed)
        self.hits += len(addresses) - len(missed)
        return missed

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """A stack of inclusive cache levels in front of main memory."""

    def __init__(self, specs: list[CacheLevelSpec], memory_latency_cycles: int = 200):
        self.levels = [CacheLevel(spec) for spec in specs]
        self.memory_latency_cycles = memory_latency_cycles
        self.memory_accesses = 0
        # Outcomes are immutable, so one per serving level is enough.
        self._served = [AccessOutcome(s.name, s.latency_cycles) for s in specs]

    def access(self, address: int) -> AccessOutcome:
        """Access an address; every level is updated (inclusive hierarchy)."""
        outcome = None
        for level, served in zip(self.levels, self._served):
            if not level.access_many((address,)) and outcome is None:
                outcome = served
        if outcome is None:
            self.memory_accesses += 1
            outcome = AccessOutcome(None, self.memory_latency_cycles)
        return outcome

    def access_many(self, addresses: Sequence[int]) -> None:
        """Access a batch in order: the statistics of :meth:`access`, no outcomes.

        The levels do not influence each other (every level sees every
        access), so each one runs the whole batch in its own tight loop; an
        access goes to memory when it missed everywhere.
        """
        missed = [level.access_many(addresses) for level in self.levels]
        if missed:
            self.memory_accesses += len(set(missed[0]).intersection(*missed[1:]))
        else:
            self.memory_accesses += len(addresses)

    def reset_statistics(self) -> None:
        for level in self.levels:
            level.reset_statistics()
        self.memory_accesses = 0

    def statistics(self) -> dict[str, dict[str, int]]:
        """Per-level hit/miss counters."""
        stats = {
            level.spec.name: {"hits": level.hits, "misses": level.misses}
            for level in self.levels
        }
        stats["memory"] = {"accesses": self.memory_accesses}
        return stats

    def total_latency(self) -> int:
        """Total access latency in cycles accumulated so far."""
        cycles = sum(level.hits * level.spec.latency_cycles for level in self.levels)
        return cycles + self.memory_accesses * self.memory_latency_cycles
