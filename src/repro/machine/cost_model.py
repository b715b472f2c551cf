"""Analytical cycle estimation for scheduled kernels.

The cost model combines four effects the paper's transformations trade off:

1. **Computation** — one scalar "operation" per statement instance per access
   (plus one), divided by the SIMD width when the statement's innermost varying
   loop is stride-1 (vectorised), multiplied by the machine's scalar penalty
   when it is not (this is what makes the Ascend model punish missed
   vectorisation so heavily, as in Table I).
2. **Memory** — the latency accumulated by the trace-driven cache simulator
   while executing the scheduled code, so fusion/tiling/locality effects show
   up directly.
3. **Control overhead** — loop iterations and guard evaluations of the
   generated code; complex skewed code (as produced by Pluto on jacobi-1d)
   pays for its min/max/guard structure here.
4. **Parallelism** — the compute+memory part is divided by the effective
   parallel speedup of the outermost parallel loop, and each entry into a
   parallel region pays a fork/barrier cost, which is what makes parallelism
   profitable only for large enough problem sizes (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..codegen.ast import Node
from ..codegen.executor import ExecutionStats, Executor
from ..codegen.generator import generate_ast
from ..model.schedule import Schedule
from ..model.scop import Scop
from ..model.statement import Statement
from ..transform.tiling import TilingSpec
from .machine import MachineModel
from .trace import MemoryTraceCollector

__all__ = ["PerformanceReport", "CostModel", "estimate_cycles"]


@dataclass
class PerformanceReport:
    """Cycle estimate and its breakdown for one scheduled kernel."""

    kernel: str
    machine: str
    cycles: float
    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    parallel_speedup: float
    parallel_entries: int
    instances: int
    cache_statistics: dict[str, object] = field(default_factory=dict)
    vectorized_statements: dict[str, bool] = field(default_factory=dict)

    @property
    def milliseconds(self) -> float:
        return self.cycles / 1e6  # interpreted at 1 GHz; only ratios matter

    def speedup_over(self, other: "PerformanceReport") -> float:
        """``other.cycles / self.cycles`` (how much faster *self* is)."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles


class CostModel:
    """Estimate the execution cost of a schedule on a machine model."""

    def __init__(self, machine: MachineModel):
        self.machine = machine

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        scop: Scop,
        schedule: Schedule,
        tiling: TilingSpec | None = None,
        parameter_values: Mapping[str, int] | None = None,
        ast: Node | None = None,
    ) -> PerformanceReport:
        """Generate, scan and cost the scheduled kernel.

        *ast* must be the scanning AST of (*schedule*, *tiling*) when given.
        The scan is trace-only: loops, guards and addresses, no statement bodies.
        """
        machine = self.machine
        root = ast if ast is not None else generate_ast(scop, schedule, tiling)
        hierarchy = machine.hierarchy()
        collector = MemoryTraceCollector(scop, hierarchy, parameter_values)
        stats = Executor(scop, parameter_values, on_instance=collector).run(root)

        vectorized = {
            statement.name: self._is_vectorized(statement, schedule)
            for statement in scop.statements
        }
        compute = self._compute_cycles(scop, stats, vectorized)
        memory = float(collector.memory_cycles())
        # Vector memory instructions move `vector_width` contiguous elements at
        # once, so the access latency of vectorised statements is amortised by
        # the SIMD width (this is what makes the NPU's unified-buffer traffic
        # cheap once the innermost loop is vectorised).
        total_accesses = max(1, collector.accesses)
        vector_accesses = sum(
            count
            for name, count in collector.statement_accesses.items()
            if vectorized.get(name, False)
        )
        vector_fraction = vector_accesses / total_accesses
        vector_factor = max(1.0, machine.vector_width * machine.vector_efficiency)
        memory *= (1.0 - vector_fraction) + vector_fraction / vector_factor
        # Shared loops and failed guards reflect the control complexity of the
        # generated code; the per-statement leaf loops and the always-taken
        # exactness guards are artifacts of the simplified scanning scheme (a
        # production generator folds them), so they only contribute a small
        # fixed per-instance cost.
        overhead = (
            stats.loop_iterations * machine.loop_overhead_cycles
            + stats.guard_failures * 4.0 * machine.guard_overhead_cycles
            + stats.instances * machine.guard_overhead_cycles
        )

        entries, speedup = self._parallel_effect(stats)
        cycles = (compute + memory) / speedup + overhead + entries * machine.parallel_startup_cycles
        return PerformanceReport(
            kernel=scop.name,
            machine=machine.name,
            cycles=cycles,
            compute_cycles=compute,
            memory_cycles=memory,
            overhead_cycles=overhead,
            parallel_speedup=speedup,
            parallel_entries=entries,
            instances=stats.instances,
            cache_statistics=collector.statistics(),
            vectorized_statements=vectorized,
        )

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #
    def _compute_cycles(
        self,
        scop: Scop,
        stats: ExecutionStats,
        vectorized: Mapping[str, bool],
    ) -> float:
        machine = self.machine
        cycles = 0.0
        for statement in scop.statements:
            instances = stats.per_statement.get(statement.name, 0)
            operations = max(1, len(statement.accesses))
            base = instances * operations * machine.operation_cycles
            if vectorized.get(statement.name, False):
                factor = max(1.0, machine.vector_width * machine.vector_efficiency)
                cycles += base / factor
            else:
                cycles += base * machine.scalar_penalty
        return cycles

    def _is_vectorized(self, statement: Statement, schedule: Schedule) -> bool:
        """A statement vectorises when its innermost varying loop is stride-1.

        The innermost schedule dimension with a non-zero iterator part is
        examined; if it is a single original iterator (no skew) and that
        iterator is the stride-1 iterator of the statement's accesses, the
        innermost generated loop is contiguous and the SIMD unit can be used.
        An explicit ``vectorize`` directive recorded in the schedule wins.
        """
        if statement.name in schedule.vectorized:
            innermost = self._innermost_iterator(statement, schedule)
            return innermost == schedule.vectorized[statement.name]
        if self.machine.requires_explicit_vectorization:
            return False
        innermost = self._innermost_iterator(statement, schedule)
        if innermost is None:
            return False
        votes = statement.contiguity_votes()
        if not votes:
            return False
        best = max(votes.values())
        return best > 0 and votes.get(innermost, 0) == best

    def _innermost_iterator(self, statement: Statement, schedule: Schedule) -> str | None:
        rows = schedule.rows_for(statement.name)
        for row in reversed(rows):
            iterator_terms = {
                name: coeff
                for name, coeff in row.coefficients.items()
                if name in statement.iterators and coeff != 0
            }
            if not iterator_terms:
                continue
            if len(iterator_terms) == 1:
                name, coeff = next(iter(iterator_terms.items()))
                return name if abs(coeff) == 1 else None
            return None  # skewed innermost dimension: not a contiguous loop
        return None

    def _parallel_effect(self, stats: ExecutionStats) -> tuple[int, float]:
        """Entries into the outermost parallel region and its effective speedup."""
        if not stats.parallel_loops:
            return 0, 1.0
        # The executor records parallel loops in execution order; the first one
        # encountered is the outermost.
        variable, (entries, iterations) = next(iter(stats.parallel_loops.items()))
        average = iterations / entries if entries else 0.0
        return entries, self.machine.effective_parallelism(average)


def estimate_cycles(
    scop: Scop,
    schedule: Schedule,
    machine: MachineModel,
    tiling: TilingSpec | None = None,
    parameter_values: Mapping[str, int] | None = None,
) -> PerformanceReport:
    """Convenience wrapper around :class:`CostModel`."""
    return CostModel(machine).evaluate(scop, schedule, tiling, parameter_values)
