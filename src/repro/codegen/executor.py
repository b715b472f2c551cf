"""Execution of generated ASTs on numpy arrays.

The executor runs the scanning AST produced by the code generator: it lowers
the AST once to generated integer code (:mod:`repro.codegen.lowering`) and
calls it.  It is the ground truth used by the test-suite to validate that
transformed schedules preserve the kernel semantics, and it doubles as the
memory-trace source for the cache simulator (via the ``on_instance`` hook).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from ..model.scop import Scop
from ..obs import active_tracer
from .ast import Node
from .generator import generate_ast
from .lowering import TraceHook, lower_ast

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ExecutionStats", "Executor", "execute", "run_original", "run_schedule"]

# Hook called for every executed statement instance: (statement, iterator values).
InstanceHook = Callable[[object, dict[str, int]], None]


@dataclass
class ExecutionStats:
    """Counters collected while executing an AST."""

    instances: int = 0
    loop_iterations: int = 0
    statement_loop_iterations: int = 0
    guard_checks: int = 0
    guard_failures: int = 0
    per_statement: dict[str, int] = field(default_factory=dict)
    # For every parallel loop variable: [number of entries, total iterations],
    # in the order the loops were first reached.
    parallel_loops: dict[str, list[int]] = field(default_factory=dict)


class Executor:
    """Run a scanning AST over a dictionary of numpy arrays."""

    def __init__(
        self,
        scop: Scop,
        parameter_values: Mapping[str, int] | None = None,
        on_instance: InstanceHook | TraceHook | None = None,
    ):
        self.scop = scop
        self.parameter_values = scop.resolved_parameters(parameter_values)
        self.on_instance = on_instance
        self.stats = ExecutionStats()

    def run(self, root: Node, arrays: dict[str, np.ndarray] | None = None) -> ExecutionStats:
        """Execute the AST on *arrays* (modified in place) and return statistics.

        Without *arrays* the statement bodies are skipped: the loops, guards,
        counters and the ``on_instance`` hook run, nothing is computed.
        """
        tracer = active_tracer()
        with tracer.span("evaluate.lower", category="codegen"):
            scan = lower_ast(root, self.parameter_values, self.on_instance, arrays is not None)
        with tracer.span("evaluate.scan", category="codegen") as span:
            *totals, counts, parallel = scan.run(arrays)
            per_statement = {name: count for name, count in counts.items() if count}
            self.stats = ExecutionStats(sum(counts.values()), *totals, per_statement, parallel)
            span.update(
                {"instances": self.stats.instances, "guard_failures": self.stats.guard_failures}
            )
        return self.stats


def execute(
    scop: Scop,
    root: Node,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Execute an already generated AST."""
    return Executor(scop, parameter_values, on_instance).run(root, arrays)


def run_original(
    scop: Scop,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Execute the SCoP under its original schedule."""
    root = generate_ast(scop, scop.original_schedule())
    return execute(scop, root, arrays, parameter_values, on_instance)


def run_schedule(
    scop: Scop,
    schedule,
    arrays: dict[str, np.ndarray],
    parameter_values: Mapping[str, int] | None = None,
    tiling=None,
    on_instance: InstanceHook | None = None,
) -> ExecutionStats:
    """Generate code for *schedule* and execute it."""
    root = generate_ast(scop, schedule, tiling)
    return execute(scop, root, arrays, parameter_values, on_instance)
