"""Pipeline stages: the protocol, the registry and the built-in stages.

A stage is a named unit of work operating on a :class:`PipelineContext`; a
session's pipeline is an ordered list of stages.  Mirroring the cost-function
registry of :mod:`repro.scheduler.cost`, stages are selected by name and new
stages — alternative scheduling backends, tilers, validators — plug in via
:func:`register_stage` without editing the core:

.. code-block:: python

    class UnrollHints:
        name = "unroll-hints"
        def run(self, context):
            context.diagnostics.append("unroll the innermost loop 4x")

    register_stage("unroll-hints", UnrollHints)
    session = Session(machine, stages=(*DEFAULT_STAGES, "unroll-hints"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, runtime_checkable

from ..codegen.ast import Node
from ..codegen.c_writer import to_c
from ..codegen.generator import generate_ast
from ..deps.dependence import Dependence
from ..machine.cost_model import CostModel, PerformanceReport
from ..machine.machine import MachineModel
from ..model.schedule import Schedule
from ..model.scop import Scop
from ..obs import active_tracer
from ..scheduler.config import SchedulerConfig
from ..scheduler.core import PolyTOPSScheduler, SchedulingResult
from ..scheduler.errors import ConfigurationError, SchedulingError
from ..transform.parallelism import detect_parallel_dimensions, schedule_is_legal
from ..transform.tiling import TilingSpec, compute_tiling
from ..transform.wavefront import apply_wavefront

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import Session

__all__ = [
    "PipelineContext",
    "PipelineStage",
    "register_stage",
    "registered_stages",
    "resolve_stage",
    "DEFAULT_STAGES",
    "EXPERIMENT_STAGES",
]


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline stages of one compilation."""

    session: "Session"
    scop: Scop
    config: SchedulerConfig
    machine: MachineModel | None
    parameter_values: Mapping[str, int] | None
    label: str
    apply_wavefront_skewing: bool = True

    # Produced by the stages:
    dependences: list[Dependence] | None = None
    scheduling: SchedulingResult | None = None
    schedule: Schedule | None = None
    legal: bool | None = None
    tiling: TilingSpec | None = None
    ast: Node | None = None
    generated_c: str | None = None
    report: PerformanceReport | None = None
    failed: bool = False
    error: str | None = None
    diagnostics: list[str] = field(default_factory=list)
    stage_timings: dict[str, float] = field(default_factory=dict)


@runtime_checkable
class PipelineStage(Protocol):
    """A named pipeline stage transforming the compilation context in place."""

    name: str

    def run(self, context: PipelineContext) -> None:
        """Advance *context*: read earlier products, record this stage's own."""


# --------------------------------------------------------------------------- #
# Registry (mirrors repro.scheduler.cost.register_cost_function)
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[[], PipelineStage]] = {}


def register_stage(name: str, factory: Callable[[], PipelineStage]) -> None:
    """Register a pipeline stage factory under *name* (overwrites silently)."""
    _REGISTRY[name] = factory


def registered_stages() -> list[str]:
    """Names of all registered pipeline stages."""
    return sorted(_REGISTRY)


def resolve_stage(name: str) -> PipelineStage:
    """Instantiate the pipeline stage registered under *name*."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown pipeline stage {name!r}; known: {registered_stages()}"
        )
    return _REGISTRY[name]()


def _solver_summary(statistics: Mapping[str, int | float]) -> str | None:
    """One diagnostic line summarising the solver work of a scheduling run."""
    if not statistics or "solve_calls" not in statistics:
        return None
    parts = [
        f"ilp: {statistics.get('solve_calls', 0)} solves",
        f"{statistics.get('pivots', 0)} pivots",
        f"{statistics.get('nodes', 0)} nodes ({statistics.get('grid_prunes', 0)} grid prunes)",
        f"{statistics.get('warm_start_hits', 0)} warm starts",
    ]
    generated = statistics.get("fm_rows_generated", 0)
    if generated:
        parts.append(
            f"fm: {generated} rows -> {statistics.get('fm_rows_emitted', 0)} "
            f"({statistics.get('fm_rows_pruned', 0)} pruned)"
        )
    parts.append(
        f"probes: {statistics.get('probe_solves', 0)} solves "
        f"({statistics.get('probe_roots', 0)} roots), "
        f"{statistics.get('probe_pivots', 0)} pivots"
    )
    parts.append(
        f"remembered: {statistics.get('probe_verdicts_reused', 0)} verdicts, "
        f"{statistics.get('farkas_blocks_reused', 0)} farkas blocks"
    )
    encode = statistics.get("encode_seconds")
    solve = statistics.get("solve_seconds")
    if isinstance(encode, (int, float)) and isinstance(solve, (int, float)):
        timing = f"encode {encode * 1e3:.1f}ms / solve {solve * 1e3:.1f}ms"
        if solve:
            # Where inside the solves the wall went (the basis linear algebra).
            shares = " ".join(
                f"{leaf} {statistics.get(leaf + '_seconds', 0.0) / solve:.0%}"
                for leaf in ("ftran", "btran", "refactor")
            )
            timing += f" ({shares})"
        parts.append(timing)
    return ", ".join(parts)


# --------------------------------------------------------------------------- #
# Built-in stages
# --------------------------------------------------------------------------- #
class DependenceStage:
    """Memory-based dependence analysis, cached per SCoP in the session."""

    name = "dependences"

    def run(self, context: PipelineContext) -> None:
        context.dependences = context.session.dependences(context.scop)


class SchedulingStage:
    """Run the PolyTOPS scheduler; fall back to the original program order.

    A :class:`SchedulingError` (over-constrained custom constraints or fusion
    directives) is a legitimate outcome of an experiment: the stage records
    it as a diagnostic, marks the result as failed and keeps the original
    schedule so downstream stages still produce code and numbers.  Malformed
    configurations (:class:`ConfigurationError`) are programmer errors and
    propagate — ``compile_many`` isolates them per job.
    """

    name = "schedule"

    def run(self, context: PipelineContext) -> None:
        dependences = context.dependences
        if dependences is None:
            dependences = context.session.dependences(context.scop)
            context.dependences = dependences
        # The run span is a ledger scope around the scheduler's own, so its
        # counters are ``CompilationResult.solver_statistics`` by construction.
        with active_tracer().span(
            "scheduler.run", category="scheduler", kernel=context.scop.name
        ):
            try:
                scheduler = PolyTOPSScheduler(
                    context.scop,
                    context.config,
                    dependences=dependences,
                    parameter_values=context.parameter_values,
                )
                result = scheduler.schedule()
            except SchedulingError as error:
                context.failed = True
                context.error = f"{type(error).__name__}: {error}"
                context.diagnostics.append(
                    f"scheduling failed ({context.error}); fell back to the original program order"
                )
                result = SchedulingResult(
                    context.scop.original_schedule(), list(dependences), {}, True, {}
                )
        if result.fallback_to_original and context.error is None:
            context.failed = True
            context.diagnostics.append(
                "no profitable schedule found; the scheduler fell back to the original order"
            )
        summary = _solver_summary(result.statistics)
        if summary:
            context.diagnostics.append(summary)
        context.scheduling = result
        context.schedule = result.schedule


class PostprocessStage:
    """Parallelism detection, optional wavefront skewing, tiling when the
    configuration names tile sizes."""

    name = "postprocess"

    def run(self, context: PipelineContext) -> None:
        scheduling = context.scheduling
        schedule = context.schedule
        if schedule is None or scheduling is None:
            raise ConfigurationError("the 'postprocess' stage needs a schedule to work on")
        if not schedule.parallel_dims or len(schedule.parallel_dims) < schedule.n_dims:
            schedule.parallel_dims = detect_parallel_dimensions(
                schedule, scheduling.dependences
            )
        if context.apply_wavefront_skewing:
            schedule, _changed = apply_wavefront(schedule, scheduling.dependences)
        if context.config.tile_sizes:
            context.tiling = compute_tiling(
                schedule, scheduling.dependences, context.config.tile_sizes
            )
        context.schedule = schedule


class LegalityStage:
    """Exact legality verdict of the final schedule against the dependences."""

    name = "legality"

    def run(self, context: PipelineContext) -> None:
        if context.schedule is None or context.scheduling is None:
            raise ConfigurationError("the 'legality' stage needs a schedule to check")
        context.legal = schedule_is_legal(context.schedule, context.scheduling.dependences)
        if not context.legal:
            context.failed = True
            context.diagnostics.append("the final schedule violates a dependence")


class CodegenStage:
    """Scanning AST construction and C code emission."""

    name = "codegen"

    def run(self, context: PipelineContext) -> None:
        if context.schedule is None:
            raise ConfigurationError("the 'codegen' stage needs a schedule to scan")
        context.ast = generate_ast(context.scop, context.schedule, context.tiling)
        context.generated_c = to_c(context.scop, context.ast)


class EvaluateStage:
    """Cycle estimation on the machine model (skipped when no machine is set)."""

    name = "evaluate"

    def run(self, context: PipelineContext) -> None:
        if context.machine is None:
            context.diagnostics.append("no machine model provided; evaluation skipped")
            return
        if context.schedule is None:
            raise ConfigurationError("the 'evaluate' stage needs a schedule to simulate")
        # The codegen stage's AST scans (schedule, tiling): the emitted code
        # is the code that is costed.
        context.report = CostModel(context.machine).evaluate(
            context.scop, context.schedule, context.tiling, context.parameter_values,
            ast=context.ast,
        )


register_stage(DependenceStage.name, DependenceStage)
register_stage(SchedulingStage.name, SchedulingStage)
register_stage(PostprocessStage.name, PostprocessStage)
register_stage(LegalityStage.name, LegalityStage)
register_stage(CodegenStage.name, CodegenStage)
register_stage(EvaluateStage.name, EvaluateStage)

#: The full pipeline behind the one-shot :func:`repro.pipeline.compile`.
DEFAULT_STAGES: tuple[str, ...] = (
    "dependences",
    "schedule",
    "postprocess",
    "legality",
    "codegen",
    "evaluate",
)

#: The trimmed pipeline used by the experiment drivers: no legality re-check
#: and no C emission, exactly the work the original experiment harness did.
EXPERIMENT_STAGES: tuple[str, ...] = (
    "dependences",
    "schedule",
    "postprocess",
    "evaluate",
)
